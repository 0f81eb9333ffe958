/**
 * @file
 * Randomized stress test of the coherence protocol. After *every*
 * access the coherence safety properties are checked against the
 * caches directly (single-writer / no-stale-sharers), and the full
 * directory-vs-cache invariant checker runs periodically. Runs across
 * a parameter sweep of node counts, cache shapes, and RAC presence.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/base/random.hh"
#include "src/coherence/protocol.hh"

namespace isim {
namespace {

struct StressParam
{
    unsigned nodes;
    unsigned l2Assoc;
    bool rac;
};

class ProtocolStress : public ::testing::TestWithParam<StressParam>
{
};

TEST_P(ProtocolStress, SafetyUnderRandomTraffic)
{
    const StressParam param = GetParam();
    MemSysConfig cfg;
    cfg.numNodes = param.nodes;
    cfg.l1Size = 512;
    cfg.l1Assoc = 2;
    cfg.l2 = CacheGeometry{2 * kib, param.l2Assoc, 64};
    cfg.racEnabled = param.rac;
    cfg.rac = CacheGeometry{4 * kib, 2, 64};
    cfg.lat = figure3Latencies(IntegrationLevel::FullInt,
                               L2Impl::OnchipSram);
    MemorySystem ms(cfg);

    Rng rng(0xD00D + param.nodes * 131 + param.l2Assoc +
            (param.rac ? 7 : 0));

    // A small, heavily contended line pool spread over all homes.
    const unsigned pool_lines = 96;
    auto pick_addr = [&]() {
        const std::uint64_t idx = rng.below(pool_lines);
        const NodeId home =
            static_cast<NodeId>(idx % param.nodes);
        return (static_cast<Addr>(home) << 31) |
               ((idx / param.nodes) << 6);
    };

    for (int step = 0; step < 30000; ++step) {
        const NodeId node = static_cast<NodeId>(rng.below(param.nodes));
        const Addr addr = pick_addr();
        const int what = static_cast<int>(rng.below(10));
        const RefType type = what < 5   ? RefType::Load
                             : what < 9 ? RefType::Store
                                        : RefType::Load;
        ms.access(node, type, addr);

        // Safety: if any node holds the line owned, nobody else may
        // hold it at all; if anyone holds it Shared, nobody may hold
        // it owned.
        const Addr line = addr >> 6;
        int owners = 0, sharers = 0;
        for (NodeId n = 0; n < param.nodes; ++n) {
            const CacheLine *l2line = ms.l2(n).probe(line);
            LineState node_state =
                l2line ? l2line->state : LineState::Invalid;
            if (param.rac) {
                if (const CacheLine *r =
                        ms.rac(n).cache().probe(line)) {
                    if (r->state > node_state)
                        node_state = r->state;
                }
            }
            if (lineOwned(node_state))
                ++owners;
            else if (node_state == LineState::Shared)
                ++sharers;
        }
        ASSERT_LE(owners, 1) << "two owners at step " << step;
        ASSERT_FALSE(owners == 1 && sharers > 0)
            << "owner plus sharers at step " << step;

        if (step % 2000 == 0)
            ms.checkInvariants();
    }
    ms.checkInvariants();

    // Sanity: the run must have produced real coherence activity.
    const NodeProtocolStats total = ms.aggregateStats();
    if (param.nodes > 1) {
        EXPECT_GT(total.dataRemoteDirty, 0u);
        EXPECT_GT(total.invalidationsSent, 0u);
    }
    EXPECT_GT(total.totalL2Misses(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProtocolStress,
    ::testing::Values(StressParam{1, 2, false}, StressParam{2, 1, false},
                      StressParam{2, 2, true}, StressParam{4, 2, false},
                      StressParam{4, 4, true}, StressParam{8, 2, false},
                      StressParam{8, 1, true}),
    [](const ::testing::TestParamInfo<StressParam> &tpi) {
        std::string name = "n";
        name += std::to_string(tpi.param.nodes);
        name += "_a";
        name += std::to_string(tpi.param.l2Assoc);
        name += tpi.param.rac ? "_rac" : "_norac";
        return name;
    });

} // namespace
} // namespace isim
