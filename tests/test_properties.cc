/**
 * @file
 * Property sweeps over full machine runs: for a grid of cache shapes
 * (including non-power-of-two sets), node counts, CPU models and RAC
 * presence, a short OLTP run must end with (a) the directory/cache
 * cross-invariants intact, (b) a consistent database, (c) sane stat
 * identities.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>

#include "src/base/logging.hh"
#include "src/core/machine.hh"

namespace isim {
namespace {

// gtest names each case after the raw bytes of its parameter, so the
// struct has no padding: uninitialised padding bytes would make the
// test names depend on whatever the stack held when the cases were
// built. The widened fields keep the byte layout of the natural one.
struct SweepParam
{
    std::uint64_t cpus;
    std::uint64_t l2Bytes;
    std::uint32_t l2Assoc;
    std::uint32_t rac;
    CpuModel model;
    std::uint32_t reserved = 0;

    std::string
    name() const
    {
        return "n" + std::to_string(cpus) + "_" +
               CacheGeometry{l2Bytes, l2Assoc, 64}.shortName() +
               (rac ? "_rac" : "") +
               (model == CpuModel::OutOfOrder ? "_ooo" : "");
    }
};

static_assert(std::has_unique_object_representations_v<SweepParam>);

class MachineSweep : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(MachineSweep, RunEndsConsistent)
{
    setQuiet(true);
    const SweepParam param = GetParam();

    MachineConfig cfg;
    cfg.name = param.name();
    cfg.numCpus = param.cpus;
    cfg.cpuModel = param.model;
    if (param.rac) {
        cfg.level = IntegrationLevel::FullInt;
        cfg.l2Impl = L2Impl::OnchipSram;
        cfg.rac = true;
        cfg.racGeom = CacheGeometry{2 * mib, 8, 64};
    } else {
        cfg.level = IntegrationLevel::Base;
        cfg.l2Impl =
            param.l2Assoc == 1 ? L2Impl::OffchipDirect
                               : L2Impl::OffchipAssoc;
    }
    cfg.l2 = CacheGeometry{param.l2Bytes, param.l2Assoc, 64};
    cfg.workload.branches = 8;
    cfg.workload.accountsPerBranch = 10000;
    cfg.workload.blockBufferBytes = 64 * mib;
    cfg.workload.transactions = 48;
    cfg.workload.warmupTransactions = 16;

    Machine m(cfg);
    const RunResult r = m.run();

    // (a) Protocol invariants.
    m.memSys().checkInvariants();

    // (b) The database really executed its transactions.
    EXPECT_TRUE(r.dbConsistent);
    EXPECT_EQ(r.transactions, 48u);
    // History rows are inserted during Execute; commits are counted
    // at Respond, so in-flight transactions may lead the commit count
    // by at most the number of servers.
    const std::uint64_t servers =
        std::uint64_t{param.cpus} * cfg.workload.serversPerCpu;
    EXPECT_GE(m.engine().db().historyCount(),
              m.engine().committedTransactions());
    EXPECT_LE(m.engine().db().historyCount(),
              m.engine().committedTransactions() + servers);

    // (c) Stat identities.
    EXPECT_GT(r.stat("cpu.instructions"), 0u);
    EXPECT_GT(r.stat("cpu.loads"), 0u);
    EXPECT_GT(r.stat("cpu.stores"), 0u);
    EXPECT_EQ(r.stat("cpu.exec_time"),
              r.stat("cpu.busy") + r.stat("cpu.l2hit_stall") +
                  r.stat("cpu.local_stall") + r.stat("cpu.remote_stall") +
                  r.stat("cpu.remote_dirty_stall"));
    EXPECT_LE(r.stat("cpu.kernel_time"), r.stat("cpu.exec_time"));
    if (param.cpus == 1) {
        EXPECT_EQ(r.stat("l2.miss.remote_clean") +
                      r.stat("l2.miss.remote_dirty") +
                      r.stat("l2.miss.instr_remote"),
                  0u);
    }
    // Every CPU did some work.
    for (NodeId n = 0; n < param.cpus; ++n)
        EXPECT_GT(m.cpu(n).stats().instructions, 0u) << "cpu " << n;

    // L1/L2 access hierarchy: L2 demand accesses cannot exceed L1
    // misses plus coherence refills.
    for (NodeId n = 0; n < param.cpus; ++n) {
        const auto &l1i = m.memSys().l1i(n).counters();
        const auto &l1d = m.memSys().l1d(n).counters();
        const auto &l2 = m.memSys().l2(n).counters();
        EXPECT_LE(l2.accesses, l1i.misses() + l1d.misses() +
                                   l1i.invalidationsReceived +
                                   l1d.invalidationsReceived + 16);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MachineSweep,
    ::testing::Values(
        SweepParam{1, 256 * kib, 1, false, CpuModel::InOrder},
        SweepParam{1, 512 * kib, 4, false, CpuModel::InOrder},
        SweepParam{1, 1280 * kib, 4, false, CpuModel::InOrder},
        SweepParam{1, 1 * mib, 8, false, CpuModel::OutOfOrder},
        SweepParam{2, 512 * kib, 2, false, CpuModel::InOrder},
        SweepParam{2, 512 * kib, 2, true, CpuModel::InOrder},
        SweepParam{4, 256 * kib, 1, false, CpuModel::InOrder},
        SweepParam{4, 512 * kib, 4, true, CpuModel::OutOfOrder},
        SweepParam{8, 512 * kib, 2, false, CpuModel::InOrder},
        SweepParam{8, 1 * mib, 4, true, CpuModel::InOrder}),
    [](const ::testing::TestParamInfo<SweepParam> &tpi) {
        return tpi.param.name();
    });

/** Miss monotonicity: growing an associative L2 cannot hurt much. */
class CapacitySweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CapacitySweep, BiggerAssociativeCacheMissesLess)
{
    setQuiet(true);
    const unsigned assoc = GetParam();
    std::uint64_t prev_misses = ~0ull;
    for (std::uint64_t size :
         {256 * kib, 512 * kib, 1 * mib, 2 * mib}) {
        MachineConfig cfg;
        cfg.name = "cap";
        cfg.numCpus = 1;
        cfg.l2 = CacheGeometry{size, assoc, 64};
        cfg.l2Impl = assoc == 1 ? L2Impl::OffchipDirect
                                : L2Impl::OffchipAssoc;
        cfg.workload.branches = 8;
        cfg.workload.accountsPerBranch = 10000;
        cfg.workload.blockBufferBytes = 64 * mib;
        cfg.workload.transactions = 120;
        cfg.workload.warmupTransactions = 60;
        const RunResult r = Machine(cfg).run();
        // Allow a sliver of noise; capacity growth must not increase
        // misses materially.
        const auto misses =
            static_cast<std::uint64_t>(r.stat("l2.miss.total"));
        EXPECT_LT(misses, prev_misses + prev_misses / 16);
        prev_misses = misses;
    }
}

INSTANTIATE_TEST_SUITE_P(Assoc, CapacitySweep,
                         ::testing::Values(1u, 2u, 4u, 8u));

} // namespace
} // namespace isim
