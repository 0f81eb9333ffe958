/**
 * @file
 * Tests for the optional memory-controller contention model.
 */

#include <gtest/gtest.h>

#include "src/base/logging.hh"
#include "src/coherence/protocol.hh"
#include "src/core/machine.hh"

namespace isim {
namespace {

MemSysConfig
mcConfig(Cycles occupancy, unsigned nodes = 2)
{
    MemSysConfig cfg;
    cfg.numNodes = nodes;
    cfg.mcOccupancy = occupancy;
    cfg.l1Size = 512;
    cfg.l1Assoc = 2;
    cfg.l2 = CacheGeometry{4 * kib, 2, 64};
    cfg.lat = figure3Latencies(IntegrationLevel::FullInt,
                               L2Impl::OnchipSram);
    return cfg;
}

Addr
at(NodeId node, Addr offset)
{
    return (static_cast<Addr>(node) << 31) | offset;
}

TEST(McContention, BackToBackMissesQueue)
{
    MemorySystem ms(mcConfig(50));
    // Two misses to the same home at the same instant: the second
    // waits out the first's occupancy.
    const AccessOutcome first =
        ms.access(0, RefType::Load, at(0, 0x100), /*now=*/1000);
    const AccessOutcome second =
        ms.access(0, RefType::Load, at(0, 0x2000), /*now=*/1000);
    EXPECT_EQ(first.stall, ms.config().lat.local);
    EXPECT_EQ(second.stall, ms.config().lat.local + 50);
    EXPECT_EQ(ms.nodeStats(0).mcQueueCycles, 50u);
}

TEST(McContention, SpacedMissesDoNotQueue)
{
    MemorySystem ms(mcConfig(50));
    ms.access(0, RefType::Load, at(0, 0x100), 1000);
    const AccessOutcome later =
        ms.access(0, RefType::Load, at(0, 0x2000), 2000);
    EXPECT_EQ(later.stall, ms.config().lat.local);
    EXPECT_EQ(ms.nodeStats(0).mcQueueCycles, 0u);
}

TEST(McContention, HomesQueueIndependently)
{
    MemorySystem ms(mcConfig(50));
    ms.access(0, RefType::Load, at(0, 0x100), 1000);
    // A different home: no queueing behind home 0's controller.
    const AccessOutcome other =
        ms.access(0, RefType::Load, at(1, 0x100), 1000);
    EXPECT_EQ(other.stall, ms.config().lat.remote);
}

TEST(McContention, HitsAreUnaffected)
{
    MemorySystem ms(mcConfig(50));
    const Addr a = at(0, 0x100);
    ms.access(0, RefType::Load, a, 1000);
    const AccessOutcome hit = ms.access(0, RefType::Load, a, 1000);
    EXPECT_EQ(hit.cls, MissClass::L1Hit);
    EXPECT_EQ(hit.stall, 0u);
}

TEST(McContention, DisabledByDefault)
{
    MemorySystem ms(mcConfig(0));
    ms.access(0, RefType::Load, at(0, 0x100), 1000);
    const AccessOutcome second =
        ms.access(0, RefType::Load, at(0, 0x2000), 1000);
    EXPECT_EQ(second.stall, ms.config().lat.local);
    EXPECT_EQ(ms.aggregateStats().mcQueueCycles, 0u);
}

TEST(McContention, MachineFeelsTheQueueing)
{
    // Note: end-to-end execution time is *not* asserted monotone in
    // the occupancy — the workload is closed-loop (group commit sizes
    // and scheduling shift with timing), so small-scale runs can move
    // either way for moderate occupancies. The mechanism itself must
    // be monotone, and heavy contention must dominate eventually.
    setQuiet(true);
    auto run = [](Cycles occ) {
        MachineConfig cfg;
        cfg.name = "mc" + std::to_string(occ);
        cfg.numCpus = 4;
        cfg.l2 = CacheGeometry{512 * kib, 2, 64};
        cfg.l2Impl = L2Impl::OffchipAssoc;
        cfg.mcOccupancy = occ;
        cfg.workload.branches = 8;
        cfg.workload.accountsPerBranch = 10000;
        cfg.workload.blockBufferBytes = 64 * mib;
        cfg.workload.transactions = 60;
        cfg.workload.warmupTransactions = 20;
        const RunResult r = Machine(cfg).run();
        EXPECT_TRUE(r.dbConsistent);
        return r;
    };
    const RunResult none = run(0);
    const RunResult some = run(40);
    const RunResult heavy = run(400);
    auto queued = [](const RunResult &r) {
        double cycles = 0.0;
        for (const char *n : {"node0", "node1", "node2", "node3"})
            cycles += r.stat(std::string(n) + ".l2.mc_queue_cycles");
        return cycles;
    };
    EXPECT_EQ(queued(none), 0u);
    EXPECT_GT(queued(some), 0u);
    EXPECT_GT(queued(heavy), queued(some));
    EXPECT_GT(heavy.stat("cpu.exec_time"), none.stat("cpu.exec_time"));
}

} // namespace
} // namespace isim
