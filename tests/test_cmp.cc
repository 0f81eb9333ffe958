/**
 * @file
 * Tests for the chip-multiprocessing extension (the paper's Section 8
 * outlook): multiple cores per chip with private L1s sharing the
 * node's L2. Covers intra-chip write propagation (sibling L1
 * invalidation), L2 sharing between cores, coherence safety within and
 * across chips, and full-machine runs.
 */

#include <gtest/gtest.h>

#include "src/base/logging.hh"
#include "src/base/random.hh"
#include "src/coherence/protocol.hh"
#include "src/core/machine.hh"

namespace isim {
namespace {

MemSysConfig
cmpConfig(unsigned nodes, unsigned cores_per_node)
{
    MemSysConfig cfg;
    cfg.numNodes = nodes;
    cfg.coresPerNode = cores_per_node;
    cfg.l1Size = 1 * kib;
    cfg.l1Assoc = 2;
    cfg.l2 = CacheGeometry{8 * kib, 2, 64};
    cfg.lat = figure3Latencies(IntegrationLevel::FullInt,
                               L2Impl::OnchipSram);
    return cfg;
}

Addr
at(NodeId node, Addr offset)
{
    return (static_cast<Addr>(node) << 31) | offset;
}

TEST(Cmp, CoreToNodeMapping)
{
    MemorySystem ms(cmpConfig(2, 4));
    EXPECT_EQ(ms.totalCores(), 8u);
    EXPECT_EQ(ms.nodeOfCore(0), 0u);
    EXPECT_EQ(ms.nodeOfCore(3), 0u);
    EXPECT_EQ(ms.nodeOfCore(4), 1u);
    EXPECT_EQ(ms.nodeOfCore(7), 1u);
}

TEST(Cmp, SecondCoreHitsSharedL2)
{
    MemorySystem ms(cmpConfig(1, 2));
    const Addr a = at(0, 0x100);
    ms.access(0, RefType::Load, a); // core 0 misses to memory
    const AccessOutcome out = ms.access(1, RefType::Load, a);
    // Core 1 finds the line in the *shared* L2: no memory traffic.
    EXPECT_EQ(out.cls, MissClass::L2Hit);
    EXPECT_EQ(out.stall, ms.config().lat.l2Hit);
    EXPECT_EQ(ms.aggregateStats().totalL2Misses(), 1u);
    ms.checkInvariants();
}

TEST(Cmp, StoreInvalidatesSiblingL1)
{
    MemorySystem ms(cmpConfig(1, 2));
    const Addr a = at(0, 0x100);
    ms.access(0, RefType::Load, a);
    ms.access(1, RefType::Load, a);
    ASSERT_NE(ms.l1d(0).probe(a >> 6), nullptr);
    ASSERT_NE(ms.l1d(1).probe(a >> 6), nullptr);

    const AccessOutcome out = ms.access(0, RefType::Store, a);
    // The chip owns the line; the store is an intra-chip operation.
    EXPECT_EQ(out.stall, 0u);
    EXPECT_EQ(ms.l1d(0).probe(a >> 6)->state, LineState::Modified);
    EXPECT_EQ(ms.l1d(1).probe(a >> 6), nullptr); // sibling dropped
    EXPECT_GE(ms.nodeStats(0).intraNodeInvals, 1u);
    ms.checkInvariants();
}

TEST(Cmp, SiblingReloadsAfterStoreThroughL2)
{
    MemorySystem ms(cmpConfig(1, 2));
    const Addr a = at(0, 0x100);
    ms.access(0, RefType::Load, a);
    ms.access(1, RefType::Load, a);
    ms.access(0, RefType::Store, a);
    // Core 1 re-reads: L1 miss, shared-L2 hit — no off-chip traffic.
    const AccessOutcome out = ms.access(1, RefType::Load, a);
    EXPECT_EQ(out.cls, MissClass::L2Hit);
    EXPECT_EQ(ms.aggregateStats().totalL2Misses(), 1u);
    ms.checkInvariants();
}

TEST(Cmp, PingPongWithinChipStaysOnChip)
{
    MemorySystem ms(cmpConfig(2, 2));
    const Addr a = at(0, 0x200);
    ms.access(0, RefType::Store, a);
    const auto misses_before = ms.aggregateStats().totalL2Misses();
    for (int i = 0; i < 20; ++i) {
        ms.access(i % 2, RefType::Store, a);
        ms.access((i + 1) % 2, RefType::Load, a);
    }
    // All the ping-ponging is L1<->L2 within the chip.
    EXPECT_EQ(ms.aggregateStats().totalL2Misses(), misses_before);
    EXPECT_EQ(ms.aggregateStats().invalidationsSent, 0u);
    EXPECT_GT(ms.nodeStats(0).intraNodeInvals, 10u);
    ms.checkInvariants();
}

TEST(Cmp, CrossChipStillCoherent)
{
    MemorySystem ms(cmpConfig(2, 2));
    const Addr a = at(0, 0x200);
    ms.access(0, RefType::Store, a); // chip 0, core 0
    const AccessOutcome out = ms.access(2, RefType::Load, a); // chip 1
    EXPECT_EQ(out.cls, MissClass::RemoteDirty);
    EXPECT_EQ(ms.l1d(0).probe(a >> 6)->state, LineState::Shared);
    ms.checkInvariants();
}

TEST(Cmp, NoExclusiveL1StateOnMulticoreChips)
{
    MemorySystem ms(cmpConfig(1, 2));
    const Addr a = at(0, 0x100);
    ms.access(0, RefType::Load, a);
    // With siblings present the L1 fill must be Shared (a silent L1
    // E->M would bypass sibling invalidation).
    EXPECT_EQ(ms.l1d(0).probe(a >> 6)->state, LineState::Shared);
}

TEST(Cmp, StressSafetyAcrossChipsAndCores)
{
    MemorySystem ms(cmpConfig(2, 4));
    Rng rng(0xC3D);
    for (int step = 0; step < 20000; ++step) {
        const NodeId core = static_cast<NodeId>(rng.below(8));
        const std::uint64_t idx = rng.below(64);
        const Addr addr = at(static_cast<NodeId>(idx % 2),
                             (idx / 2) << 6);
        ms.access(core,
                  rng.chance(0.4) ? RefType::Store : RefType::Load,
                  addr);
        if (step % 2000 == 0)
            ms.checkInvariants();
    }
    ms.checkInvariants();
    EXPECT_GT(ms.aggregateStats().intraNodeInvals, 0u);
    EXPECT_GT(ms.aggregateStats().dataRemoteDirty, 0u);
}

TEST(Cmp, MachineRunsConsistent)
{
    setQuiet(true);
    MachineConfig cfg;
    cfg.name = "cmp-test";
    cfg.numCpus = 8;
    cfg.coresPerNode = 4; // 2 chips x 4 cores
    cfg.level = IntegrationLevel::FullInt;
    cfg.l2Impl = L2Impl::OnchipSram;
    cfg.l2 = CacheGeometry{1 * mib, 8, 64};
    cfg.workload.branches = 8;
    cfg.workload.accountsPerBranch = 10000;
    cfg.workload.blockBufferBytes = 64 * mib;
    cfg.workload.transactions = 60;
    cfg.workload.warmupTransactions = 20;

    Machine m(cfg);
    const RunResult r = m.run();
    EXPECT_EQ(r.transactions, 60u);
    EXPECT_TRUE(r.dbConsistent);
    EXPECT_GT(r.stat("node0.l2.intra_node_invals") +
                  r.stat("node1.l2.intra_node_invals"),
              0u);
    m.memSys().checkInvariants();
}

TEST(Cmp, SharingL2ReducesOffChipCommunication)
{
    setQuiet(true);
    auto run = [](unsigned cores_per_node) {
        MachineConfig cfg;
        cfg.name = "cmp-" + std::to_string(cores_per_node);
        cfg.numCpus = 4;
        cfg.coresPerNode = cores_per_node;
        cfg.level = IntegrationLevel::FullInt;
        cfg.l2Impl = L2Impl::OnchipSram;
        cfg.l2 = CacheGeometry{1 * mib, 8, 64};
        cfg.workload.branches = 8;
        cfg.workload.accountsPerBranch = 10000;
        cfg.workload.blockBufferBytes = 64 * mib;
        cfg.workload.transactions = 100;
        cfg.workload.warmupTransactions = 40;
        return Machine(cfg).run();
    };
    const RunResult smp = run(1); // 4 chips x 1 core
    const RunResult cmp = run(4); // 1 chip  x 4 cores
    // On one chip there is nobody remote to communicate with.
    EXPECT_GT(smp.stat("l2.miss.remote_dirty"), 0u);
    EXPECT_EQ(cmp.stat("l2.miss.remote_dirty"), 0u);
    const auto rem = [](const RunResult &r) {
        return r.stat("cpu.remote_stall") + r.stat("cpu.remote_dirty_stall");
    };
    EXPECT_GT(rem(smp), rem(cmp));
}

TEST(CmpDeathTest, IndivisibleCoreCountIsFatal)
{
    MachineConfig cfg;
    cfg.numCpus = 6;
    cfg.coresPerNode = 4;
    EXPECT_EXIT(Machine m(cfg), ::testing::ExitedWithCode(1),
                "not divisible");
}

} // namespace
} // namespace isim
