/**
 * @file
 * Tests for the sequential L2 prefetcher: next-line coverage, hit
 * accounting, contention avoidance, and the streaming-vs-OLTP
 * sensitivity contrast it exists to demonstrate.
 */

#include <gtest/gtest.h>

#include "src/base/logging.hh"
#include "src/coherence/protocol.hh"
#include "src/core/machine.hh"

namespace isim {
namespace {

MemSysConfig
pfConfig(unsigned degree, unsigned nodes = 2)
{
    MemSysConfig cfg;
    cfg.numNodes = nodes;
    cfg.prefetchDegree = degree;
    cfg.l1Size = 512;
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

TEST(Prefetch, NextLineIsCoveredAfterAMiss)
{
    MemorySystem ms(pfConfig(1));
    const AccessOutcome first = ms.access(0, RefType::Load, at(0, 0x100));
    EXPECT_EQ(first.cls, MissClass::Local);
    EXPECT_EQ(ms.nodeStats(0).prefetchesIssued, 1u);

    // The sequential neighbour is now an L2 hit tagged as a prefetch.
    const AccessOutcome next = ms.access(0, RefType::Load, at(0, 0x140));
    EXPECT_EQ(next.cls, MissClass::L2Hit);
    EXPECT_EQ(ms.nodeStats(0).prefetchHits, 1u);
    // Counted misses: only the demand one.
    EXPECT_EQ(ms.aggregateStats().totalL2Misses(), 1u);
    ms.checkInvariants();
}

TEST(Prefetch, DegreeControlsCoverage)
{
    MemorySystem ms(pfConfig(4));
    ms.access(0, RefType::Load, at(0, 0x1000));
    EXPECT_EQ(ms.nodeStats(0).prefetchesIssued, 4u);
    for (unsigned d = 1; d <= 4; ++d) {
        EXPECT_NE(ms.l2(0).probe((at(0, 0x1000) >> 6) + d), nullptr)
            << "line +" << d;
    }
    ms.checkInvariants();
}

TEST(Prefetch, DoesNotDisturbRemoteWriters)
{
    MemorySystem ms(pfConfig(1));
    const Addr a = at(0, 0x200);
    const Addr next = at(0, 0x240);
    ms.access(1, RefType::Store, next); // node 1 owns the next line
    ms.access(0, RefType::Load, a);     // miss + prefetch attempt
    // The prefetch must have skipped the contended line.
    EXPECT_EQ(ms.l2(0).probe(next >> 6), nullptr);
    EXPECT_EQ(ms.l2(1).probe(next >> 6)->state, LineState::Modified);
    EXPECT_EQ(ms.nodeStats(0).prefetchesIssued, 0u);
    ms.checkInvariants();
}

TEST(Prefetch, StopsAtEndOfInstalledMemory)
{
    MemorySystem ms(pfConfig(4));
    // Last line of the last node's window.
    const Addr last = (Addr{2} << 31) - 64;
    ms.access(1, RefType::Load, last);
    EXPECT_EQ(ms.nodeStats(1).prefetchesIssued, 0u);
    ms.checkInvariants();
}

TEST(Prefetch, PrefetchedLinesStayCoherent)
{
    MemorySystem ms(pfConfig(2));
    ms.access(0, RefType::Load, at(0, 0x300)); // prefetches 0x340, 0x380
    // Another node writes a prefetched line: it must be invalidated.
    ms.access(1, RefType::Store, at(0, 0x340));
    EXPECT_EQ(ms.l2(0).probe(at(0, 0x340) >> 6), nullptr);
    ms.checkInvariants();
}

TEST(Prefetch, StreamingWorkloadBenefitsOltpBarely)
{
    setQuiet(true);
    auto run = [](WorkloadKind kind, unsigned degree) {
        MachineConfig cfg;
        cfg.name = "pf";
        cfg.numCpus = 1;
        cfg.l2 = CacheGeometry{1 * mib, 4, 64};
        cfg.l2Impl = L2Impl::OffchipAssoc;
        cfg.prefetchDegree = degree;
        cfg.workload.kind = kind;
        cfg.workload.branches = 8;
        cfg.workload.accountsPerBranch = 10000;
        cfg.workload.blockBufferBytes = 64 * mib;
        cfg.workload.dssBlocksPerQuery = 64;
        cfg.workload.transactions =
            kind == WorkloadKind::DssScan ? 16 : 150;
        cfg.workload.warmupTransactions =
            cfg.workload.transactions / 3;
        return Machine(cfg).run();
    };
    const RunResult dss0 = run(WorkloadKind::DssScan, 0);
    const RunResult dss2 = run(WorkloadKind::DssScan, 2);
    const RunResult oltp0 = run(WorkloadKind::TpcB, 0);
    const RunResult oltp2 = run(WorkloadKind::TpcB, 2);

    const double dss_gain =
        dss0.stat("cpu.exec_time") / dss2.stat("cpu.exec_time");
    const double oltp_gain =
        oltp0.stat("cpu.exec_time") / oltp2.stat("cpu.exec_time");
    // Scans prefetch perfectly; OLTP's pointer-dense traffic does not.
    EXPECT_GT(dss_gain, 1.3);
    EXPECT_GT(dss_gain, oltp_gain + 0.2);
    // And the prefetcher actually fired usefully for the scans.
    EXPECT_GT(dss2.stat("node0.l2.prefetch_hits"),
              dss2.stat("l2.miss.total") / 2);
}

} // namespace
} // namespace isim
