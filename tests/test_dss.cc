/**
 * @file
 * Tests for the DSS query-stream workload: structural properties
 * (streaming, read-only, tiny code footprint) and the sensitivity
 * contrast with OLTP that justifies the paper's focus.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "src/base/logging.hh"
#include "src/core/machine.hh"

namespace isim {
namespace {

MachineConfig
dssConfig(unsigned cpus, std::uint64_t queries = 12)
{
    MachineConfig cfg;
    cfg.name = "dss-test";
    cfg.numCpus = cpus;
    cfg.l2 = CacheGeometry{1 * mib, 4, 64};
    cfg.l2Impl = L2Impl::OffchipAssoc;
    cfg.workload.kind = WorkloadKind::DssScan;
    cfg.workload.branches = 8;
    cfg.workload.accountsPerBranch = 10000;
    cfg.workload.blockBufferBytes = 64 * mib;
    cfg.workload.dssBlocksPerQuery = 64;
    cfg.workload.transactions = queries;
    cfg.workload.warmupTransactions = queries / 3;
    return cfg;
}

TEST(Dss, QueriesCompleteDeterministically)
{
    setQuiet(true);
    Machine a(dssConfig(2));
    Machine b(dssConfig(2));
    const RunResult ra = a.run();
    const RunResult rb = b.run();
    EXPECT_EQ(ra.transactions, 12u);
    EXPECT_EQ(ra.stat("cpu.exec_time"), rb.stat("cpu.exec_time"));
    EXPECT_EQ(ra.stat("l2.miss.total"), rb.stat("l2.miss.total"));
    a.memSys().checkInvariants();
}

TEST(Dss, ReadOnlyAndBarelyShared)
{
    setQuiet(true);
    Machine m(dssConfig(4));
    const RunResult r = m.run();
    // Scans produce almost no write sharing: dirty 3-hop misses are a
    // sliver compared with OLTP's >50%.
    const double dirty_share =
        r.stat("l2.miss.remote_dirty") / r.stat("l2.miss.total");
    EXPECT_LT(dirty_share, 0.05);
    // And invalidations are rare.
    EXPECT_LT(r.stat("l2.invals_sent"),
              std::floor(r.stat("l2.miss.total") / 20));
}

TEST(Dss, StreamingMissesDontCareAboutCacheSize)
{
    setQuiet(true);
    MachineConfig small = dssConfig(1, 16);
    small.l2 = CacheGeometry{1 * mib, 1, 64};
    small.l2Impl = L2Impl::OffchipDirect;
    MachineConfig big = dssConfig(1, 16);
    big.l2 = CacheGeometry{8 * mib, 4, 64};
    const RunResult rs = Machine(small).run();
    const RunResult rb = Machine(big).run();
    // An 8x bigger, 4x more associative cache barely moves the miss
    // count: there is no reuse for it to capture.
    const double ratio = rs.stat("l2.miss.total") / rb.stat("l2.miss.total");
    EXPECT_LT(ratio, 1.6);
    // Contrast: OLTP moves by an order of magnitude across the same
    // pair (see test_figures.cc MissReductionFromSmallDmToBigAssoc).
}

TEST(Dss, LessSensitiveToIntegrationThanOltp)
{
    setQuiet(true);
    // Sizes matter here: at ~10 queries the two gains sit within
    // scheduling noise of each other, so the contrast only becomes a
    // stable property once both workloads reach steady state.
    auto gain = [](WorkloadKind kind) {
        MachineConfig base = dssConfig(2, 24);
        MachineConfig full = dssConfig(2, 24);
        for (MachineConfig *cfg : {&base, &full}) {
            cfg->workload.kind = kind;
            if (kind == WorkloadKind::TpcB) {
                cfg->workload.transactions = 360;
                cfg->workload.warmupTransactions = 120;
            }
        }
        base.level = IntegrationLevel::Base;
        base.l2Impl = L2Impl::OffchipDirect;
        base.l2 = CacheGeometry{8 * mib, 1, 64};
        full.level = IntegrationLevel::FullInt;
        full.l2Impl = L2Impl::OnchipSram;
        full.l2 = CacheGeometry{2 * mib, 8, 64};
        const RunResult rb = Machine(base).run();
        const RunResult rf = Machine(full).run();
        return rb.stat("cpu.exec_time") / rf.stat("cpu.exec_time");
    };
    const double oltp_gain = gain(WorkloadKind::TpcB);
    const double dss_gain = gain(WorkloadKind::DssScan);
    EXPECT_GT(oltp_gain, dss_gain);
    EXPECT_GT(oltp_gain, 1.2); // OLTP: the paper's headline
}

TEST(Dss, InstructionFootprintIsTiny)
{
    setQuiet(true);
    Machine m(dssConfig(1, 16));
    const RunResult r = m.run();
    // Scan loops live in a handful of I-lines: instruction misses are
    // negligible next to data misses.
    EXPECT_LT(r.stat("l2.miss.instr_local") + r.stat("l2.miss.instr_remote"),
              std::floor(r.stat("l2.miss.total") / 10));
    // But the queries did real work.
    EXPECT_GT(r.stat("cpu.instructions"), 400000u);
}

} // namespace
} // namespace isim
