/**
 * @file
 * Integration tests of the assembled machine: full runs at reduced
 * scale, determinism, warm-up semantics, coherence invariants after
 * execution, and placement effects.
 */

#include <gtest/gtest.h>

#include "src/base/logging.hh"
#include "src/core/machine.hh"

namespace isim {
namespace {

/** Reduced-scale workload so tests run in milliseconds. */
WorkloadParams
testWorkload(std::uint64_t txns = 60)
{
    WorkloadParams p;
    p.branches = 8;
    p.accountsPerBranch = 10000;
    p.blockBufferBytes = 64 * mib;
    p.transactions = txns;
    p.warmupTransactions = txns / 3;
    return p;
}

MachineConfig
uniConfig(std::uint64_t txns = 60)
{
    MachineConfig cfg;
    cfg.name = "test-uni";
    cfg.numCpus = 1;
    cfg.l2 = CacheGeometry{1 * mib, 4, 64};
    cfg.l2Impl = L2Impl::OffchipAssoc;
    cfg.workload = testWorkload(txns);
    return cfg;
}

MachineConfig
mpConfig(std::uint64_t txns = 60)
{
    MachineConfig cfg = uniConfig(txns);
    cfg.name = "test-mp";
    cfg.numCpus = 4;
    return cfg;
}

TEST(Machine, UniprocessorRunCompletes)
{
    setQuiet(true);
    Machine m(uniConfig());
    const RunResult r = m.run();
    EXPECT_EQ(r.transactions, 60u);
    EXPECT_TRUE(r.dbConsistent);
    EXPECT_GT(r.stat("cpu.instructions"), 0u);
    EXPECT_GT(r.stat("cpu.exec_time"), 0u);
    EXPECT_GT(r.wallTime, 0u);
    EXPECT_GT(r.stat("l2.miss.total"), 0u);
    EXPECT_GT(r.tps(), 0.0);
    // Uniprocessor: no remote misses at all.
    EXPECT_EQ(r.stat("l2.miss.remote_clean"), 0u);
    EXPECT_EQ(r.stat("l2.miss.remote_dirty"), 0u);
    EXPECT_EQ(r.stat("cpu.remote_stall") + r.stat("cpu.remote_dirty_stall"),
              0u);
    m.memSys().checkInvariants();
}

TEST(Machine, MultiprocessorHasCommunication)
{
    setQuiet(true);
    Machine m(mpConfig());
    const RunResult r = m.run();
    EXPECT_EQ(r.transactions, 60u);
    EXPECT_TRUE(r.dbConsistent);
    EXPECT_GT(r.stat("l2.miss.remote_clean"), 0u);
    EXPECT_GT(r.stat("l2.miss.remote_dirty"), 0u);
    EXPECT_GT(r.stat("l2.invals_sent"), 0u);
    EXPECT_GT(r.stat("cpu.remote_stall") + r.stat("cpu.remote_dirty_stall"),
              0u);
    m.memSys().checkInvariants();
}

TEST(Machine, DeterministicAcrossIdenticalRuns)
{
    setQuiet(true);
    Machine a(mpConfig());
    Machine b(mpConfig());
    const RunResult ra = a.run();
    const RunResult rb = b.run();
    EXPECT_EQ(ra.stat("cpu.instructions"), rb.stat("cpu.instructions"));
    EXPECT_EQ(ra.stat("cpu.exec_time"), rb.stat("cpu.exec_time"));
    EXPECT_EQ(ra.wallTime, rb.wallTime);
    EXPECT_EQ(ra.stat("l2.miss.total"), rb.stat("l2.miss.total"));
    EXPECT_EQ(ra.stat("l2.miss.remote_dirty"),
              rb.stat("l2.miss.remote_dirty"));
    EXPECT_EQ(ra.stat("l2.invals_sent"), rb.stat("l2.invals_sent"));
}

TEST(Machine, SeedChangesResults)
{
    setQuiet(true);
    MachineConfig c1 = mpConfig(), c2 = mpConfig();
    c2.workload.seed ^= 0x1234;
    const RunResult r1 = Machine(c1).run();
    const RunResult r2 = Machine(c2).run();
    EXPECT_NE(r1.stat("cpu.exec_time"), r2.stat("cpu.exec_time"));
}

TEST(Machine, KernelShareInPlausibleRange)
{
    setQuiet(true);
    Machine m(uniConfig(150));
    const RunResult r = m.run();
    // Paper: the kernel is ~25% of execution time for OLTP.
    EXPECT_GT(r.stat("cpu.kernel_frac"), 0.10);
    EXPECT_LT(r.stat("cpu.kernel_frac"), 0.45);
}

TEST(Machine, WarmupExcludedFromMeasurement)
{
    setQuiet(true);
    MachineConfig cfg = uniConfig(90);
    Machine m(cfg);
    const RunResult r = m.run();
    // Measured transactions only (engine committed warmup + measured).
    EXPECT_EQ(r.transactions, 90u);
    EXPECT_EQ(m.engine().committedTransactions(),
              90u + cfg.workload.warmupTransactions);
}

TEST(Machine, ReplicationLocalizesInstructionMisses)
{
    setQuiet(true);
    MachineConfig plain = mpConfig(100);
    MachineConfig repl = mpConfig(100);
    repl.replicateCode = true;
    // Small L2 so instruction misses exist at all.
    plain.l2 = repl.l2 = CacheGeometry{256 * kib, 2, 64};
    const RunResult rp = Machine(plain).run();
    const RunResult rr = Machine(repl).run();
    EXPECT_GT(rp.stat("l2.miss.instr_remote"), 0u);
    // With per-node text copies, instruction misses are local.
    EXPECT_EQ(rr.stat("l2.miss.instr_remote"), 0u);
    EXPECT_GT(rr.stat("l2.miss.instr_local"), 0u);
}

TEST(Machine, RacMachineRunsAndFiltersRemoteTraffic)
{
    setQuiet(true);
    MachineConfig norac = mpConfig(100);
    MachineConfig withrac = mpConfig(100);
    norac.level = withrac.level = IntegrationLevel::FullInt;
    norac.l2Impl = withrac.l2Impl = L2Impl::OnchipSram;
    norac.l2 = withrac.l2 = CacheGeometry{256 * kib, 2, 64};
    withrac.rac = true;
    withrac.racGeom = CacheGeometry{4 * mib, 8, 64};
    const RunResult rn = Machine(norac).run();
    const RunResult rw = Machine(withrac).run();
    // hits / lookups: positive only when both counts are.
    EXPECT_GT(rw.stat("rac.hit_rate"), 0.0);
    // RAC hits convert remote misses into local ones (Figure 11).
    const auto local_share = [](const RunResult &r) {
        return (r.stat("l2.miss.instr_local") + r.stat("l2.miss.local")) /
               r.stat("l2.miss.total");
    };
    const double local_share_n = local_share(rn);
    const double local_share_w = local_share(rw);
    EXPECT_GT(local_share_w, local_share_n);
}

TEST(Machine, OooModelRuns)
{
    setQuiet(true);
    MachineConfig cfg = uniConfig(80);
    cfg.cpuModel = CpuModel::OutOfOrder;
    Machine m(cfg);
    const RunResult r = m.run();
    EXPECT_EQ(r.transactions, 80u);
    EXPECT_TRUE(r.dbConsistent);
    EXPECT_GT(r.stat("cpu.busy"), 0u);
}

TEST(Machine, SnapshotAggregatesAllCpus)
{
    setQuiet(true);
    Machine m(mpConfig());
    m.run();
    CpuStats manual;
    for (NodeId n = 0; n < 4; ++n)
        manual += m.cpu(n).stats();
    const RunResult snap = m.snapshot();
    EXPECT_EQ(snap.stat("cpu.instructions"), manual.instructions);
    EXPECT_EQ(snap.stat("cpu.busy"), manual.busy);
    EXPECT_EQ(snap.stat("cpu.exec_time"), manual.nonIdle());
    EXPECT_EQ(snap.stat("l2.miss.total"),
              m.memSys().aggregateStats().totalL2Misses());
}

TEST(MachineDeathTest, InvalidLevelImplComboIsFatal)
{
    MachineConfig cfg = uniConfig();
    cfg.level = IntegrationLevel::Base;
    cfg.l2Impl = L2Impl::OnchipSram;
    EXPECT_EXIT(Machine m(cfg), ::testing::ExitedWithCode(1),
                "cannot use");
}

// Machines built in code pass the same validate() as parsed configs:
// each bad field is a fatal naming its key, not a SIGFPE or an abort.
TEST(MachineDeathTest, ZeroCoresPerNodeIsFatal)
{
    MachineConfig cfg = uniConfig();
    cfg.coresPerNode = 0;
    EXPECT_EXIT(Machine m(cfg), ::testing::ExitedWithCode(1),
                "config key 'machine.cores_per_node': must be >= 1");
}

TEST(MachineDeathTest, ZeroSizeL2IsFatal)
{
    MachineConfig cfg = uniConfig();
    cfg.l2 = CacheGeometry{0, 1, 64};
    EXPECT_EXIT(Machine m(cfg), ::testing::ExitedWithCode(1),
                "config keys 'machine.l2.size' = 0, 'machine.l2.assoc' = "
                "1: the size must be a nonzero multiple");
}

TEST(MachineDeathTest, IndivisibleL2IsFatal)
{
    MachineConfig cfg = uniConfig();
    cfg.l2 = CacheGeometry{64 * kib, 3, 64};
    EXPECT_EXIT(Machine m(cfg), ::testing::ExitedWithCode(1),
                "config keys 'machine.l2.size' = 65536, "
                "'machine.l2.assoc' = 3:");
}

TEST(MachineDeathTest, RacLineOtherThanL1LineIsFatal)
{
    MachineConfig cfg = uniConfig();
    cfg.rac = true;
    cfg.racGeom.lineBytes = 128;
    EXPECT_EXIT(Machine m(cfg), ::testing::ExitedWithCode(1),
                "config keys 'machine.rac.size', 'machine.rac.assoc': the "
                "cache has 128-byte lines, but the model fixes every line "
                "at the 64-byte L1 line");
}

} // namespace
} // namespace isim
