/**
 * @file
 * Tests for the experiment harness: environment overrides, figure
 * running, and normalization plumbing.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "src/base/logging.hh"
#include "src/core/experiment.hh"
#include "src/core/figures.hh"

namespace isim {
namespace {

WorkloadParams
smallWorkload()
{
    WorkloadParams p;
    p.branches = 8;
    p.accountsPerBranch = 10000;
    p.blockBufferBytes = 64 * mib;
    p.transactions = 40;
    p.warmupTransactions = 15;
    return p;
}

class EnvGuard
{
  public:
    EnvGuard(const char *key, const char *value) : key_(key)
    {
        ::setenv(key, value, 1);
    }
    ~EnvGuard() { ::unsetenv(key_); }

  private:
    const char *key_;
};

TEST(Experiment, EnvOverridesApply)
{
    EnvGuard txns("ISIM_TXNS", "123");
    EnvGuard warm("ISIM_WARMUP", "45");
    WorkloadParams p;
    ExperimentRunner::applyEnvOverrides(p);
    EXPECT_EQ(p.transactions, 123u);
    EXPECT_EQ(p.warmupTransactions, 45u);
}

TEST(Experiment, EnvOverridesIgnoreGarbage)
{
    EnvGuard txns("ISIM_TXNS", "not-a-number");
    WorkloadParams p;
    const std::uint64_t before = p.transactions;
    ExperimentRunner::applyEnvOverrides(p);
    EXPECT_EQ(p.transactions, before);
}

TEST(Experiment, RunOneProducesConsistentResult)
{
    setQuiet(true);
    MachineConfig cfg = figures::baseMachine(1);
    cfg.workload = smallWorkload();
    ExperimentRunner runner(/*verbose=*/false);
    const RunResult r = runner.runOne(cfg);
    EXPECT_EQ(r.transactions, 40u);
    EXPECT_TRUE(r.dbConsistent);
    EXPECT_EQ(r.name, cfg.name);
}

TEST(Experiment, RunFigureKeepsBarOrder)
{
    setQuiet(true);
    FigureSpec spec;
    spec.id = "test";
    spec.title = "ordering";
    for (const unsigned cpus : {1u, 2u}) {
        FigureBar bar;
        bar.config = figures::baseMachine(cpus);
        bar.config.workload = smallWorkload();
        bar.config.name = "cpus" + std::to_string(cpus);
        spec.bars.push_back(bar);
    }
    ExperimentRunner runner(/*verbose=*/false);
    const FigureResult result = runner.run(spec);
    ASSERT_EQ(result.runs.size(), 2u);
    EXPECT_EQ(result.runs[0].name, "cpus1");
    EXPECT_EQ(result.runs[1].name, "cpus2");
}

TEST(Experiment, IdenticalConfigsGiveIdenticalRuns)
{
    setQuiet(true);
    MachineConfig cfg = figures::baseMachine(2);
    cfg.workload = smallWorkload();
    ExperimentRunner runner(/*verbose=*/false);
    const RunResult a = runner.runOne(cfg);
    const RunResult b = runner.runOne(cfg);
    EXPECT_EQ(a.stat("cpu.exec_time"), b.stat("cpu.exec_time"));
    EXPECT_EQ(a.stat("l2.miss.total"), b.stat("l2.miss.total"));
}

} // namespace
} // namespace isim
