/**
 * @file
 * Tests for the experiment harness: figure running, bar order,
 * determinism, and the driver's JSON output.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "src/base/logging.hh"
#include "src/campaign/worker.hh"
#include "src/core/experiment.hh"
#include "src/core/figures.hh"
#include "src/core/report.hh"

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

std::string
scratchPath(const std::string &name)
{
    return ::testing::TempDir() + "/" + name;
}

/** Explicit options, no progress lines. */
RunOptions
quietOptions()
{
    RunOptions opts;
    opts.verbose = false;
    return opts;
}

/** Run one machine as a one-bar figure. */
RunResult
runMachine(const MachineConfig &config)
{
    FigureSpec spec;
    spec.bars.push_back({config, std::nullopt, std::nullopt});
    return runFigures({spec}, quietOptions()).front().runs.front();
}

TEST(Experiment, RunOneProducesConsistentResult)
{
    setQuiet(true);
    MachineConfig cfg = figures::baseMachine(1);
    cfg.workload = smallWorkload();
    const RunResult r = runMachine(cfg);
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
    const FigureResult result = runFigures({spec}, quietOptions()).front();
    ASSERT_EQ(result.runs.size(), 2u);
    EXPECT_EQ(result.runs[0].name, "cpus1");
    EXPECT_EQ(result.runs[1].name, "cpus2");
}

TEST(Experiment, IdenticalConfigsGiveIdenticalRuns)
{
    setQuiet(true);
    MachineConfig cfg = figures::baseMachine(2);
    cfg.workload = smallWorkload();
    const RunResult a = runMachine(cfg);
    const RunResult b = runMachine(cfg);
    EXPECT_EQ(a.stat("cpu.exec_time"), b.stat("cpu.exec_time"));
    EXPECT_EQ(a.stat("l2.miss.total"), b.stat("l2.miss.total"));
}

FigureSpec
oneBarSpec()
{
    FigureSpec spec;
    spec.id = "test";
    spec.title = "json dir";
    FigureBar bar;
    bar.config = figures::baseMachine(1);
    bar.config.workload = smallWorkload();
    bar.config.name = "uni";
    spec.bars.push_back(bar);
    return spec;
}

RunOptions
quietOneJob(const std::string &json_dir)
{
    RunOptions opts = quietOptions();
    opts.jobs = 1;
    opts.jsonDir = json_dir;
    return opts;
}

TEST(Experiment, JsonDirIsCreatedWithItsParents)
{
    const std::string root = scratchPath("isim_json_nested");
    std::filesystem::remove_all(root);
    const std::string dir = root + "/a/b";
    const FigureSpec spec = oneBarSpec();
    ::testing::internal::CaptureStdout();
    const RunOptions opts = quietOneJob(dir);
    printFigure(runFigures({spec}, opts).front(), opts);
    ::testing::internal::GetCapturedStdout();
    const std::string stem = dir + "/" + figureJsonStem(spec);
    EXPECT_TRUE(std::filesystem::is_regular_file(stem + ".json"));
    EXPECT_TRUE(std::filesystem::is_regular_file(stem + ".stats.json"));
    std::filesystem::remove_all(root);
}

TEST(Experiment, UncreatableJsonDirFailsBeforeAnyBar)
{
    // A regular file stands where the JSON directory's parent must go.
    const std::string blocker = scratchPath("isim_json_blocker");
    std::filesystem::remove_all(blocker);
    std::ofstream(blocker) << "not a directory\n";
    const std::string dir = blocker + "/json";
    ScopedPanicThrow throws;
    ::testing::internal::CaptureStdout();
    try {
        runFigures({oneBarSpec()}, quietOneJob(dir));
        ADD_FAILURE() << "an uncreatable --json-dir was accepted";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find(dir), std::string::npos)
            << e.what();
    }
    // No bar ran, so no report was printed.
    EXPECT_EQ(::testing::internal::GetCapturedStdout(), "");
    std::filesystem::remove(blocker);
}

TEST(Experiment, IdenticalBarsRunOnceAndShareTheirResult)
{
    setQuiet(true);
    FigureSpec spec = oneBarSpec();
    spec.bars.push_back(spec.bars.front());

    // The plan leases the first bar and makes the second its alias.
    const campaign::CampaignPlan plan =
        campaign::planFigures({spec}, quietOptions());
    campaign::CampaignQueue queue(plan, "");
    int leases = 0;
    campaign::runLeases(queue, 1, -1,
                        [&](const campaign::Lease &) { ++leases; });
    EXPECT_EQ(leases, 1);
    EXPECT_EQ(queue.tally().ran, 1u);
    EXPECT_EQ(queue.tally().aliases, 1u);

    // The alias carries its primary's result, byte for byte.
    const FigureResult result = runFigures({spec}, quietOptions()).front();
    ASSERT_EQ(result.runs.size(), 2u);
    FigureResult first = result;
    FigureResult second = result;
    first.runs.pop_back();
    second.runs.erase(second.runs.begin());
    EXPECT_EQ(figureStatsJson(first), figureStatsJson(second));
    EXPECT_EQ(figureToJson(first), figureToJson(second));
}

TEST(Experiment, CheckpointPathCollisionIsFatalBeforeAnyBar)
{
    // Two bars named alike but configured differently would write one
    // image file; the plan refuses them before anything runs.
    const std::string dir = scratchPath("isim_ckpt_collision");
    std::filesystem::remove_all(dir);
    FigureSpec spec = oneBarSpec();
    spec.bars.push_back(spec.bars.front());
    spec.bars[1].config.l2.assoc = 2;
    RunOptions opts = quietOptions();
    opts.saveCkptDir = dir;
    const ScopedPanicThrow throws;
    try {
        runFigures({spec}, opts);
        ADD_FAILURE() << "two bars were allowed one checkpoint path";
    } catch (const PanicError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'test:uni' and 'test:uni'"), std::string::npos)
            << what;
        EXPECT_NE(what.find(checkpointPath(dir, "uni")), std::string::npos)
            << what;
    }
    EXPECT_FALSE(std::filesystem::exists(dir));
}

} // namespace
} // namespace isim
