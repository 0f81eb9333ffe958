/**
 * @file
 * Tests for RunOptions: command-line flags, workload application, and
 * the global audit-period wiring.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/logging.hh"
#include "src/config/run_options.hh"
#include "src/verify/invariants.hh"

namespace isim {
namespace {

/** Mutable argv for fromCommandLine (which rewrites it). */
class Args
{
  public:
    explicit Args(std::vector<std::string> args)
    {
        storage_ = std::move(args);
        storage_.insert(storage_.begin(), "prog");
        for (std::string &arg : storage_)
            argv_.push_back(arg.data());
        argc_ = static_cast<int>(argv_.size());
    }

    int &argc() { return argc_; }
    char **argv() { return argv_.data(); }
    /** Arguments left after parsing (excluding argv[0]). */
    std::vector<std::string> rest() const
    {
        std::vector<std::string> out;
        for (int i = 1; i < argc_; ++i)
            out.emplace_back(argv_[i]);
        return out;
    }

  private:
    std::vector<std::string> storage_;
    std::vector<char *> argv_;
    int argc_ = 0;
};

TEST(RunOptions, DefaultsAreInert)
{
    const RunOptions opts;
    EXPECT_FALSE(opts.txns);
    EXPECT_FALSE(opts.warmup);
    EXPECT_FALSE(opts.seed);
    EXPECT_TRUE(opts.jsonDir.empty());
    EXPECT_EQ(opts.jobs, 0u);
    EXPECT_EQ(opts.auditPeriod, std::uint64_t{1} << 20);
    EXPECT_TRUE(opts.verbose);
    EXPECT_FALSE(opts.obs.wantsEvents());

    WorkloadParams params;
    const WorkloadParams before = params;
    opts.applyTo(params);
    EXPECT_EQ(params.transactions, before.transactions);
    EXPECT_EQ(params.warmupTransactions, before.warmupTransactions);
    EXPECT_EQ(params.seed, before.seed);
}

// Each of the fifteen run knobs has one input: its flag.
TEST(RunOptions, FlagsSetEveryRunKnob)
{
    Args args({"--txns=222", "--warmup", "99", "--seed", "5",
               "--json-dir=/tmp/j", "--jobs", "4", "--audit-period=512",
               "--stats-out", "s.json", "--stats-epoch=100000",
               "--save-ckpt", "save", "--from-ckpt=from",
               "--sample-ff", "66", "--sample-measure=9",
               "--sample-windows", "8", "--sample-warm=4",
               "--sample-mode", "random", "--quiet"});
    const RunOptions opts =
        RunOptions::fromCommandLine(args.argc(), args.argv());
    EXPECT_EQ(opts.txns, 222u);
    EXPECT_EQ(opts.warmup, 99u);
    EXPECT_EQ(opts.seed, 5u);
    EXPECT_EQ(opts.jsonDir, "/tmp/j");
    EXPECT_EQ(opts.jobs, 4u);
    EXPECT_EQ(opts.auditPeriod, 512u);
    EXPECT_EQ(opts.statsOut, "s.json");
    EXPECT_EQ(opts.statsEpochTicks, 100000u);
    EXPECT_EQ(opts.saveCkptDir, "save");
    EXPECT_EQ(opts.fromCkptDir, "from");
    EXPECT_EQ(opts.sample.ff, 66u);
    EXPECT_EQ(opts.sample.measure, 9u);
    EXPECT_EQ(opts.sample.windows, 8u);
    EXPECT_EQ(opts.sample.warm, 4u);
    EXPECT_EQ(opts.sample.mode, sample::SampleMode::Random);
    EXPECT_FALSE(opts.verbose);
    EXPECT_TRUE(args.rest().empty()); // everything was consumed
}

TEST(RunOptionsDeathTest, OutOfRangeFlagIsFatal)
{
    // strtoull clamps to 2^64-1 on overflow; the flag must not.
    Args args({"--txns", "99999999999999999999"});
    EXPECT_EXIT(RunOptions::fromCommandLine(args.argc(), args.argv()),
                ::testing::ExitedWithCode(1),
                "--txns: expected an unsigned integer");
}

TEST(RunOptions, ProcsFlagIsFatalAndNamesJobs)
{
    // Campaigns run their leases on --jobs threads; the retired
    // worker-process flag must say so rather than be ignored.
    ScopedPanicThrow guard;
    Args args({"--procs", "2"});
    try {
        RunOptions::fromCommandLine(args.argc(), args.argv());
        ADD_FAILURE() << "--procs was accepted";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("--jobs"),
                  std::string::npos)
            << e.what();
    }
}

TEST(RunOptions, BothFlagFormsParse)
{
    Args args({"--txns", "10", "--warmup=20", "--audit-period", "64"});
    const RunOptions opts =
        RunOptions::fromCommandLine(args.argc(), args.argv());
    EXPECT_EQ(opts.txns, 10u);
    EXPECT_EQ(opts.warmup, 20u);
    EXPECT_EQ(opts.auditPeriod, 64u);
}

TEST(RunOptions, UnrecognizedArgumentsSurviveInOrder)
{
    Args args({"run", "--txns=5", "fig10", "--jobs=2", "extra"});
    const RunOptions opts =
        RunOptions::fromCommandLine(args.argc(), args.argv());
    EXPECT_EQ(opts.txns, 5u);
    EXPECT_EQ(opts.jobs, 2u);
    const std::vector<std::string> rest = args.rest();
    ASSERT_EQ(rest.size(), 3u);
    EXPECT_EQ(rest[0], "run");
    EXPECT_EQ(rest[1], "fig10");
    EXPECT_EQ(rest[2], "extra");
}

TEST(RunOptions, ObsFlagsFoldIn)
{
    Args args({"--trace-bin=/tmp/t.bin", "--trace-bar=2", "--txns=7"});
    const RunOptions opts =
        RunOptions::fromCommandLine(args.argc(), args.argv());
    EXPECT_EQ(opts.obs.traceBinPath, "/tmp/t.bin");
    EXPECT_EQ(opts.obs.traceBar, 2u);
    EXPECT_TRUE(opts.obs.wantsEvents());
    EXPECT_EQ(opts.txns, 7u);
}

// The capture flags take `--flag VALUE` as well as `--flag=VALUE`, like
// every other run option, and both forms give the same configuration.
TEST(RunOptions, ObsFlagsTakeBothForms)
{
    Args joined({"run", "--trace-bin=t.bin", "--trace-ring=1024",
                 "--trace-bar=3", "fig02"});
    Args spaced({"run", "--trace-bin", "t.bin", "--trace-ring", "1024",
                 "--trace-bar", "3", "fig02"});
    const obs::ObsConfig a =
        RunOptions::fromCommandLine(joined.argc(), joined.argv()).obs;
    const obs::ObsConfig b =
        RunOptions::fromCommandLine(spaced.argc(), spaced.argv()).obs;
    EXPECT_EQ(a.traceBinPath, "t.bin");
    EXPECT_EQ(a.ringCapacity, 1024u);
    EXPECT_EQ(a.traceBar, 3u);
    EXPECT_EQ(b.traceBinPath, a.traceBinPath);
    EXPECT_EQ(b.ringCapacity, a.ringCapacity);
    EXPECT_EQ(b.traceBar, a.traceBar);
    const std::vector<std::string> left = {"run", "fig02"};
    EXPECT_EQ(joined.rest(), left);
    EXPECT_EQ(spaced.rest(), left);
}

TEST(RunOptionsDeathTest, TrailingCaptureFlagNeedsAValue)
{
    Args args({"run", "fig02", "--trace-bin"});
    EXPECT_EXIT(RunOptions::fromCommandLine(args.argc(), args.argv()),
                ::testing::ExitedWithCode(1), "--trace-bin needs a value");
}

// Each retired flag wrote a rendering of an artifact the run already
// writes; it is fatal and names the command that renders it now.
TEST(RunOptionsDeathTest, TraceOutIsGoneForItraceChrome)
{
    Args args({"run", "fig02", "--trace-out=t.json"});
    EXPECT_EXIT(RunOptions::fromCommandLine(args.argc(), args.argv()),
                ::testing::ExitedWithCode(1),
                "--trace-out is gone: .*--trace-bin.*itrace chrome");
}

TEST(RunOptionsDeathTest, TimelineOutIsGoneForIsimStatTimeline)
{
    Args args({"run", "fig02", "--timeline-out", "tl.csv"});
    EXPECT_EXIT(RunOptions::fromCommandLine(args.argc(), args.argv()),
                ::testing::ExitedWithCode(1),
                "--timeline-out is gone: .*--stats-epoch.*isim-stat "
                "timeline");
}

TEST(RunOptionsDeathTest, EpochIsGoneForStatsEpoch)
{
    Args args({"--stats-epoch=200000", "--epoch=200000"});
    EXPECT_EXIT(RunOptions::fromCommandLine(args.argc(), args.argv()),
                ::testing::ExitedWithCode(1),
                "--epoch is gone: --stats-epoch");
}

TEST(RunOptions, ApplyToOverridesWorkload)
{
    RunOptions opts;
    opts.txns = 17;
    opts.warmup = 3;
    opts.seed = 42;
    WorkloadParams params;
    opts.applyTo(params);
    EXPECT_EQ(params.transactions, 17u);
    EXPECT_EQ(params.warmupTransactions, 3u);
    EXPECT_EQ(params.seed, 42u);
}

TEST(RunOptions, EffectiveJobsClampsToWork)
{
    RunOptions opts;
    opts.jobs = 4;
    EXPECT_EQ(opts.effectiveJobs(2), 2u);
    EXPECT_EQ(opts.effectiveJobs(8), 4u);
    EXPECT_EQ(opts.effectiveJobs(0), 1u);
    opts.jobs = 0; // auto: one per hardware thread, at least one
    EXPECT_GE(opts.effectiveJobs(64), 1u);
}

TEST(RunOptions, ApplyGlobalWiresQuietToVerbose)
{
    const bool before = quiet();
    RunOptions opts;
    opts.verbose = false; // what --quiet sets
    opts.applyGlobal();
    EXPECT_TRUE(quiet());
    opts.verbose = true;
    opts.applyGlobal();
    EXPECT_FALSE(quiet());
    setQuiet(before);
}

TEST(RunOptions, ApplyGlobalInstallsAuditPeriod)
{
    const std::uint64_t before = verify::auditPeriod();
    RunOptions opts;
    opts.auditPeriod = 4096;
    opts.applyGlobal();
    EXPECT_EQ(verify::auditPeriod(), 4096u);
    verify::setAuditPeriod(0); // restore the default
    EXPECT_EQ(verify::auditPeriod(), before);
}

} // namespace
} // namespace isim
