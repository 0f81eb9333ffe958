/**
 * @file
 * Sampled-simulation tests (docs/SAMPLING.md): the interval-batch
 * estimator's statistical contract (a CI that actually covers the
 * true mean, zero width on constant streams, NaN hygiene), fail-fast
 * rejection of degenerate schedules, bit-identical sampled results
 * across --jobs and across checkpoint save/resume, byte-identical
 * campaign resume for sampled cells, and the accuracy regression the
 * whole feature is sold on — a sampled run's CPI lands within its own
 * 95% CI of the full-timing value, and a CI-aware manifest diff
 * against the exact run exits clean — and the sampled pipeline's
 * smoke gate on fig05: at least 2x cheaper, with every bar's CPI
 * inside its CI or within 8% of the exact run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/json.hh"
#include "src/base/logging.hh"
#include "src/base/random.hh"
#include "src/campaign/supervisor.hh"
#include "src/core/experiment.hh"
#include "src/core/figures.hh"
#include "src/core/machine.hh"
#include "src/core/registry.hh"
#include "src/core/report.hh"
#include "src/sample/controller.hh"
#include "src/sample/estimator.hh"
#include "src/sample/spec.hh"
#include "src/stats/manifest.hh"
#include "src/stats/registry.hh"
#include "tests/host_meter.hh"

namespace isim {
namespace {

const double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------
// Estimator
// ---------------------------------------------------------------------

TEST(Estimator, TCriticalTableMatchesStandardValues)
{
    EXPECT_TRUE(std::isnan(sample::tCritical95(0)));
    EXPECT_NEAR(sample::tCritical95(1), 12.706, 1e-9);
    EXPECT_NEAR(sample::tCritical95(4), 2.776, 1e-9);
    EXPECT_NEAR(sample::tCritical95(30), 2.042, 1e-9);
    // Normal approximation past the table.
    EXPECT_NEAR(sample::tCritical95(31), 1.960, 1e-9);
    EXPECT_NEAR(sample::tCritical95(10000), 1.960, 1e-9);
}

TEST(Estimator, KnownStreamYieldsTextbookMeanSemCi)
{
    const sample::MeanCi mc = sample::meanCi({1, 2, 3, 4, 5});
    EXPECT_EQ(mc.n, 5u);
    EXPECT_DOUBLE_EQ(mc.mean, 3.0);
    // s^2 = 2.5, sem = sqrt(2.5 / 5), ci95 = t(4) * sem.
    EXPECT_NEAR(mc.sem, std::sqrt(0.5), 1e-12);
    EXPECT_NEAR(mc.ci95, 2.776 * std::sqrt(0.5), 1e-12);
}

TEST(Estimator, ConstantStreamHasExactlyZeroWidthCi)
{
    const sample::MeanCi mc =
        sample::meanCi({42.5, 42.5, 42.5, 42.5, 42.5, 42.5});
    EXPECT_EQ(mc.n, 6u);
    EXPECT_DOUBLE_EQ(mc.mean, 42.5);
    // Exactly zero, not merely small: a deterministic per-window
    // value must report a zero-width interval, because diff --ci
    // treats the CI as a hard bound.
    EXPECT_EQ(mc.sem, 0.0);
    EXPECT_EQ(mc.ci95, 0.0);
}

TEST(Estimator, NonFiniteObservationsAreDropped)
{
    const double inf = std::numeric_limits<double>::infinity();
    const sample::MeanCi mc = sample::meanCi({2.0, kNaN, 4.0, inf});
    EXPECT_EQ(mc.n, 2u);
    EXPECT_DOUBLE_EQ(mc.mean, 3.0);
    EXPECT_TRUE(std::isfinite(mc.ci95));
}

TEST(Estimator, DegenerateCountsYieldNaNNotGarbage)
{
    const sample::MeanCi none = sample::meanCi({});
    EXPECT_EQ(none.n, 0u);
    EXPECT_TRUE(std::isnan(none.mean));
    EXPECT_TRUE(std::isnan(none.ci95));

    // One observation has no variance estimate: NaN, never 0 (a zero
    // CI would claim certainty the estimator does not have).
    const sample::MeanCi one = sample::meanCi({7.0});
    EXPECT_EQ(one.n, 1u);
    EXPECT_DOUBLE_EQ(one.mean, 7.0);
    EXPECT_TRUE(std::isnan(one.sem));
    EXPECT_TRUE(std::isnan(one.ci95));

    const sample::MeanCi allNaN = sample::meanCi({kNaN, kNaN});
    EXPECT_EQ(allNaN.n, 0u);
    EXPECT_TRUE(std::isnan(allNaN.mean));
}

TEST(Estimator, CiCoversTrueMeanInAtLeast90Of100Trials)
{
    // The statistical contract: over repeated seeded experiments on a
    // known distribution (uniform [0,1), true mean 0.5), the 95% CI
    // must cover the true mean in >= 90 of 100 trials. Seeds are
    // fixed, so this is deterministic — but the margin below the
    // nominal 95% documents how much slack the t-approximation gets.
    unsigned covered = 0;
    for (std::uint64_t trial = 0; trial < 100; ++trial) {
        Rng rng(mix64(0xc1c0ffee + trial));
        std::vector<double> xs;
        for (int i = 0; i < 24; ++i)
            xs.push_back(rng.uniform());
        const sample::MeanCi mc = sample::meanCi(xs);
        ASSERT_TRUE(std::isfinite(mc.ci95));
        if (std::abs(mc.mean - 0.5) <= mc.ci95)
            ++covered;
    }
    EXPECT_GE(covered, 90u) << "CI coverage collapsed: " << covered
                            << "/100";
}

// ---------------------------------------------------------------------
// Spec validation and plan derivation
// ---------------------------------------------------------------------

TEST(SampleSpec, DegenerateConfigurationsFailFast)
{
    ScopedPanicThrow guard;

    // measure without ff: a "sampled" run that fast-forwards nothing.
    sample::SampleSpec noFf;
    noFf.measure = 10;
    EXPECT_THROW(noFf.validate(), PanicError);

    // ff without measure: sampling knobs with no windows to measure.
    sample::SampleSpec noMeasure;
    noMeasure.ff = 100;
    EXPECT_THROW(noMeasure.validate(), PanicError);

    // A single window has no variance, hence no CI.
    sample::SampleSpec oneWindow;
    oneWindow.ff = 100;
    oneWindow.measure = 10;
    oneWindow.windows = 1;
    EXPECT_THROW(oneWindow.validate(), PanicError);

    // The warm tier is part of the fast-forward; it cannot exceed it.
    sample::SampleSpec longWarm;
    longWarm.ff = 10;
    longWarm.measure = 10;
    longWarm.warm = 11;
    EXPECT_THROW(longWarm.validate(), PanicError);

    // All-defaults (disabled) and a sane spec both pass.
    sample::SampleSpec off;
    off.validate();
    sample::SampleSpec ok;
    ok.ff = 30;
    ok.measure = 10;
    ok.validate();
}

TEST(SamplePlan, DerivesWindowsAndWarmFromTheRun)
{
    sample::SampleSpec spec;
    spec.ff = 6;
    spec.measure = 2;
    const sample::SamplePlan plan = sample::derivePlan(spec, 33);
    EXPECT_EQ(plan.windows, 4u); // 33 / (6 + 2)
    EXPECT_EQ(plan.warm, 2u);    // auto: min(ff, measure)
    EXPECT_EQ(plan.ff, 6u);
    EXPECT_EQ(plan.measure, 2u);
}

TEST(SamplePlan, SchedulesThatCannotFitAreFatal)
{
    ScopedPanicThrow guard;

    // Fewer than 2 windows fit the run.
    sample::SampleSpec tight;
    tight.ff = 10;
    tight.measure = 10;
    EXPECT_THROW(sample::derivePlan(tight, 30), PanicError);

    // An explicit window count that overflows the run.
    sample::SampleSpec over;
    over.ff = 10;
    over.measure = 10;
    over.windows = 4;
    EXPECT_THROW(sample::derivePlan(over, 70), PanicError);
}

// ---------------------------------------------------------------------
// Sampled runs: determinism and reporting
// ---------------------------------------------------------------------

/** Two-CPU small-cache machine; cheap, with coherence live. */
MachineConfig
sampleTestConfig(std::uint64_t seed, std::uint64_t txns = 200,
                 std::uint64_t warmup = 20)
{
    MachineConfig cfg;
    cfg.name = "sample-test";
    cfg.numCpus = 2;
    cfg.l2 = CacheGeometry{512 * kib, 2, 64};
    cfg.l2Impl = L2Impl::OffchipAssoc;
    cfg.workload.branches = 8;
    cfg.workload.accountsPerBranch = 10000;
    cfg.workload.blockBufferBytes = 64 * mib;
    cfg.workload.transactions = txns;
    cfg.workload.warmupTransactions = warmup;
    cfg.workload.seed = seed;
    return cfg;
}

sample::SampleSpec
smallSampleSpec()
{
    sample::SampleSpec spec;
    spec.ff = 15;
    spec.measure = 5;
    return spec;
}

TEST(SampledRun, ReportsScheduleCoverageAndPerStatBounds)
{
    setQuiet(true);
    Machine m(sampleTestConfig(7));
    m.runWarmup();
    sample::SampleController controller(m, smallSampleSpec());
    const RunResult r = controller.run();

    EXPECT_TRUE(r.dbConsistent);
    ASSERT_TRUE(r.sampling.enabled);
    EXPECT_EQ(r.sampling.ff, 15u);
    EXPECT_EQ(r.sampling.measure, 5u);
    EXPECT_EQ(r.sampling.warm, 5u);     // auto: min(ff, measure)
    EXPECT_EQ(r.sampling.windows, 10u); // 200 / (15 + 5)
    EXPECT_EQ(r.sampling.covered, r.sampling.windows * 5u);

    // Every stat of the snapshot carries a bounds entry, sorted so
    // find() can binary-search.
    ASSERT_FALSE(r.sampling.stats.empty());
    for (std::size_t i = 1; i < r.sampling.stats.size(); ++i)
        EXPECT_LT(r.sampling.stats[i - 1].name,
                  r.sampling.stats[i].name);
    const sample::StatCi *cpi = r.sampling.find("cpu.cpi");
    ASSERT_NE(cpi, nullptr);
    EXPECT_TRUE(std::isfinite(cpi->ci95));
    EXPECT_EQ(r.sampling.find("no.such.stat"), nullptr);

    // The expanded committed count is the full run, not the sampled
    // fraction: downstream consumers (figure tables, campaign merge)
    // must not need to know the run was sampled.
    EXPECT_EQ(r.transactions, 200u);
}

/** One-bar figure spec around sampleTestConfig. */
FigureSpec
oneBarSpec(std::uint64_t seed, std::uint64_t txns)
{
    FigureSpec spec;
    spec.id = "test-sampling";
    spec.title = "sampled determinism";
    FigureBar bar;
    bar.config = sampleTestConfig(seed, txns);
    spec.bars.push_back(bar);
    return spec;
}

TEST(SampledRun, JobCountDoesNotChangeTheManifest)
{
    setQuiet(true);
    // Four sampled bars, --jobs 1 vs 4: figure JSON and the stats
    // manifest (sampling blocks included) must be bit-identical. The
    // schedule derives from the workload seed and window index alone,
    // never from scheduling order.
    FigureSpec spec;
    spec.id = "test-sampling-jobs";
    spec.title = "sampled jobs determinism";
    for (const std::uint64_t seed : {3ull, 5ull, 7ull, 11ull}) {
        FigureBar bar;
        bar.config = sampleTestConfig(seed, 60);
        bar.config.name = "seed-" + std::to_string(seed);
        spec.bars.push_back(bar);
    }

    RunOptions options;
    options.verbose = false;
    options.sample = smallSampleSpec();

    options.jobs = 1;
    const FigureResult seq = ExperimentRunner(options).run(spec);
    options.jobs = 4;
    const FigureResult par = ExperimentRunner(options).run(spec);

    EXPECT_EQ(figureToJson(seq), figureToJson(par));
    EXPECT_EQ(figureStatsJson(seq), figureStatsJson(par));

    // The manifest self-identifies as sampled: a sampling block per
    // bar and the schedule echoed in META.
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(jsonParse(figureStatsJson(seq), doc, &err)) << err;
    EXPECT_TRUE(stats::manifestHasSampling(doc));
    const std::vector<stats::BarMetaView> meta =
        stats::manifestMeta(doc);
    ASSERT_EQ(meta.size(), 4u);
    for (const stats::BarMetaView &view : meta) {
        EXPECT_EQ(view.meta.sampleMode, "fixed") << view.bar;
        EXPECT_EQ(view.meta.sampleFf, 15u) << view.bar;
        EXPECT_EQ(view.meta.sampleMeasure, 5u) << view.bar;
    }
    EXPECT_FALSE(stats::flattenCi95(doc).empty());
}

TEST(SampledRun, CheckpointSaveResumeIsBitIdentical)
{
    setQuiet(true);
    const std::string dir =
        ::testing::TempDir() + "/sampling_ckpt";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    RunOptions options;
    options.verbose = false;
    options.jobs = 1;
    options.sample = smallSampleSpec();

    // Cold run, saving the warm image...
    options.saveCkptDir = dir;
    const FigureResult cold =
        ExperimentRunner(options).run(oneBarSpec(7, 100));

    // ...then the same sampled measurement from the restored image.
    options.saveCkptDir.clear();
    options.fromCkptDir = dir;
    const FigureResult restored =
        ExperimentRunner(options).run(oneBarSpec(7, 100));

    EXPECT_EQ(figureToJson(cold), figureToJson(restored));
    EXPECT_EQ(figureStatsJson(cold), figureStatsJson(restored));
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Accuracy: sampled vs full timing (the e2e regression gate)
// ---------------------------------------------------------------------

TEST(SampledAccuracy, CpiWithinOwnCiOfFullTimingRunTwoSeeds)
{
    setQuiet(true);
    // The headline claim, pinned per seed: the sampled CPI estimate
    // must land within its own 95% CI of the full-timing CPI. A
    // small-cache configuration keeps the cold-cache bias (the
    // documented failure mode at large L2 sizes, docs/SAMPLING.md)
    // out of the picture.
    for (const std::uint64_t seed : {7ull, 1234ull}) {
        MachineConfig cfg = sampleTestConfig(seed, 400, 40);
        Machine full(cfg);
        full.runWarmup();
        const RunResult exact = full.runMeasurement();
        const stats::Sample *cpiExact =
            stats::findSample(exact.stats, "cpu.cpi");
        ASSERT_NE(cpiExact, nullptr);

        sample::SampleSpec spec;
        spec.ff = 40;
        spec.measure = 10;
        Machine sampled(cfg);
        sampled.runWarmup();
        const RunResult est =
            sample::SampleController(sampled, spec).run();
        ASSERT_EQ(est.sampling.windows, 8u);
        const stats::Sample *cpiEst =
            stats::findSample(est.stats, "cpu.cpi");
        const sample::StatCi *ci = est.sampling.find("cpu.cpi");
        ASSERT_NE(cpiEst, nullptr);
        ASSERT_NE(ci, nullptr);
        ASSERT_TRUE(std::isfinite(ci->ci95));
        EXPECT_GT(ci->ci95, 0.0) << "seed=" << seed;

        EXPECT_LE(std::abs(cpiEst->d - cpiExact->d), ci->ci95)
            << "seed=" << seed << ": sampled CPI " << cpiEst->d
            << " vs exact " << cpiExact->d << " (ci95 " << ci->ci95
            << ")";
    }
}

TEST(SampledAccuracy, CiAwareManifestDiffAgainstExactRunIsClean)
{
    setQuiet(true);
    // What `isim-stat diff A B --ci --tolerance=R` does, at the API
    // layer: the sampled manifest of a bar must compare clean against
    // the exact manifest of the same bar — deltas within the union of
    // the CIs, with the relative tolerance flooring the CI pairs
    // (deterministic counters have zero-width intervals, and sampling
    // carries a small systematic window-boundary bias no CI models).
    RunOptions options;
    options.verbose = false;
    options.jobs = 1;
    const FigureSpec spec = oneBarSpec(7, 400);

    const FigureResult exact = ExperimentRunner(options).run(spec);
    sample::SampleSpec s;
    s.ff = 40;
    s.measure = 10;
    s.warm = 20;
    options.sample = s;
    const FigureResult sampled = ExperimentRunner(options).run(spec);

    JsonValue docA, docB;
    std::string err;
    ASSERT_TRUE(jsonParse(figureStatsJson(exact), docA, &err)) << err;
    ASSERT_TRUE(jsonParse(figureStatsJson(sampled), docB, &err))
        << err;

    // Exact-vs-sampled comparisons drop gauges (mean level over the
    // windows vs end-of-run level — different estimands).
    std::vector<std::string> gauges = stats::manifestGaugePaths(docA);
    const std::vector<std::string> more =
        stats::manifestGaugePaths(docB);
    gauges.insert(gauges.end(), more.begin(), more.end());
    std::sort(gauges.begin(), gauges.end());
    const std::vector<stats::FlatStat> a =
        stats::dropPaths(stats::flattenManifest(docA), gauges);
    const std::vector<stats::FlatStat> b =
        stats::dropPaths(stats::flattenManifest(docB), gauges);
    ASSERT_FALSE(a.empty());
    ASSERT_FALSE(b.empty());

    const stats::DiffResult d = stats::diffFlattenedCi(
        a, b, stats::flattenCi95(docA), stats::flattenCi95(docB),
        /*any_sampled=*/true, /*tolerance=*/0.15);
    for (const stats::StatDiff &diff : d.diffs) {
        ADD_FAILURE() << diff.path << ": " << diff.a << " -> "
                      << diff.b << " (rel " << diff.rel << ")";
    }
    EXPECT_TRUE(d.clean());
}

// The sampled pipeline at smoke size: fig05 at 60 warm-up and 600
// measured transactions, exact and then sampled on the schedule of
// eight periods (ff 66, measure 9, warm 4). Sampling must cost at most
// half the exact run's CPU time, and each bar's CPI must lie inside
// its sampled 95% CI or within 8% of the exact CPI: large-L2 bars miss
// their narrow CI at windows this short (the cold-cache bias of
// docs/SAMPLING.md). The options are built here, so ISIM_TXNS and
// ISIM_WARMUP cannot reach them; one lease thread and process CPU
// time keep the tests ctest runs beside this one out of the ratio.
TEST(SampledAccuracy, Fig05SmokeSpeedupAndCpiBound)
{
#ifdef ISIM_CHECK_INVARIANTS
    GTEST_SKIP() << "the auditor checks every access, fast-forwarded "
                    "ones too: sampling measured 1.6x, 0.9x with ASan";
#endif
    setQuiet(true);
    const FigureSpec spec =
        FigureRegistry::instance().find("fig05")->make();
    RunOptions options;
    options.txns = 600;
    options.warmup = 60;
    options.jobs = 1;
    options.verbose = false;

    double start = processCpuSeconds();
    const FigureResult exact = ExperimentRunner(options).run(spec);
    const double exactSeconds = processCpuSeconds() - start;
    options.sample.ff = 66;
    options.sample.measure = 9;
    options.sample.warm = 4;
    start = processCpuSeconds();
    const FigureResult sampled = ExperimentRunner(options).run(spec);
    const double sampledSeconds = processCpuSeconds() - start;

    ASSERT_EQ(sampled.runs.size(), exact.runs.size());
    for (std::size_t i = 0; i < sampled.runs.size(); ++i) {
        const RunResult &s = sampled.runs[i];
        const sample::StatCi *ci = s.sampling.find("cpu.cpi");
        ASSERT_NE(ci, nullptr) << s.name;
        const double cpi = exact.runs[i].stat("cpu.cpi");
        const double err = std::fabs(s.stat("cpu.cpi") - cpi);
        EXPECT_GE(s.sampling.windows, 2u) << s.name;
        EXPECT_TRUE(err <= ci->ci95 || err <= 0.08 * cpi)
            << s.name << ": CPI " << cpi << " exact, "
            << s.stat("cpu.cpi") << " ±" << ci->ci95 << " sampled";
    }
    EXPECT_GE(exactSeconds / sampledSeconds, 2.0)
        << "CPU time: exact " << exactSeconds << " s, sampled "
        << sampledSeconds << " s";
}

// ---------------------------------------------------------------------
// Campaign: sampled cells resume byte-identically
// ---------------------------------------------------------------------

TEST(SampledCampaign, InterruptedResumeReplaysCacheByteIdentically)
{
    setQuiet(true);
    const std::string base =
        ::testing::TempDir() + "/sampling_campaign";
    std::filesystem::remove_all(base);
    std::filesystem::create_directories(base);
    const std::string specPath = base + "/spec.json";
    {
        std::ofstream out(specPath, std::ios::trunc);
        ASSERT_TRUE(out.is_open());
        out << R"({"schema": "isim-campaign", "version": 1,
                   "name": "sampled-e2e", "figures": ["fig10-uni"],
                   "seeds": [5]})";
    }

    campaign::CampaignRunConfig run;
    run.specPath = specPath;
    run.options.txns = 40;
    run.options.warmup = 10;
    run.options.verbose = false;
    run.options.sample.ff = 15;
    run.options.sample.measure = 5;

    const auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        EXPECT_TRUE(in.is_open()) << path;
        std::ostringstream buffer;
        buffer << in.rdbuf();
        return buffer.str();
    };

    // Reference: uninterrupted.
    run.outDir = base + "/ref";
    ASSERT_EQ(campaign::runCampaign(run), 0);
    const std::string reference = slurp(run.outDir + "/campaign.json");
    ASSERT_FALSE(reference.empty());

    // Interrupt after one lease, then resume from the cache: the
    // merged manifest must be byte-identical, sampled cells included.
    run.outDir = base + "/resumed";
    run.stopAfter = 1;
    ASSERT_EQ(campaign::runCampaign(run), 3);
    run.stopAfter = -1;
    ASSERT_EQ(campaign::runCampaign(run), 0);
    EXPECT_EQ(slurp(run.outDir + "/campaign.json"), reference);

    // The merged document carries the sampling evidence: a sampling
    // block per cell and the schedule echo in every META.
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(jsonParse(reference, doc, &err)) << err;
    EXPECT_TRUE(stats::manifestHasSampling(doc));
    const std::vector<stats::BarMetaView> meta =
        stats::manifestMeta(doc);
    ASSERT_EQ(meta.size(), 3u);
    for (const stats::BarMetaView &view : meta) {
        EXPECT_EQ(view.meta.status, "ok") << view.bar;
        EXPECT_EQ(view.meta.sampleMode, "fixed") << view.bar;
        EXPECT_EQ(view.meta.sampleFf, 15u) << view.bar;
        EXPECT_EQ(view.meta.sampleMeasure, 5u) << view.bar;
    }
    std::filesystem::remove_all(base);
}

} // namespace
} // namespace isim
