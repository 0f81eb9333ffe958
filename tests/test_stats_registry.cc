/**
 * @file
 * Stats-registry and manifest tests: registration and snapshot
 * semantics (live getters, sorted names, reset hooks), name
 * validation, the stats.json manifest round trip (serialize ->
 * jsonParse -> flatten recovers every stat with its value), the
 * flatten/diff regression machinery (injected drift is caught,
 * tolerance forgives it), and — end to end — that a Machine's
 * RunResult snapshot agrees with its legacy aggregate counters.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/base/json.hh"
#include "src/base/logging.hh"
#include "src/core/machine.hh"
#include "src/stats/histogram.hh"
#include "src/stats/manifest.hh"
#include "src/stats/registry.hh"

namespace isim {
namespace {

using stats::DiffResult;
using stats::FlatStat;
using stats::Kind;
using stats::Manifest;
using stats::ManifestBar;
using stats::Registry;
using stats::Sample;
using stats::Snapshot;

TEST(Registry, GettersEvaluateLiveState)
{
    std::uint64_t hits = 0;
    double level = 1.5;
    Registry r;
    r.counter("cache.hits", "hits", "refs", [&] { return hits; });
    r.gauge("queue.depth", "depth", "entries", [&] { return level; });
    r.formula("cache.hit_rate", "rate", "ratio",
              [&] { return hits ? 1.0 : 0.0; });
    EXPECT_EQ(r.size(), 3u);

    hits = 42;
    level = 7.25;
    const Snapshot snap = r.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    // Sorted by name.
    EXPECT_EQ(snap[0].name, "cache.hit_rate");
    EXPECT_EQ(snap[1].name, "cache.hits");
    EXPECT_EQ(snap[2].name, "queue.depth");

    const Sample *s = findSample(snap, "cache.hits");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->kind, Kind::Counter);
    EXPECT_EQ(s->u, 42u);
    EXPECT_DOUBLE_EQ(s->number(), 42.0);
    EXPECT_DOUBLE_EQ(findSample(snap, "queue.depth")->d, 7.25);
    EXPECT_DOUBLE_EQ(findSample(snap, "cache.hit_rate")->d, 1.0);
    EXPECT_EQ(findSample(snap, "no.such.stat"), nullptr);
}

TEST(Registry, DistributionSummarizesHistogram)
{
    Histogram h("lat", 10, 10);
    for (int i = 0; i < 90; ++i)
        h.sample(5);
    for (int i = 0; i < 10; ++i)
        h.sample(95);
    Registry r;
    r.distribution("txn.latency", "latency", "us",
                   [&]() -> const Histogram & { return h; });

    const Snapshot snap = r.snapshot();
    const Sample *s = findSample(snap, "txn.latency");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->kind, Kind::Distribution);
    EXPECT_EQ(s->dist.count, 100u);
    EXPECT_EQ(s->dist.min, 5u);
    EXPECT_EQ(s->dist.max, 95u);
    EXPECT_DOUBLE_EQ(s->dist.p50, 10.0);
    EXPECT_DOUBLE_EQ(s->number(), 100.0);
}

TEST(Registry, ResetRunsEveryHook)
{
    std::uint64_t events = 99;
    Registry r;
    r.counter("x.events", "events", "events", [&] { return events; });
    int hooks = 0;
    r.onReset([&] {
        events = 0;
        ++hooks;
    });
    r.onReset([&] { ++hooks; });
    r.resetAll();
    EXPECT_EQ(hooks, 2);
    EXPECT_EQ(findSample(r.snapshot(), "x.events")->u, 0u);
}

TEST(RegistryDeathTest, RejectsDuplicateName)
{
    setQuiet(true);
    Registry r;
    r.counter("a.b", "first", "events", [] { return 0u; });
    EXPECT_DEATH(
        r.counter("a.b", "second", "events", [] { return 0u; }),
        "duplicate");
}

TEST(RegistryDeathTest, RejectsMalformedName)
{
    setQuiet(true);
    Registry r;
    EXPECT_DEATH(
        r.counter("Upper.Case", "bad", "events", [] { return 0u; }),
        "stat name");
    EXPECT_DEATH(
        r.counter("trailing.", "bad", "events", [] { return 0u; }),
        "stat name");
}

/** A small two-bar manifest with known values. */
Manifest
testManifest()
{
    Manifest m;
    m.figure = "figX";
    m.title = "round-trip fixture";
    for (const char *name : {"bar-a", "bar-b"}) {
        ManifestBar bar;
        bar.name = name;
        Sample c;
        c.name = "cpu.busy";
        c.desc = "busy ticks";
        c.unit = "ticks";
        c.kind = Kind::Counter;
        c.u = name[4] == 'a' ? 123456u : 654321u;
        bar.stats.push_back(c);
        Sample g;
        g.name = "l2.mpki";
        g.desc = "misses per kilo-instruction";
        g.unit = "mpki";
        g.kind = Kind::Formula;
        g.d = 3.25;
        bar.stats.push_back(g);
        m.bars.push_back(bar);
    }
    return m;
}

TEST(Manifest, JsonRoundTripRecoversEveryStat)
{
    const Manifest m = testManifest();
    const std::string doc = stats::manifestToJson(m);

    std::string err;
    EXPECT_TRUE(jsonValidate(doc, &err)) << err;
    JsonValue parsed;
    ASSERT_TRUE(jsonParse(doc, parsed, &err)) << err;
    EXPECT_EQ(parsed.at("schema").text, stats::kManifestSchema);
    EXPECT_EQ(parsed.at("version").number, stats::kManifestVersion);

    const std::vector<FlatStat> flat = stats::flattenManifest(parsed);
    // Every (bar, stat) leaf comes back with its exact value.
    ASSERT_EQ(flat.size(), 4u);
    EXPECT_EQ(flat[0].path, "bar-a/cpu.busy");
    EXPECT_DOUBLE_EQ(flat[0].value, 123456.0);
    EXPECT_EQ(flat[1].path, "bar-a/l2.mpki");
    EXPECT_DOUBLE_EQ(flat[1].value, 3.25);
    EXPECT_EQ(flat[2].path, "bar-b/cpu.busy");
    EXPECT_DOUBLE_EQ(flat[2].value, 654321.0);
    EXPECT_EQ(flat[3].path, "bar-b/l2.mpki");
    EXPECT_DOUBLE_EQ(flat[3].value, 3.25);
}

TEST(Manifest, DistributionFlattensToFields)
{
    Histogram h("lat", 10, 10);
    h.sample(5);
    Manifest m;
    m.figure = "figX";
    m.title = "dist fixture";
    ManifestBar bar;
    bar.name = "bar";
    Registry r;
    r.distribution("txn.latency", "latency", "us",
                   [&]() -> const Histogram & { return h; });
    bar.stats = r.snapshot();
    m.bars.push_back(bar);

    JsonValue parsed;
    std::string err;
    ASSERT_TRUE(jsonParse(stats::manifestToJson(m), parsed, &err))
        << err;
    const std::vector<FlatStat> flat = stats::flattenManifest(parsed);
    const auto has = [&](const char *path) {
        for (const FlatStat &f : flat) {
            if (f.path == path)
                return true;
        }
        return false;
    };
    EXPECT_TRUE(has("bar/txn.latency.count"));
    EXPECT_TRUE(has("bar/txn.latency.mean"));
    EXPECT_TRUE(has("bar/txn.latency.p50"));
    // One sample in bucket 0: p99 still resolvable; but an empty
    // histogram's quantiles are null and must NOT appear as leaves.
    Manifest empty = m;
    Histogram none("lat", 10, 10);
    Registry r2;
    r2.distribution("txn.latency", "latency", "us",
                    [&]() -> const Histogram & { return none; });
    empty.bars[0].stats = r2.snapshot();
    ASSERT_TRUE(
        jsonParse(stats::manifestToJson(empty), parsed, &err))
        << err;
    for (const FlatStat &f : stats::flattenManifest(parsed)) {
        EXPECT_EQ(f.path.find("txn.latency.p"), std::string::npos)
            << f.path << " should have been skipped (null quantile)";
    }
}

TEST(ManifestDiff, CatchesInjectedDriftAndRespectsTolerance)
{
    std::vector<FlatStat> a = {{"bar/cpu.busy", 100000.0},
                               {"bar/l2.miss.total", 5000.0},
                               {"bar/oltp.txn.committed", 900.0}};
    std::vector<FlatStat> b = a;
    b[1].value *= 1.01; // inject 1% drift

    const DiffResult strict = stats::diffFlattened(a, b);
    EXPECT_FALSE(strict.clean());
    ASSERT_EQ(strict.diffs.size(), 1u);
    EXPECT_EQ(strict.diffs[0].path, "bar/l2.miss.total");
    EXPECT_NEAR(strict.diffs[0].rel, 0.01, 1e-4);

    // 2% tolerance forgives 1% drift.
    EXPECT_TRUE(stats::diffFlattened(a, b, 0.02).clean());
    // ... but a missing stat is never forgiven.
    std::vector<FlatStat> c(a.begin(), a.end() - 1);
    const DiffResult missing = stats::diffFlattened(a, c, 0.02);
    EXPECT_FALSE(missing.clean());
    ASSERT_EQ(missing.onlyA.size(), 1u);
    EXPECT_EQ(missing.onlyA[0], "bar/oltp.txn.committed");
    EXPECT_TRUE(missing.onlyB.empty());
}

TEST(MachineStats, SnapshotAgreesWithLegacyAggregates)
{
    setQuiet(true);
    MachineConfig cfg;
    cfg.name = "test-stats-registry";
    cfg.numCpus = 2;
    cfg.workload.branches = 4;
    cfg.workload.accountsPerBranch = 10000;
    cfg.workload.transactions = 40;
    cfg.workload.warmupTransactions = 10;

    Machine machine(cfg);
    const RunResult r = machine.run();
    ASSERT_FALSE(r.stats.empty());

    const auto value = [&](const char *name) {
        const Sample *s = findSample(r.stats, name);
        EXPECT_NE(s, nullptr) << name;
        return s ? s->number() : std::nan("");
    };
    // The registry's machine-wide aggregates against sums over the
    // live components, which still hold the measurement window.
    CpuStats cpu;
    for (NodeId n = 0; n < cfg.numCpus; ++n)
        cpu += machine.cpu(n).stats();
    EXPECT_DOUBLE_EQ(value("cpu.instructions"),
                     static_cast<double>(cpu.instructions));
    EXPECT_DOUBLE_EQ(value("cpu.busy"), static_cast<double>(cpu.busy));
    EXPECT_DOUBLE_EQ(
        value("l2.miss.total"),
        static_cast<double>(
            machine.memSys().aggregateStats().totalL2Misses()));
    EXPECT_DOUBLE_EQ(value("oltp.txn.committed"),
                     static_cast<double>(r.transactions));
    EXPECT_DOUBLE_EQ(value("cpu.exec_time"),
                     static_cast<double>(cpu.nonIdle()));
    // NoC accounting is always on: a multi-node run moves messages.
    EXPECT_GT(value("noc.messages"), 0.0);
    EXPECT_GT(value("noc.bytes"), 0.0);
}

} // namespace
} // namespace isim
