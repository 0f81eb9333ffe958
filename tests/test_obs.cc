/**
 * @file
 * Observability subsystem tests: event-ring wraparound and capacity
 * accounting, epoch-recorder boundary math (partial first and last
 * epochs, rebase after a stats reset), exporter well-formedness
 * (Chrome JSON parses back, CSV headers), the binary capture round
 * trip, and — end to end — that attaching observability to a machine
 * records events without perturbing the simulated results, that
 * host-side instrumentation leaves figure JSON byte-identical, and
 * that --stats-epoch rows add up to the measured stats on one grid.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/json.hh"
#include "src/base/logging.hh"
#include "src/core/experiment.hh"
#include "src/core/machine.hh"
#include "src/core/report.hh"
#include "src/obs/event.hh"
#include "src/obs/export.hh"
#include "src/obs/observability.hh"
#include "src/obs/ring.hh"
#include "src/obs/tracer.hh"
#include "src/stats/epoch.hh"
#include "src/stats/manifest.hh"

namespace isim {
namespace {

using obs::EventKind;
using obs::EventRing;
using obs::TraceEvent;
using obs::Tracer;
using stats::EpochRecorder;
using stats::commitsColumn;
using stats::epochColumnOf;

TraceEvent
numberedEvent(std::uint32_t n)
{
    TraceEvent e{};
    e.tick = 10 * n;
    e.arg = n;
    e.kind = EventKind::MissIssued;
    return e;
}

std::vector<std::uint32_t>
ringArgs(const EventRing &ring)
{
    std::vector<std::uint32_t> args;
    ring.forEach([&](const TraceEvent &e) { args.push_back(e.arg); });
    return args;
}

TEST(EventRing, FillsWithoutWrap)
{
    EventRing ring(4);
    for (std::uint32_t i = 0; i < 3; ++i)
        ring.push(numberedEvent(i));
    EXPECT_EQ(ring.capacity(), 4u);
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.pushed(), 3u);
    EXPECT_EQ(ring.dropped(), 0u);
    EXPECT_EQ(ringArgs(ring), (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(EventRing, ExactlyFullKeepsEverything)
{
    EventRing ring(4);
    for (std::uint32_t i = 0; i < 4; ++i)
        ring.push(numberedEvent(i));
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.dropped(), 0u);
    EXPECT_EQ(ringArgs(ring), (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(EventRing, WrapKeepsLatestWindow)
{
    EventRing ring(4);
    for (std::uint32_t i = 0; i < 10; ++i)
        ring.push(numberedEvent(i));
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.pushed(), 10u);
    EXPECT_EQ(ring.dropped(), 6u);
    // Oldest-to-newest iteration over the retained window.
    EXPECT_EQ(ringArgs(ring), (std::vector<std::uint32_t>{6, 7, 8, 9}));
}

TEST(EventRing, ClearResetsAccounting)
{
    EventRing ring(2);
    for (std::uint32_t i = 0; i < 5; ++i)
        ring.push(numberedEvent(i));
    ring.clear();
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.pushed(), 0u);
    EXPECT_EQ(ring.dropped(), 0u);
    ring.push(numberedEvent(7));
    EXPECT_EQ(ringArgs(ring), (std::vector<std::uint32_t>{7}));
}

/** A registry carrying every epoch column's counter, set by hand. */
struct FakeCounters
{
    std::array<std::uint64_t, stats::numEpochColumns> value{};
    stats::Registry registry;

    FakeCounters()
    {
        for (std::size_t i = 0; i < stats::numEpochColumns; ++i) {
            if (const char *stat = stats::epochColumns[i].stat) {
                registry.counter(stat, "test counter", "count",
                                 [this, i] { return value[i]; });
            }
        }
    }

    EpochRecorder recorder(Tick epoch_ticks)
    {
        return EpochRecorder(epoch_ticks, registry,
                             [this] { return ctxSwitches; });
    }

    std::uint64_t &commits() { return value[commitsColumn]; }
    std::uint64_t ctxSwitches = 0;
};

TEST(Sampler, GridAnchoredPartialEpochs)
{
    FakeCounters counters;
    EpochRecorder s = counters.recorder(100);

    counters.commits() = 10;
    s.start(250); // mid-grid: first epoch is partial [250, 300)
    EXPECT_FALSE(s.due(299));

    counters.commits() = 16;
    EXPECT_TRUE(s.due(300));
    s.advance(455);
    ASSERT_EQ(s.rows().size(), 2u);
    EXPECT_EQ(s.rows()[0].epoch, 2u);
    EXPECT_EQ(s.rows()[0].start, 250u);
    EXPECT_EQ(s.rows()[0].end, 300u);
    EXPECT_EQ(s.rows()[0].delta[commitsColumn], 6u);
    // The epoch [300, 400) saw no counter movement: zero-delta row.
    EXPECT_EQ(s.rows()[1].epoch, 3u);
    EXPECT_EQ(s.rows()[1].start, 300u);
    EXPECT_EQ(s.rows()[1].end, 400u);
    EXPECT_EQ(s.rows()[1].delta[commitsColumn], 0u);

    counters.commits() = 20;
    s.finish(455); // trailing partial epoch [400, 455)
    ASSERT_EQ(s.rows().size(), 3u);
    EXPECT_EQ(s.rows()[2].epoch, 4u);
    EXPECT_EQ(s.rows()[2].start, 400u);
    EXPECT_EQ(s.rows()[2].end, 455u);
    EXPECT_EQ(s.rows()[2].delta[commitsColumn], 4u);
    // tps normalizes by the partial extent, not the epoch length.
    EXPECT_DOUBLE_EQ(s.rows()[2].tps(), 4.0 * 1e9 / 55.0);
}

TEST(Sampler, StartOnGridLineIsAFullFirstEpoch)
{
    FakeCounters counters;
    EpochRecorder s = counters.recorder(100);
    s.start(200);
    counters.commits() = 3;
    s.advance(300);
    ASSERT_EQ(s.rows().size(), 1u);
    EXPECT_EQ(s.rows()[0].epoch, 2u);
    EXPECT_EQ(s.rows()[0].start, 200u);
    EXPECT_EQ(s.rows()[0].end, 300u);
}

TEST(Sampler, FinishInsideFirstEpochEmitsOnePartialRow)
{
    FakeCounters counters;
    EpochRecorder s = counters.recorder(1000);
    s.start(0);
    counters.commits() = 2;
    counters.ctxSwitches = 5;
    s.finish(40);
    ASSERT_EQ(s.rows().size(), 1u);
    EXPECT_EQ(s.rows()[0].start, 0u);
    EXPECT_EQ(s.rows()[0].end, 40u);
    EXPECT_EQ(s.rows()[0].delta[commitsColumn], 2u);
    // The one column without a registry stat reads its own source.
    std::uint64_t ctx = 0;
    for (std::size_t i = 0; i < stats::numEpochColumns; ++i) {
        if (stats::epochColumns[i].stat == nullptr)
            ctx += s.rows()[0].delta[i];
    }
    EXPECT_EQ(ctx, 5u);
    // finish() is idempotent; later calls add nothing.
    s.finish(90);
    EXPECT_EQ(s.rows().size(), 1u);
}

TEST(Sampler, RebaseAbsorbsStatsReset)
{
    FakeCounters counters;
    std::uint64_t &insts =
        counters.value[epochColumnOf("cpu.instructions")];
    insts = 100;
    EpochRecorder s = counters.recorder(100);
    s.start(0);
    insts = 5; // registry reset: the counter went backwards
    s.rebase();
    insts = 12;
    s.advance(100);
    ASSERT_EQ(s.rows().size(), 1u);
    EXPECT_EQ(s.rows()[0].delta[epochColumnOf("cpu.instructions")], 7u);
}

TEST(SamplerDeathTest, BackwardsCounterWithoutRebasePanics)
{
    FakeCounters counters;
    counters.commits() = 50;
    EpochRecorder s = counters.recorder(100);
    s.start(0);
    counters.commits() = 8; // a reset the recorder was not told of
    EXPECT_DEATH(s.advance(100), "went backwards without a rebase");
}

TEST(Tracer, CountsPerKindAndNocBytes)
{
    Tracer t(16);
    t.setEnabled(true);
    t.instant(EventKind::TxnBegin, 100, /*cpu=*/1);
    t.span(EventKind::TxnCommit, 100, 50, /*cpu=*/1);
    t.nocHop(EventKind::NocEnqueue, 120, /*src=*/0, /*dst=*/2, 16, 0);
    t.nocHop(EventKind::NocDequeue, 140, /*src=*/0, /*dst=*/2, 16, 0);
    t.nocHop(EventKind::NocEnqueue, 150, /*src=*/2, /*dst=*/0, 80, 0);
    EXPECT_EQ(t.count(EventKind::TxnBegin), 1u);
    EXPECT_EQ(t.count(EventKind::TxnCommit), 1u);
    EXPECT_EQ(t.count(EventKind::NocEnqueue), 2u);
    EXPECT_EQ(t.count(EventKind::NocDequeue), 1u);
    EXPECT_EQ(t.count(EventKind::MissIssued), 0u);
    // Only enqueues add payload bytes (dequeue is the same message).
    EXPECT_EQ(t.nocBytes(), 96u);
    t.clear();
    EXPECT_EQ(t.count(EventKind::TxnCommit), 0u);
    EXPECT_EQ(t.nocBytes(), 0u);
    EXPECT_EQ(t.ring().size(), 0u);
}

TEST(Exporters, ChromeTraceParsesBack)
{
    std::vector<TraceEvent> events;
    for (unsigned k = 0; k < obs::numEventKinds; ++k) {
        TraceEvent e{};
        e.tick = 1000 * (k + 1);
        e.dur = k % 2 == 0 ? 500 : 0;
        e.cpu = static_cast<std::uint16_t>(k % 4);
        e.kind = static_cast<EventKind>(k);
        e.cls = static_cast<std::uint8_t>(k);
        e.arg = k;
        e.addr = 0x1000 + 64 * k;
        events.push_back(e);
    }
    std::ostringstream os;
    obs::writeChromeTrace(os, events, /*dropped=*/5);
    const std::string text = os.str();
    std::string err;
    EXPECT_TRUE(jsonValidate(text, &err)) << err;
    // Span events carry a duration; instants are marked as such.
    EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\": \"i\""), std::string::npos);
    // Transaction events land on per-server tracks; latch events keep
    // their kind name.
    EXPECT_NE(text.find("txn pid"), std::string::npos);
    EXPECT_NE(text.find("LatchAcquire"), std::string::npos);
}

TEST(Exporters, ChromeTraceOfEmptyCaptureIsValid)
{
    std::ostringstream os;
    obs::writeChromeTrace(os, {}, 0);
    std::string err;
    EXPECT_TRUE(jsonValidate(os.str(), &err)) << err;
}

TEST(Exporters, CsvHeaders)
{
    EXPECT_EQ(obs::timelineCsvHeader(),
              "epoch,start_ns,end_ns,commits,tps,instructions,busy_ns,"
              "idle_ns,kernel_ns,miss_instr_local,miss_instr_remote,"
              "miss_data_local,miss_data_2hop,miss_data_3hop,"
              "latch_acquires,latch_contended,ctx_switches,noc_msgs,"
              "noc_bytes,noc_gbps");

    FakeCounters counters;
    EpochRecorder s = counters.recorder(100);
    s.start(0);
    counters.commits() = 1;
    counters.value[epochColumnOf("noc.bytes")] = 300;
    s.finish(150);
    std::ostringstream os;
    obs::writeTimelineCsv(os, s.rows());
    std::istringstream lines(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, obs::timelineCsvHeader());
    std::vector<std::string> rows;
    while (std::getline(lines, line))
        rows.push_back(line);
    ASSERT_EQ(rows.size(), s.rows().size());
    EXPECT_EQ(rows[0],
              "0,0,100,1,10000000.000,0,0,0,0,0,0,0,0,0,0,0,0,0,300,"
              "3.000000");

    std::ostringstream ev;
    obs::writeEventCsv(ev, {numberedEvent(1)});
    EXPECT_EQ(ev.str().rfind("tick_ns,dur_ns,kind,cat,", 0), 0u);
}

TEST(Exporters, CaptureRoundTripAfterWrap)
{
    Tracer t(8);
    t.setEnabled(true);
    for (std::uint32_t i = 0; i < 12; ++i) {
        t.instant(EventKind::LatchAcquire, 10 * i,
                  static_cast<std::uint16_t>(i % 3), 0, i, 0x40 * i);
    }
    const std::string path =
        testing::TempDir() + "/isim_capture_test.bin";
    obs::writeCapture(path, t);

    obs::CaptureHeader header;
    std::vector<TraceEvent> events;
    std::string err;
    ASSERT_TRUE(obs::readCapture(path, header, events, err)) << err;
    EXPECT_EQ(header.count, 8u);
    EXPECT_EQ(header.pushed, 12u);
    EXPECT_EQ(header.capacity, 8u);
    ASSERT_EQ(events.size(), 8u);
    for (std::uint32_t i = 0; i < 8; ++i) {
        EXPECT_EQ(events[i].arg, i + 4) << i; // oldest retained first
        EXPECT_EQ(events[i].tick, 10u * (i + 4));
        EXPECT_EQ(events[i].kind, EventKind::LatchAcquire);
    }
    EXPECT_EQ(std::remove(path.c_str()), 0);
}

TEST(Exporters, ReadCaptureRejectsGarbage)
{
    const std::string path =
        testing::TempDir() + "/isim_capture_garbage.bin";
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a capture file, not even close......";
    }
    obs::CaptureHeader header;
    std::vector<TraceEvent> events;
    std::string err;
    EXPECT_FALSE(obs::readCapture(path, header, events, err));
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(std::remove(path.c_str()), 0);

    err.clear();
    EXPECT_FALSE(obs::readCapture(testing::TempDir() + "/nonexistent.bin",
                                  header, events, err));
    EXPECT_FALSE(err.empty());
}

// ---- End-to-end: observed machine runs ----

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
mpConfig(std::uint64_t txns = 60)
{
    MachineConfig cfg;
    cfg.name = "test-obs-mp";
    cfg.numCpus = 4;
    cfg.l2 = CacheGeometry{1 * mib, 4, 64};
    cfg.l2Impl = L2Impl::OffchipAssoc;
    cfg.workload = testWorkload(txns);
    return cfg;
}

obs::ObsConfig
observeEverything()
{
    obs::ObsConfig cfg;
    // Non-empty paths make the bundle build its sampler; the test
    // never calls writeOutputs(), so nothing is written to disk.
    cfg.traceOutPath = "unused.json";
    cfg.timelineOutPath = "unused.csv";
    cfg.epochTicks = 200000; // 0.2 ms: several epochs per test run
    cfg.ringCapacity = 1u << 16;
    return cfg;
}

TEST(ObservedMachine, TracingDoesNotPerturbResults)
{
    setQuiet(true);
    Machine plain(mpConfig());
    const RunResult a = plain.run();

    Machine observed(mpConfig());
    obs::Observability o(observeEverything());
    observed.attachObservability(&o);
    const RunResult b = observed.run();

    EXPECT_EQ(a.transactions, b.transactions);
    EXPECT_EQ(a.wallTime, b.wallTime);
    // Every registry stat must match. The manifest rendering compares
    // all of a stat's fields, with unresolvable (NaN) quantiles as null.
    const auto rendered = [](const RunResult &r) {
        stats::Manifest m;
        m.bars.resize(1);
        m.bars[0].stats = r.stats;
        return stats::manifestToJson(m);
    };
    ASSERT_FALSE(a.stats.empty());
    EXPECT_EQ(rendered(a), rendered(b));
    EXPECT_EQ(a.dbConsistent, b.dbConsistent);
}

TEST(ObservedMachine, RecordsAllEventFamilies)
{
    setQuiet(true);
    Machine m(mpConfig());
    obs::Observability o(observeEverything());
    m.attachObservability(&o);
    m.recordEpochs(o.config().epochTicks);
    const RunResult r = m.run();
    EXPECT_TRUE(r.dbConsistent);

    // The timeline covers the whole run in contiguous epochs.
    const auto &rows = r.epochs;
    ASSERT_FALSE(rows.empty());
    EXPECT_EQ(rows.front().start, 0u);
    for (std::size_t i = 1; i < rows.size(); ++i)
        EXPECT_EQ(rows[i].start, rows[i - 1].end);
    std::uint64_t timeline_txns = 0;
    for (const auto &row : rows)
        timeline_txns += row.delta[commitsColumn];
    // Rows before the warm-up boundary count warm-up commits (the
    // rebase only drops the slice of the epoch open at the reset), so
    // the timeline holds at least every measured commit and at most
    // the warm-up plus measured total.
    EXPECT_GE(timeline_txns, r.transactions);
    EXPECT_LE(timeline_txns,
              r.transactions + mpConfig().workload.warmupTransactions);

#ifdef ISIM_OBS
    const Tracer &t = o.tracer();
    EXPECT_GT(t.count(EventKind::MissIssued), 0u);
    EXPECT_GT(t.count(EventKind::MissCompleted), 0u);
    EXPECT_GT(t.count(EventKind::DirRead), 0u);
    EXPECT_GT(t.count(EventKind::NocEnqueue), 0u);
    EXPECT_EQ(t.count(EventKind::NocEnqueue),
              t.count(EventKind::NocDequeue));
    EXPECT_GT(t.nocBytes(), 0u);
    EXPECT_GT(t.count(EventKind::LatchAcquire), 0u);
    EXPECT_GT(t.count(EventKind::TxnBegin), 0u);
    EXPECT_GT(t.count(EventKind::TxnCommit), 0u);
    EXPECT_GT(t.count(EventKind::CtxSwitch), 0u);

    // The full capture exports to well-formed Chrome JSON.
    std::ostringstream os;
    obs::writeChromeTrace(os, t);
    std::string err;
    EXPECT_TRUE(jsonValidate(os.str(), &err)) << err;
#endif
}

TEST(ObservedMachine, UniprocessorHasNoNocTraffic)
{
    setQuiet(true);
    MachineConfig cfg = mpConfig();
    cfg.name = "test-obs-uni";
    cfg.numCpus = 1;
    Machine m(cfg);
    obs::Observability o(observeEverything());
    m.attachObservability(&o);
    const RunResult r = m.run();
    EXPECT_TRUE(r.dbConsistent);
#ifdef ISIM_OBS
    EXPECT_EQ(o.tracer().count(EventKind::NocEnqueue), 0u);
    EXPECT_GT(o.tracer().count(EventKind::MissCompleted), 0u);
#endif
}

TEST(ObservedMachine, HostInstrumentationKeepsFigureJsonBitIdentical)
{
    setQuiet(true);
    // Host-side observability — an attached trace/timeline bundle —
    // must leave the figure JSON BYTE-identical to a bare run. Host
    // data goes to the trace files, never into figure outputs.
    FigureSpec spec;
    spec.id = "TestFig";
    spec.title = "host instrumentation bit-identity";
    for (const char *name : {"bar-a", "bar-b"}) {
        FigureBar bar;
        bar.config = mpConfig(30);
        bar.config.name = name;
        spec.bars.push_back(bar);
    }

    RunOptions options;
    options.verbose = false;
    options.jobs = 2;
    const FigureResult bare = ExperimentRunner(options).run(spec);
    const std::string bareJson = figureToJson(bare);

    RunOptions instrumented = options;
    instrumented.obs.traceOutPath =
        testing::TempDir() + "/obs_host_trace.json";
    instrumented.obs.timelineOutPath =
        testing::TempDir() + "/obs_host_timeline.csv";
    instrumented.obs.epochTicks = 200000;
    const FigureResult observed =
        ExperimentRunner(instrumented).run(spec);
    std::remove(instrumented.obs.traceOutPath.c_str());
    std::remove(instrumented.obs.timelineOutPath.c_str());

    EXPECT_EQ(bareJson, figureToJson(observed));
}

// ---- End to end: --stats-epoch rows ----

FigureSpec
twoBarSpec()
{
    FigureSpec spec;
    spec.id = "EpochFig";
    spec.title = "epoch rows";
    for (const char *name : {"bar-a", "bar-b"}) {
        FigureBar bar;
        bar.config = mpConfig(30);
        bar.config.name = name;
        spec.bars.push_back(bar);
    }
    spec.bars[1].config.numCpus = 2;
    return spec;
}

RunOptions
epochOptions(unsigned jobs)
{
    RunOptions options;
    options.verbose = false;
    options.jobs = jobs;
    options.statsEpochTicks = 200000;
    return options;
}

void
expectContiguous(const std::vector<stats::EpochRow> &rows, Tick start,
                 Tick end, Tick epoch_ticks)
{
    ASSERT_FALSE(rows.empty());
    EXPECT_EQ(rows.front().start, start);
    EXPECT_EQ(rows.back().end, end);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].epoch, rows[i].start / epoch_ticks) << i;
        EXPECT_LE(rows[i].end - rows[i].start, epoch_ticks) << i;
        if (i > 0) {
            EXPECT_EQ(rows[i].start, rows[i - 1].end) << i;
        }
    }
}

TEST(EpochRows, ConserveTheMeasuredStatsAcrossJobs)
{
    setQuiet(true);
    const FigureSpec spec = twoBarSpec();
    const FigureResult serial = ExperimentRunner(epochOptions(1)).run(spec);
    const FigureResult parallel =
        ExperimentRunner(epochOptions(2)).run(spec);
    EXPECT_EQ(figureStatsJson(serial), figureStatsJson(parallel));

    for (const RunResult &r : serial.runs) {
        SCOPED_TRACE(r.name);
        ASSERT_FALSE(r.epochs.empty());
        // The run ends where the last row does; the measured window
        // is the run's last wallTime ticks.
        const Tick end = r.epochs.back().end;
        const Tick warm_end = end - r.wallTime;
        expectContiguous(r.epochs, 0, end, 200000);
        // The warm-up reset rebases the recorder, so the rows after
        // the warm boundary hold exactly the measured counts.
        for (std::size_t c = 0; c < stats::numEpochColumns; ++c) {
            const char *stat = stats::epochColumns[c].stat;
            if (stat == nullptr)
                continue;
            std::uint64_t sum = 0;
            for (const stats::EpochRow &row : r.epochs) {
                if (row.end > warm_end)
                    sum += row.delta[c];
            }
            EXPECT_EQ(static_cast<double>(sum), r.stat(stat)) << stat;
        }
    }
}

TEST(EpochRows, CtxSwitchesCountedWithoutTracing)
{
    setQuiet(true);
    const FigureResult result =
        ExperimentRunner(epochOptions(2)).run(twoBarSpec());
    for (const RunResult &r : result.runs) {
        std::uint64_t switches = 0;
        for (const stats::EpochRow &row : r.epochs) {
            for (std::size_t c = 0; c < stats::numEpochColumns; ++c) {
                if (stats::epochColumns[c].stat == nullptr)
                    switches += row.delta[c];
            }
        }
        EXPECT_GT(switches, 0u) << r.name;
    }
}

TEST(EpochRows, SampledBarsCarryContiguousRows)
{
    setQuiet(true);
    FigureSpec spec = twoBarSpec();
    for (FigureBar &bar : spec.bars) {
        bar.config.workload.transactions = 80;
        bar.config.workload.warmupTransactions = 10;
    }
    RunOptions options = epochOptions(2);
    options.sample.ff = 10;
    options.sample.measure = 10;
    options.sample.validate();
    const FigureResult result = ExperimentRunner(options).run(spec);

    JsonValue doc;
    ASSERT_TRUE(jsonParse(figureStatsJson(result), doc));
    const JsonValue *bars = doc.get("bars");
    ASSERT_NE(bars, nullptr);
    ASSERT_EQ(bars->array.size(), 2u);
    for (std::size_t b = 0; b < 2; ++b) {
        const RunResult &r = result.runs[b];
        ASSERT_TRUE(r.sampling.enabled);
        const JsonValue *epochs = bars->array[b].get("epochs");
        ASSERT_NE(epochs, nullptr) << r.name;
        EXPECT_EQ(epochs->array.size(), r.epochs.size());
        expectContiguous(r.epochs, 0, r.epochs.back().end, 200000);
    }
}

TEST(EpochRows, StatsEpochIsTheTimelineGridOfTheObservedBar)
{
    setQuiet(true);
    RunOptions options = epochOptions(2);
    options.obs.timelineOutPath =
        testing::TempDir() + "/epoch_rows_timeline.csv";
    options.obs.epochTicks = 50000; // overridden by --stats-epoch
    const FigureResult result =
        ExperimentRunner(options).run(twoBarSpec());
    for (const RunResult &r : result.runs)
        expectContiguous(r.epochs, 0, r.epochs.back().end, 200000);

    // The CSV renders the observed bar's manifest rows, line for line.
    std::ifstream in(options.obs.timelineOutPath);
    std::ostringstream expected;
    obs::writeTimelineCsv(expected, result.runs[0].epochs);
    std::ostringstream written;
    written << in.rdbuf();
    EXPECT_EQ(written.str(), expected.str());
    std::remove(options.obs.timelineOutPath.c_str());
}

} // namespace
} // namespace isim
