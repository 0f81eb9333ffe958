/**
 * @file
 * Observability subsystem tests: event-ring wraparound and capacity
 * accounting, timeline-sampler epoch boundary math (partial first and
 * last epochs, rebase after a stats reset), exporter well-formedness
 * (Chrome JSON parses back, CSV headers), the binary capture round
 * trip, and — end to end — that attaching observability to a machine
 * records events without perturbing the simulated results, and that
 * host-side instrumentation leaves figure JSON byte-identical.
 */

#include <gtest/gtest.h>

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
#include "src/obs/sampler.hh"
#include "src/obs/tracer.hh"
#include "src/prof/profiler.hh"

namespace isim {
namespace {

using obs::CounterSnapshot;
using obs::EventKind;
using obs::EventRing;
using obs::TimelineSampler;
using obs::TraceEvent;
using obs::Tracer;

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

TEST(Sampler, GridAnchoredPartialEpochs)
{
    CounterSnapshot counters;
    TimelineSampler s(100, [&] { return counters; });

    counters.committedTxns = 10;
    s.start(250); // mid-grid: first epoch is partial [250, 300)
    EXPECT_FALSE(s.due(299));

    counters.committedTxns = 16;
    EXPECT_TRUE(s.due(300));
    s.advance(455);
    ASSERT_EQ(s.rows().size(), 2u);
    EXPECT_EQ(s.rows()[0].epoch, 2u);
    EXPECT_EQ(s.rows()[0].start, 250u);
    EXPECT_EQ(s.rows()[0].end, 300u);
    EXPECT_EQ(s.rows()[0].delta.committedTxns, 6u);
    // The epoch [300, 400) saw no counter movement: zero-delta row.
    EXPECT_EQ(s.rows()[1].epoch, 3u);
    EXPECT_EQ(s.rows()[1].start, 300u);
    EXPECT_EQ(s.rows()[1].end, 400u);
    EXPECT_EQ(s.rows()[1].delta.committedTxns, 0u);

    counters.committedTxns = 20;
    s.finish(455); // trailing partial epoch [400, 455)
    ASSERT_EQ(s.rows().size(), 3u);
    EXPECT_EQ(s.rows()[2].epoch, 4u);
    EXPECT_EQ(s.rows()[2].start, 400u);
    EXPECT_EQ(s.rows()[2].end, 455u);
    EXPECT_EQ(s.rows()[2].delta.committedTxns, 4u);
    // tps normalizes by the partial extent, not the epoch length.
    EXPECT_DOUBLE_EQ(s.rows()[2].tps(), 4.0 * 1e9 / 55.0);
}

TEST(Sampler, StartOnGridLineIsAFullFirstEpoch)
{
    CounterSnapshot counters;
    TimelineSampler s(100, [&] { return counters; });
    s.start(200);
    counters.committedTxns = 3;
    s.advance(300);
    ASSERT_EQ(s.rows().size(), 1u);
    EXPECT_EQ(s.rows()[0].epoch, 2u);
    EXPECT_EQ(s.rows()[0].start, 200u);
    EXPECT_EQ(s.rows()[0].end, 300u);
}

TEST(Sampler, FinishInsideFirstEpochEmitsOnePartialRow)
{
    CounterSnapshot counters;
    TimelineSampler s(1000, [&] { return counters; });
    s.start(0);
    counters.committedTxns = 2;
    s.finish(40);
    ASSERT_EQ(s.rows().size(), 1u);
    EXPECT_EQ(s.rows()[0].start, 0u);
    EXPECT_EQ(s.rows()[0].end, 40u);
    EXPECT_EQ(s.rows()[0].delta.committedTxns, 2u);
    // finish() is idempotent; later calls add nothing.
    s.finish(90);
    EXPECT_EQ(s.rows().size(), 1u);
}

TEST(Sampler, RebaseAbsorbsStatsReset)
{
    CounterSnapshot counters;
    counters.instructions = 100;
    TimelineSampler s(100, [&] { return counters; });
    s.start(0);
    counters.instructions = 5; // external stats reset went backwards
    s.rebase();
    counters.instructions = 12;
    s.advance(100);
    ASSERT_EQ(s.rows().size(), 1u);
    EXPECT_EQ(s.rows()[0].delta.instructions, 7u);
}

TEST(Sampler, SinceSaturatesOnBackwardsCounters)
{
    CounterSnapshot base, cur;
    base.committedTxns = 50;
    cur.committedTxns = 8; // went backwards: report post-reset value
    base.busy = 10;
    cur.busy = 30;
    const CounterSnapshot d = cur.since(base);
    EXPECT_EQ(d.committedTxns, 8u);
    EXPECT_EQ(d.busy, 20u);
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
    EXPECT_EQ(std::string(obs::timelineCsvHeader()).rfind("epoch,", 0),
              0u);

    CounterSnapshot counters;
    TimelineSampler s(100, [&] { return counters; });
    s.start(0);
    counters.committedTxns = 1;
    s.finish(150);
    std::ostringstream os;
    obs::writeTimelineCsv(os, s);
    std::istringstream lines(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, obs::timelineCsvHeader());
    std::size_t rows = 0;
    while (std::getline(lines, line))
        ++rows;
    EXPECT_EQ(rows, s.rows().size());

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
    const RunResult r = m.run();
    EXPECT_TRUE(r.dbConsistent);

    // The timeline covers the whole run in contiguous epochs.
    ASSERT_NE(o.sampler(), nullptr);
    const auto &rows = o.sampler()->rows();
    ASSERT_FALSE(rows.empty());
    EXPECT_EQ(rows.front().start, 0u);
    for (std::size_t i = 1; i < rows.size(); ++i)
        EXPECT_EQ(rows[i].start, rows[i - 1].end);
    std::uint64_t timeline_txns = 0;
    for (const auto &row : rows)
        timeline_txns += row.delta.committedTxns;
    // The commit counter is cumulative across the warm-up boundary
    // (the rebase only absorbs the slice since the last boundary), so
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
    // Host-side observability — runtime-enabled self-profiling AND an
    // attached trace/timeline bundle — must leave the figure JSON
    // BYTE-identical to a bare run. Host data goes to prof.json and
    // the trace files, never into figure outputs.
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

    const bool wasEnabled = prof::enabled();
    prof::setEnabled(true);
    RunOptions instrumented = options;
    instrumented.obs.traceOutPath =
        testing::TempDir() + "/obs_host_trace.json";
    instrumented.obs.timelineOutPath =
        testing::TempDir() + "/obs_host_timeline.csv";
    instrumented.obs.epochTicks = 200000;
    const FigureResult observed =
        ExperimentRunner(instrumented).run(spec);
    prof::setEnabled(wasEnabled);
    std::remove(instrumented.obs.traceOutPath.c_str());
    std::remove(instrumented.obs.timelineOutPath.c_str());

    EXPECT_EQ(bareJson, figureToJson(observed));
}

} // namespace
} // namespace isim
