/**
 * @file
 * Exporter implementations.
 */

#include "src/obs/export.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <ostream>

#include "src/base/json.hh"
#include "src/base/logging.hh"
#include "src/coherence/protocol.hh"

namespace isim::obs {

namespace {

/** Chrome process ids per track group (see export.hh). */
enum : unsigned { pidCpus = 1, pidTxns = 2, pidNoc = 3 };

unsigned
chromePid(EventKind kind)
{
    switch (eventKindCategory(kind)[0]) {
      case 't': // txn
        return pidTxns;
      case 'n': // noc
        return pidNoc;
      default:
        return pidCpus;
    }
}

std::uint64_t
chromeTid(const TraceEvent &e)
{
    // Transaction spans live on per-server tracks; everything else on
    // the emitting core / source node.
    return chromePid(e.kind) == pidTxns ? e.arg : e.cpu;
}

std::string
chromeName(const TraceEvent &e)
{
    switch (e.kind) {
      case EventKind::MissIssued:
      case EventKind::MissCompleted:
      case EventKind::DirRead:
      case EventKind::DirWrite:
      case EventKind::DirUpgrade: {
        std::string name = eventKindName(e.kind);
        name += ' ';
        name += missClassName(
            static_cast<MissClass>(e.cls & clsClassMask));
        if (e.cls & clsUpgrade)
            name += "/upg";
        if (e.cls & clsRacHit)
            name += "/rac";
        return name;
      }
      case EventKind::TxnBegin:
      case EventKind::TxnCommit:
        return std::string("txn pid") + std::to_string(e.arg);
      default:
        return eventKindName(e.kind);
    }
}

void
writeArgs(JsonWriter &w, const TraceEvent &e)
{
    w.key("args").beginObject();
    switch (eventKindCategory(e.kind)[0]) {
      case 'm': // mem
      case 'd': // dir
        w.kv("line", e.addr);
        w.kv("home", std::uint64_t{e.arg});
        w.kv("class",
             missClassName(static_cast<MissClass>(e.cls & clsClassMask)));
        break;
      case 'n': // noc
        w.kv("src", std::uint64_t{e.cpu});
        w.kv("dst", std::uint64_t{e.arg});
        w.kv("bytes", std::uint64_t{e.cls});
        break;
      case 'l': // latch
        w.kv("latch", std::uint64_t{e.arg});
        w.kv("addr", e.addr);
        break;
      case 't': // txn
        w.kv("pid", std::uint64_t{e.arg});
        w.kv("cpu", std::uint64_t{e.cpu});
        break;
      default: // os
        w.kv("next_pid", std::uint64_t{e.arg});
        break;
    }
    w.endObject();
}

void
writeMetadata(JsonWriter &w, unsigned pid, const char *name)
{
    w.beginObject()
        .kv("name", "process_name")
        .kv("ph", "M")
        .kv("pid", pid)
        .kv("tid", 0u);
    w.key("args").beginObject().kv("name", name).endObject();
    w.endObject();
}

} // namespace

void
writeChromeTrace(std::ostream &os,
                 const std::vector<TraceEvent> &events,
                 std::uint64_t dropped)
{
    JsonWriter w(os, /*pretty_depth=*/2);
    w.beginObject();
    w.kv("displayTimeUnit", "ns");
    w.kv("droppedEvents", dropped);
    w.key("traceEvents").beginArray();
    writeMetadata(w, pidCpus, "cpus");
    writeMetadata(w, pidTxns, "transactions");
    writeMetadata(w, pidNoc, "noc");
    for (const TraceEvent &e : events) {
        w.beginObject();
        w.kv("name", chromeName(e));
        w.kv("cat", eventKindCategory(e.kind));
        // ts/dur are microseconds in trace_event; ticks are ns.
        w.kv("ts", static_cast<double>(e.tick) / 1000.0, 3);
        if (e.dur > 0) {
            w.kv("ph", "X");
            w.kv("dur", static_cast<double>(e.dur) / 1000.0, 3);
        } else {
            w.kv("ph", "i");
            w.kv("s", "t");
        }
        w.kv("pid", chromePid(e.kind));
        w.kv("tid", chromeTid(e));
        writeArgs(w, e);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

std::string
timelineCsvHeader()
{
    // tps follows the commits it is derived from; noc_gbps closes the
    // line.
    std::string header = "epoch,start_ns,end_ns";
    for (std::size_t i = 0; i < stats::numEpochColumns; ++i) {
        header += ',';
        header += stats::epochColumns[i].csv;
        if (i == stats::commitsColumn)
            header += ",tps";
    }
    return header + ",noc_gbps";
}

void
writeTimelineCsv(std::ostream &os,
                 const std::vector<stats::EpochRow> &rows)
{
    os << timelineCsvHeader() << "\n";
    char buf[64];
    for (const stats::EpochRow &row : rows) {
        os << row.epoch << ',' << row.start << ',' << row.end;
        for (std::size_t i = 0; i < stats::numEpochColumns; ++i) {
            os << ',' << row.delta[i];
            if (i == stats::commitsColumn) {
                std::snprintf(buf, sizeof(buf), ",%.3f", row.tps());
                os << buf;
            }
        }
        std::snprintf(buf, sizeof(buf), ",%.6f",
                      row.rate(stats::nocBytesColumn));
        os << buf << "\n";
    }
}

void
writeEventCsv(std::ostream &os, const std::vector<TraceEvent> &events)
{
    os << "tick_ns,dur_ns,kind,cat,cpu,cls,arg,addr\n";
    for (const TraceEvent &e : events) {
        os << e.tick << ',' << e.dur << ',' << eventKindName(e.kind)
           << ',' << eventKindCategory(e.kind) << ',' << e.cpu << ','
           << unsigned{e.cls} << ',' << e.arg << ',' << e.addr << "\n";
    }
}

void
writeSummary(std::ostream &os, const std::vector<TraceEvent> &events,
             std::uint64_t dropped, std::size_t capacity)
{
    std::array<std::uint64_t, numEventKinds> counts{};
    Tick first = maxTick, last = 0;
    for (const TraceEvent &e : events) {
        ++counts[static_cast<std::size_t>(e.kind)];
        first = std::min(first, e.tick);
        last = std::max(last, e.tick + e.dur);
    }
    os << "events: " << events.size() << " (dropped " << dropped
       << ", ring capacity " << capacity << ")\n";
    if (dropped > 0) {
        // Through isim_warn, not the summary stream: with -o the
        // summary lands in a file, and a human piping it elsewhere
        // must still see the overflow (and --quiet can silence it).
        // The ring was full, so capacity + dropped is exactly how
        // many events were pushed; suggest the next power of two.
        std::size_t suggested = 1;
        while (suggested < capacity + dropped)
            suggested *= 2;
        isim_warn("trace ring overflowed: %llu events were lost "
                  "(ring capacity %zu); rerun with --trace-ring=%zu "
                  "to capture them all",
                  static_cast<unsigned long long>(dropped), capacity,
                  suggested);
    }
    if (!events.empty()) {
        os << "time range: [" << first << ", " << last << "] ns ("
           << static_cast<double>(last - first) / 1e6 << " ms)\n";
    }
    os << "per-kind counts:\n";
    for (unsigned k = 0; k < numEventKinds; ++k) {
        if (counts[k] == 0)
            continue;
        const EventKind kind = static_cast<EventKind>(k);
        char line[96];
        std::snprintf(line, sizeof(line), "  %-14s %-6s %12llu\n",
                      eventKindName(kind), eventKindCategory(kind),
                      static_cast<unsigned long long>(counts[k]));
        os << line;
    }
}

void
writeCapture(const std::string &path, const Tracer &tracer)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        isim_fatal("cannot open capture file '%s'", path.c_str());
    CaptureHeader h;
    h.magic = captureMagic;
    h.count = tracer.ring().size();
    h.pushed = tracer.ring().pushed();
    h.capacity = tracer.ring().capacity();
    if (std::fwrite(&h, sizeof(h), 1, f) != 1)
        isim_fatal("short write to '%s'", path.c_str());
    tracer.ring().forEach([&](const TraceEvent &e) {
        if (std::fwrite(&e, sizeof(e), 1, f) != 1)
            isim_fatal("short write to '%s'", path.c_str());
    });
    std::fclose(f);
}

bool
readCapture(const std::string &path, CaptureHeader &header,
            std::vector<TraceEvent> &events, std::string &err)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        err = "cannot open '" + path + "'";
        return false;
    }
    if (std::fread(&header, sizeof(header), 1, f) != 1) {
        err = "truncated capture header";
        std::fclose(f);
        return false;
    }
    if (header.magic != captureMagic) {
        err = "not an itrace capture (bad magic)";
        std::fclose(f);
        return false;
    }
    events.clear();
    events.resize(header.count);
    if (header.count > 0 &&
        std::fread(events.data(), sizeof(TraceEvent), header.count, f) !=
            header.count) {
        err = "truncated capture body";
        std::fclose(f);
        return false;
    }
    std::fclose(f);
    return true;
}

} // namespace isim::obs
