/**
 * @file
 * itrace: inspect and convert observability captures.
 *
 * A figure run with --trace-bin=FILE writes the binary capture
 * this tool consumes:
 *
 *   itrace summary capture.bin              per-kind event counts
 *   itrace dump    capture.bin              one line per event
 *   itrace chrome  capture.bin -o out.json  Chrome trace_event JSON
 *   itrace csv     capture.bin -o out.csv   flat event CSV
 *
 * Filters (apply to every command): --kind=NAME, --cpu=N, --from=TICK,
 * --to=TICK (ns, inclusive/exclusive), --limit=N.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/base/logging.hh"
#include "src/obs/event.hh"
#include "src/obs/export.hh"

namespace {

using namespace isim;
using namespace isim::obs;

int
usage(std::ostream &os, int rc)
{
    os << "usage: itrace <command> <capture.bin> [options]\n\n"
          "commands:\n"
          "  summary   per-kind event counts and the capture's span\n"
          "  dump      one text line per event\n"
          "  chrome    convert to Chrome trace_event JSON (Perfetto)\n"
          "  csv       convert to a flat event CSV\n\n"
          "options:\n"
          "  --kind=NAME   keep only events of this kind (e.g. "
          "TxnCommit)\n"
          "  --cpu=N       keep only events from this core/node\n"
          "  --from=TICK   keep events at tick >= TICK (ns)\n"
          "  --to=TICK     keep events at tick < TICK (ns)\n"
          "  --limit=N     keep at most the first N events (after "
          "filters)\n"
          "  --quiet       suppress warnings (e.g. dropped-events)\n"
          "  -o FILE       write output to FILE instead of stdout\n";
    return rc;
}

bool
flagValue(const char *arg, const char *flag, std::string &value)
{
    const std::size_t n = std::strlen(flag);
    if (std::strncmp(arg, flag, n) != 0 || arg[n] != '=')
        return false;
    value = arg + n + 1;
    return true;
}

std::uint64_t
parseUint(const std::string &text, const char *what)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0') {
        std::cerr << "itrace: " << what << ": expected an integer, got '"
                  << text << "'\n";
        std::exit(2);
    }
    return v;
}

bool
kindFromName(const std::string &name, EventKind &out)
{
    for (unsigned k = 0; k < numEventKinds; ++k) {
        const auto kind = static_cast<EventKind>(k);
        if (name == eventKindName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

void
dumpEvents(std::ostream &os, const std::vector<TraceEvent> &events)
{
    for (const TraceEvent &e : events) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%12llu ns %-14s %-6s cpu=%-3u cls=0x%02x "
                      "arg=%-6u dur=%llu addr=0x%llx\n",
                      static_cast<unsigned long long>(e.tick),
                      eventKindName(e.kind), eventKindCategory(e.kind),
                      unsigned{e.cpu}, unsigned{e.cls},
                      unsigned{e.arg},
                      static_cast<unsigned long long>(e.dur),
                      static_cast<unsigned long long>(e.addr));
        os << line;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                      std::strcmp(argv[1], "-h") == 0)) {
        return usage(std::cout, 0);
    }
    if (argc < 3)
        return usage(std::cerr, 2);

    const std::string command = argv[1];
    const std::string path = argv[2];
    if (command != "summary" && command != "dump" &&
        command != "chrome" && command != "csv") {
        std::cerr << "itrace: unknown command '" << command << "'\n\n";
        return usage(std::cerr, 2);
    }

    bool haveKind = false;
    EventKind kind = EventKind::MissIssued;
    std::uint64_t cpu = ~0ull;
    std::uint64_t from = 0, to = ~0ull, limit = ~0ull;
    std::string outPath;
    for (int i = 3; i < argc; ++i) {
        std::string v;
        if (flagValue(argv[i], "--kind", v)) {
            if (!kindFromName(v, kind)) {
                std::cerr << "itrace: unknown event kind '" << v
                          << "'; kinds are:";
                for (unsigned k = 0; k < numEventKinds; ++k) {
                    std::cerr << ' '
                              << eventKindName(static_cast<EventKind>(k));
                }
                std::cerr << "\n";
                return 2;
            }
            haveKind = true;
        } else if (flagValue(argv[i], "--cpu", v)) {
            cpu = parseUint(v, "--cpu");
        } else if (flagValue(argv[i], "--from", v)) {
            from = parseUint(v, "--from");
        } else if (flagValue(argv[i], "--to", v)) {
            to = parseUint(v, "--to");
        } else if (flagValue(argv[i], "--limit", v)) {
            limit = parseUint(v, "--limit");
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            setQuiet(true);
        } else if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc) {
            outPath = argv[++i];
        } else {
            std::cerr << "itrace: unknown option '" << argv[i]
                      << "'\n\n";
            return usage(std::cerr, 2);
        }
    }

    CaptureHeader header;
    std::vector<TraceEvent> events;
    std::string err;
    if (!readCapture(path, header, events, err)) {
        std::cerr << "itrace: " << err << "\n";
        return 1;
    }

    std::vector<TraceEvent> kept;
    kept.reserve(events.size());
    for (const TraceEvent &e : events) {
        if (haveKind && e.kind != kind)
            continue;
        if (cpu != ~0ull && e.cpu != cpu)
            continue;
        if (e.tick < from || e.tick >= to)
            continue;
        if (kept.size() >= limit)
            break;
        kept.push_back(e);
    }

    std::ofstream file;
    if (!outPath.empty()) {
        file.open(outPath);
        if (!file) {
            std::cerr << "itrace: cannot open '" << outPath << "'\n";
            return 1;
        }
    }
    std::ostream &os = outPath.empty() ? std::cout : file;

    const std::uint64_t dropped = header.pushed - header.count;
    if (command == "summary") {
        os << "capture: " << path << "\n";
        writeSummary(os, kept, dropped, header.capacity);
    } else if (command == "dump") {
        dumpEvents(os, kept);
    } else if (command == "chrome") {
        writeChromeTrace(os, kept, dropped);
    } else {
        writeEventCsv(os, kept);
    }
    if (!outPath.empty() && !file) {
        std::cerr << "itrace: write to '" << outPath << "' failed\n";
        return 1;
    }
    return 0;
}
