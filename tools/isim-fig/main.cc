/**
 * @file
 * isim-fig — the one front end. It lists and runs every figure,
 * ablation, and extension experiment in the FigureRegistry, the printed
 * tables of the table catalog (tables.hh) and machines written as
 * `.cfg` files, so a new experiment needs a catalog entry or a config
 * file instead of a new binary + CMake target.
 *
 * Usage:
 *   isim-fig list
 *   isim-fig run <id|prefix|all>... [options]
 *   isim-fig config <file.cfg>... [options]
 *   isim-fig dump-cfg
 *   isim-fig regions <file.cfg> [--txns N] [--warmup N] [--seed N]
 *
 * Ids resolve exactly first, then by prefix ("fig10" runs fig10-uni
 * and fig10-mp; "ablation" runs every ablation). Options are the
 * shared run flags (--txns, --warmup, --seed, --jobs, --json-dir,
 * --quiet, --audit-period) and the observability capture flags.
 * Tables simulate nothing and ignore them.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/config/options.hh"
#include "src/core/experiment.hh"
#include "src/core/machine.hh"
#include "src/core/registry.hh"
#include "src/stats/table.hh"
#include "tools/isim-fig/tables.hh"

namespace {

using isim::FigureEntry;
using isim::FigureRegistry;
using isim::RunOptions;

int
usage(std::FILE *to, const char *argv0)
{
    std::fprintf(
        to,
        "usage: %s list\n"
        "       %s run <id|prefix|all>... [options]\n"
        "       %s config <file.cfg>... [options]\n"
        "       %s dump-cfg\n"
        "       %s regions <file.cfg> [--txns N] [--warmup N] "
        "[--seed N]\n"
        "\n"
        "Runs figures/ablations/extensions from the registry and "
        "prints the\npaper-style reports and tables. The bars of every "
        "selected figure run as\none plan on --jobs threads; identical "
        "bars run once. `config` runs .cfg\nfiles as the bars of one "
        "figure.\n"
        "\nOptions:\n%s%s",
        argv0, argv0, argv0, argv0, argv0, isim::runOptionsHelp(),
        isim::obsOptionsHelp());
    return to == stdout ? 0 : 2;
}

/** One runnable id: a printed table or a FigureRegistry entry. */
struct Item
{
    std::string id;
    std::string description;
    const isim::fig::TableEntry *table = nullptr;
    const FigureEntry *figure = nullptr;
};

/** The tables, then the registry, each in its own catalog order. */
std::vector<Item>
catalog()
{
    std::vector<Item> items;
    for (const isim::fig::TableEntry &t : isim::fig::tableEntries())
        items.push_back({t.id, t.description, &t, nullptr});
    for (const FigureEntry &e : FigureRegistry::instance().entries())
        items.push_back({e.id, e.description, nullptr, &e});
    return items;
}

/** Exact match if one exists, otherwise every id with that prefix. */
std::vector<const Item *>
resolve(const std::vector<Item> &items, const std::string &id)
{
    std::vector<const Item *> matches;
    for (const Item &item : items) {
        if (id == "all" || item.id == id)
            matches.push_back(&item);
    }
    if (!matches.empty() || id.empty())
        return matches;
    for (const Item &item : items) {
        if (item.id.compare(0, id.size(), id) == 0)
            matches.push_back(&item);
    }
    return matches;
}

int
list()
{
    const std::vector<Item> items = catalog();
    std::size_t width = 0;
    for (const Item &item : items)
        width = std::max(width, item.id.size());
    for (const Item &item : items) {
        std::printf("%-*s  %s\n", static_cast<int>(width),
                    item.id.c_str(), item.description.c_str());
    }
    return 0;
}

int
run(const std::vector<std::string> &ids, const RunOptions &opts)
{
    // Resolve everything up front (and dedupe, preserving catalog
    // order) so an unknown id fails before hours of simulation.
    const std::vector<Item> items = catalog();
    std::vector<const Item *> selected;
    for (const std::string &id : ids) {
        const std::vector<const Item *> matches = resolve(items, id);
        if (matches.empty()) {
            std::fprintf(stderr,
                         "unknown figure id '%s' (try `isim-fig "
                         "list`)\n",
                         id.c_str());
            return 2;
        }
        for (const Item *item : matches) {
            if (std::find(selected.begin(), selected.end(), item) ==
                selected.end()) {
                selected.push_back(item);
            }
        }
    }
    // Every selected figure's bars run first, as one plan; the
    // reports, tables and files then follow in selection order.
    std::vector<isim::FigureSpec> specs;
    for (const Item *item : selected) {
        if (item->figure != nullptr)
            specs.push_back(item->figure->make());
    }
    const std::vector<isim::FigureResult> results =
        isim::runFigures(specs, opts);
    auto result = results.begin();
    for (const Item *item : selected) {
        if (item->table != nullptr) {
            item->table->print(std::cout);
            continue;
        }
        isim::printFigure(*result++, opts);
        std::cout << item->figure->note;
    }
    return 0;
}

/**
 * One bar per file, normalized to the first, run and printed as `run`
 * runs and prints a figure. tests/golden/tiny-stats.json pins the id
 * and title, which name the figure in its JSON and manifest.
 */
int
config(const std::vector<std::string> &files, const RunOptions &opts)
{
    isim::FigureSpec spec;
    spec.id = "run_config";
    spec.title = "machines from configuration files";
    for (const std::string &file : files) {
        isim::FigureBar bar;
        bar.config = isim::machineFromConfig(isim::KvConfig::fromFile(file));
        spec.bars.push_back(bar);
    }
    spec.multiprocessor = spec.bars[0].config.numCpus > 1;
    isim::printFigure(isim::runFigures({spec}, opts).front(), opts);
    return 0;
}

/**
 * Per region: accesses, unique-line footprint and L2 misses of one
 * machine run in this process. It writes no file, restores no image,
 * and neither samples nor captures, so a run option that asks for any
 * of that is fatal.
 */
int
regions(const std::string &file, const RunOptions &opts)
{
    using namespace isim;

    const RunOptions none;
    const sample::SampleSpec &sample = opts.sample;
    const std::pair<bool, const char *> unhonoured[] = {
        {opts.jobs != 0, "--jobs"},
        {!opts.jsonDir.empty(), "--json-dir"},
        {!opts.statsOut.empty(), "--stats-out"},
        {opts.statsEpochTicks != 0, "--stats-epoch"},
        {!opts.saveCkptDir.empty(), "--save-ckpt"},
        {!opts.fromCkptDir.empty(), "--from-ckpt"},
        {sample.ff != 0, "--sample-ff"},
        {sample.measure != 0, "--sample-measure"},
        {sample.windows != 0, "--sample-windows"},
        {sample.warm != none.sample.warm, "--sample-warm"},
        {sample.mode != none.sample.mode, "--sample-mode"},
        {!opts.obs.traceBinPath.empty(), "--trace-bin"},
        {opts.obs.ringCapacity != none.obs.ringCapacity, "--trace-ring"},
        {opts.obs.traceBar != none.obs.traceBar, "--trace-bar"},
    };
    for (const auto &[set, flag] : unhonoured) {
        if (set)
            isim_fatal("regions cannot honour %s: it prints one "
                       "machine's region table and writes nothing",
                       flag);
    }
    MachineConfig cfg = machineFromConfig(KvConfig::fromFile(file));
    opts.applyTo(cfg.workload);

    Machine machine(cfg);
    machine.vm().enableProfiling(true);
    std::vector<std::uint64_t> region_misses(64, 0);
    machine.memSys().setMissHook([&](Addr paddr, RefType, MissClass) {
        const int idx = machine.vm().regionIndexOfPaddr(paddr);
        if (idx >= 0 && idx < static_cast<int>(region_misses.size()))
            ++region_misses[idx];
    });
    const RunResult r = machine.run();

    std::cout << "profiled " << r.transactions << " transactions on "
              << cfg.numCpus << " cpu(s); "
              << static_cast<std::uint64_t>(r.stat("cpu.instructions"))
              << " instructions\n\n";

    const double txns =
        static_cast<double>(r.transactions ? r.transactions : 1);
    Table t({"Region", "Policy", "Size(KB)", "Accesses", "Acc/txn",
             "UniqLines", "Uniq(KB)", "Misses", "Miss/txn"});
    std::uint64_t total_lines = 0;
    const auto profiles = machine.vm().regionProfiles();
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const VirtualMemory::RegionProfile &p = profiles[i];
        const char *policy =
            p.policy == PlacePolicy::Interleave ? "stripe"
            : p.policy == PlacePolicy::Local    ? "local"
                                                : "repl";
        t.row()
            .cell(p.name)
            .cell(policy)
            .count(p.size / 1024)
            .count(p.accesses)
            .num(static_cast<double>(p.accesses) / txns)
            .count(p.uniqueLines)
            .count(p.uniqueLines * 64 / 1024)
            .count(region_misses[i])
            .num(static_cast<double>(region_misses[i]) / txns);
        total_lines += p.uniqueLines;
    }
    t.print(std::cout);
    std::cout << "\ntotal unique footprint: " << total_lines * 64 / 1024
              << " KB\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const int given = argc;
    const RunOptions opts = RunOptions::fromCommandLine(argc, argv);
    const bool runFlags = argc != given;
    opts.applyGlobal();

    std::vector<std::string> args(argv + 1, argv + argc);
    for (const std::string &arg : args) {
        if (arg == "--help" || arg == "-h")
            return usage(stdout, argv[0]);
    }
    if (args.empty())
        return usage(stderr, argv[0]);

    const std::string &command = args.front();
    const std::vector<std::string> operands(args.begin() + 1, args.end());
    for (const std::string &operand : operands) {
        if (!operand.empty() && operand[0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n", operand.c_str());
            return usage(stderr, argv[0]);
        }
    }
    if (command == "list" || command == "dump-cfg") {
        if (!operands.empty() || runFlags) {
            std::fprintf(stderr, "%s takes no arguments\n", command.c_str());
            return 2;
        }
        if (command == "list")
            return list();
        std::cout << isim::machineToConfigText(isim::MachineConfig{});
        return 0;
    }
    if (command == "run" || command == "config") {
        if (operands.empty()) {
            std::fprintf(stderr, "%s needs at least one %s\n",
                         command.c_str(),
                         command == "run" ? "figure id" : "config file");
            return usage(stderr, argv[0]);
        }
        return command == "run" ? run(operands, opts)
                                : config(operands, opts);
    }
    if (command == "regions") {
        if (operands.size() != 1) {
            std::fprintf(stderr, "regions needs exactly one config file\n");
            return usage(stderr, argv[0]);
        }
        return regions(operands.front(), opts);
    }
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return usage(stderr, argv[0]);
}
