/**
 * @file
 * isim-fig — the figure front end. One binary that can list and run
 * every figure, ablation, and extension experiment in the
 * FigureRegistry, plus the printed tables of the table catalog
 * (tables.hh), so a new experiment needs a catalog entry instead of
 * a new binary + CMake target.
 *
 * Usage:
 *   isim-fig list
 *   isim-fig run <id|prefix|all>... [options]
 *
 * Ids resolve exactly first, then by prefix ("fig10" runs fig10-uni
 * and fig10-mp; "ablation" runs every ablation). Options are the
 * shared run flags (--txns, --warmup, --seed, --jobs, --json-dir,
 * --quiet, --audit-period) and the observability capture flags; the
 * ISIM_* environment variables are fallbacks for the same knobs.
 * Tables simulate nothing and ignore them.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "src/config/options.hh"
#include "src/core/experiment.hh"
#include "src/core/registry.hh"
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
        "\n"
        "Runs figures/ablations/extensions from the registry and "
        "prints the\npaper-style reports and tables. The bars of every "
        "selected figure run as\none plan on --jobs threads; identical "
        "bars run once.\n"
        "\nOptions:\n%s%s"
        "\nEnvironment fallbacks: ISIM_TXNS, ISIM_WARMUP, ISIM_SEED, "
        "ISIM_JOBS,\nISIM_JSON_DIR, ISIM_AUDIT_PERIOD (flags win).\n",
        argv0, argv0, isim::runOptionsHelp(), isim::obsOptionsHelp());
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

} // namespace

int
main(int argc, char **argv)
{
    const RunOptions opts = RunOptions::fromCommandLine(argc, argv);

    std::vector<std::string> args(argv + 1, argv + argc);
    for (const std::string &arg : args) {
        if (arg == "--help" || arg == "-h")
            return usage(stdout, argv[0]);
    }
    if (args.empty())
        return usage(stderr, argv[0]);

    const std::string &command = args.front();
    if (command == "list") {
        if (args.size() != 1) {
            std::fprintf(stderr, "list takes no arguments\n");
            return 2;
        }
        return list();
    }
    if (command == "run") {
        const std::vector<std::string> ids(args.begin() + 1,
                                           args.end());
        if (ids.empty()) {
            std::fprintf(stderr,
                         "run needs at least one figure id\n");
            return usage(stderr, argv[0]);
        }
        for (const std::string &id : ids) {
            if (!id.empty() && id[0] == '-') {
                std::fprintf(stderr, "unknown option '%s'\n",
                             id.c_str());
                return usage(stderr, argv[0]);
            }
        }
        return run(ids, opts);
    }
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return usage(stderr, argv[0]);
}
