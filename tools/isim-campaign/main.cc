/**
 * @file
 * isim-campaign — run an entire design-space study as one resumable
 * job (see docs/CAMPAIGN.md).
 *
 * Usage:
 *   isim-campaign run    <spec.json> --out DIR [--jobs N]
 *                        [--stop-after K] [run options]
 *   isim-campaign expand <spec.json> [run options]
 *   isim-campaign status <spec.json> --out DIR [run options]
 *
 * `run` executes (or resumes) the campaign: completed cells found in
 * the output directory are skipped, the rest run on --jobs lease
 * threads in this process and the results are merged into a
 * campaign.json that isim-stat consumes. `expand` prints the bar
 * plan — names, content-address keys, checkpoint groups — without
 * running anything. `status` reports how much of the campaign is
 * already in the cache; `status --watch` is the live view of a
 * running campaign.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/base/json.hh"
#include "src/campaign/cache.hh"
#include "src/campaign/queue.hh"
#include "src/campaign/supervisor.hh"
#include "src/stats/manifest.hh"

namespace {

using namespace isim;

int
usage(std::FILE *to, const char *argv0)
{
    std::fprintf(
        to,
        "usage: %s run    <spec.json> --out DIR [options]\n"
        "       %s expand <spec.json> [options]\n"
        "       %s status <spec.json> --out DIR [options]\n"
        "\n"
        "Runs a campaign spec (schema \"isim-campaign\") as one "
        "resumable job:\ncompleted cells are skipped on rerun, bars "
        "sharing a warm image are\nbuilt once and restored many "
        "times, and the merged campaign.json is a\nregular isim-stats "
        "manifest. See docs/CAMPAIGN.md.\n"
        "\nCampaign options:\n"
        "  --out=DIR            campaign output/cache directory "
        "(required)\n"
        "  --stop-after=K       stop after K lease completions, exit "
        "3 (resume\n                       testing)\n"
        "  --watch              (status) poll every 2s until no cell "
        "is pending\n"
        "\nRun options (shared with isim-fig):\n%s",
        argv0, argv0, argv0, runOptionsHelp());
    return to == stdout ? 0 : 2;
}

/** Consume `--flag VALUE` / `--flag=VALUE` from an arg list. */
bool
takeValue(std::vector<std::string> &args, std::size_t &i,
          const char *flag, std::string &value)
{
    const std::string &arg = args[i];
    const std::size_t n = std::strlen(flag);
    if (arg.compare(0, n, flag) != 0)
        return false;
    if (arg.size() > n && arg[n] == '=') {
        value = arg.substr(n + 1);
        args.erase(args.begin() + static_cast<long>(i));
        return true;
    }
    if (arg.size() != n)
        return false;
    if (i + 1 >= args.size()) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
    }
    value = args[i + 1];
    args.erase(args.begin() + static_cast<long>(i),
               args.begin() + static_cast<long>(i) + 2);
    return true;
}

int
cmdExpand(const std::string &spec_path, const RunOptions &opts)
{
    const campaign::CampaignSpec spec =
        campaign::loadCampaignSpec(spec_path);
    const campaign::CampaignPlan plan =
        campaign::expandCampaign(spec, opts);
    std::printf("campaign '%s': %zu bars, %zu checkpoint groups\n",
                spec.name.c_str(), plan.bars.size(),
                plan.groups.size());
    for (const campaign::CampaignBar &bar : plan.bars) {
        const char *role = "";
        const auto it = plan.groups.find(bar.groupKey);
        if (it != plan.groups.end()) {
            role = it->second.front() == bar.index ? "  [builds image]"
                                                   : "  [restores]";
        }
        if (bar.aliasOf != campaign::kNoAlias) {
            std::printf("%4zu  %-40s key=%s  alias of %zu\n",
                        bar.index, bar.name.c_str(), bar.key.c_str(),
                        bar.aliasOf);
            continue;
        }
        std::printf("%4zu  %-40s key=%s  group=%s%s\n", bar.index,
                    bar.name.c_str(), bar.key.c_str(),
                    bar.groupKey.c_str(), role);
    }
    return 0;
}

/**
 * Bars campaign.json recorded as failed, keyed by content address.
 * A failed bar has no cached result file, so without this a crashed
 * cell is indistinguishable from one that simply has not run yet.
 */
std::map<std::string, std::string>
failedBars(const std::string &out_dir)
{
    std::map<std::string, std::string> failed;
    std::ifstream in(out_dir + "/campaign.json", std::ios::binary);
    if (!in)
        return failed;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    JsonValue doc;
    if (!jsonParse(buffer.str(), doc, nullptr))
        return failed;
    for (const stats::BarMetaView &view : stats::manifestMeta(doc)) {
        if (view.meta.status == "failed")
            failed.emplace(view.meta.key, view.bar);
    }
    return failed;
}

int
cmdStatus(const std::string &spec_path, const std::string &out_dir,
          const RunOptions &opts, bool watch)
{
    // The same read-only drift test `run` refuses resume on: a status
    // check against the wrong study must fail loudly, not report a
    // plausible-looking cache fill.
    if (campaign::specDrift(spec_path, out_dir) ==
        campaign::SpecDrift::Drifted) {
        std::fprintf(stderr,
                     "isim-campaign: '%s' was created for a different "
                     "spec than '%s' (spec drift); `run` would refuse "
                     "to resume here\n",
                     out_dir.c_str(), spec_path.c_str());
        return 2;
    }

    const campaign::CampaignSpec spec =
        campaign::loadCampaignSpec(spec_path);
    const campaign::CampaignPlan plan =
        campaign::expandCampaign(spec, opts);

    struct Counts
    {
        std::size_t cached = 0;
        std::size_t pending = 0;
        std::size_t failed = 0;
    };

    for (;;) {
        const std::map<std::string, std::string> failed =
            failedBars(out_dir);
        std::vector<std::string> figureOrder;
        std::map<std::string, Counts> byFigure;
        Counts total;
        for (const campaign::CampaignBar &bar : plan.bars) {
            if (bar.aliasOf != campaign::kNoAlias)
                continue; // aliases share their primary's fate
            if (byFigure.find(bar.figureId) == byFigure.end())
                figureOrder.push_back(bar.figureId);
            Counts &fig = byFigure[bar.figureId];
            const char *state = "pending";
            if (campaign::barResultCached(
                    campaign::barStatsPath(out_dir, bar.key),
                    bar.key)) {
                state = "cached";
                ++fig.cached;
                ++total.cached;
            } else if (failed.count(bar.key) != 0) {
                state = "failed";
                ++fig.failed;
                ++total.failed;
            } else {
                ++fig.pending;
                ++total.pending;
            }
            if (!watch)
                std::printf("%-8s %s\n", state, bar.name.c_str());
        }
        for (const std::string &figure : figureOrder) {
            const Counts &c = byFigure[figure];
            std::printf("  %-24s %zu cached, %zu pending, %zu "
                        "failed\n",
                        figure.c_str(), c.cached, c.pending,
                        c.failed);
        }
        std::printf("campaign '%s': %zu cached, %zu pending, %zu "
                    "failed\n",
                    spec.name.c_str(), total.cached, total.pending,
                    total.failed);
        if (!watch || total.pending == 0) {
            return total.pending == 0 && total.failed == 0 ? 0 : 1;
        }
        std::fflush(stdout);
        std::this_thread::sleep_for(std::chrono::seconds(2));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const char *argv0 = argv[0];
    RunOptions opts = RunOptions::fromCommandLine(argc, argv);

    std::vector<std::string> args(argv + 1, argv + argc);
    for (const std::string &arg : args) {
        if (arg == "--help" || arg == "-h")
            return usage(stdout, argv0);
    }

    // Campaign-specific flags (RunOptions left the rest to us).
    std::string outDir;
    std::string stopAfterText;
    bool watch = false;
    for (std::size_t i = 0; i < args.size();) {
        if (args[i] == "--watch") {
            watch = true;
            args.erase(args.begin() + static_cast<long>(i));
            continue;
        }
        if (takeValue(args, i, "--out", outDir) ||
            takeValue(args, i, "--stop-after", stopAfterText)) {
            continue;
        }
        ++i;
    }

    if (args.empty())
        return usage(stderr, argv0);
    const std::string command = args.front();
    args.erase(args.begin());

    if (args.size() != 1 || args.front().empty() ||
        args.front()[0] == '-') {
        std::fprintf(stderr, "%s needs exactly one spec file\n",
                     command.c_str());
        return usage(stderr, argv0);
    }
    const std::string specPath = args.front();

    if (command == "expand")
        return cmdExpand(specPath, opts);
    if (command == "status") {
        if (outDir.empty()) {
            std::fprintf(stderr, "status needs --out\n");
            return 2;
        }
        return cmdStatus(specPath, outDir, opts, watch);
    }
    if (command == "run") {
        if (outDir.empty()) {
            std::fprintf(stderr, "run needs --out\n");
            return 2;
        }
        campaign::CampaignRunConfig config;
        config.specPath = specPath;
        config.outDir = outDir;
        config.options = opts;
        if (!stopAfterText.empty()) {
            char *end = nullptr;
            const long v = std::strtol(stopAfterText.c_str(), &end, 10);
            if (end == stopAfterText.c_str() || *end != '\0' ||
                v < 0) {
                std::fprintf(stderr,
                             "--stop-after: expected a non-negative "
                             "integer\n");
                return 2;
            }
            config.stopAfter = v;
        }
        opts.applyGlobal();
        return campaign::runCampaign(config);
    }
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return usage(stderr, argv0);
}
