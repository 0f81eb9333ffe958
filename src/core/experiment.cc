/**
 * @file
 * Experiment harness implementation: figures planned and run on the
 * campaign executor (src/campaign/worker.hh).
 */

#include "src/core/experiment.hh"

#include <cctype>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <system_error>

#include "src/base/json.hh"
#include "src/base/logging.hh"
#include "src/campaign/worker.hh"
#include "src/core/report.hh"

namespace isim {

namespace {

void
writeTextFile(const std::string &path, const std::string &content,
              const char *what)
{
    std::ofstream out(path);
    if (!out)
        isim_fatal("cannot write %s: %s", what, path.c_str());
    out << content;
    if (!out)
        isim_fatal("write of %s failed: %s", what, path.c_str());
}

/** Create the --json-dir and its parents; fatal, naming it, on failure. */
void
makeJsonDir(const std::string &path)
{
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    if (ec)
        isim_fatal("cannot create --json-dir directory %s: %s", path.c_str(),
                   ec.message().c_str());
}

} // namespace

std::string
checkpointSlug(const std::string &name)
{
    std::string slug;
    for (const char c : name) {
        slug += std::isalnum(static_cast<unsigned char>(c))
                    ? static_cast<char>(std::tolower(
                          static_cast<unsigned char>(c)))
                    : '_';
    }
    return slug.substr(0, 64);
}

std::string
checkpointPath(const std::string &dir, const std::string &name)
{
    return dir + "/" + checkpointSlug(name) + ".ckpt";
}

std::string
figureJsonStem(const FigureSpec &spec)
{
    return checkpointSlug(spec.id + "_" + spec.title);
}

std::vector<FigureResult>
runFigures(const std::vector<FigureSpec> &specs, const RunOptions &options)
{
    if (specs.empty())
        return {};
    // Fail on an unusable --json-dir before any bar is simulated.
    if (!options.jsonDir.empty())
        makeJsonDir(options.jsonDir);
    const campaign::CampaignPlan plan =
        campaign::planFigures(specs, options);
    const std::size_t n = plan.bars.size();
    std::vector<RunResult> runs(n);
    std::vector<std::exception_ptr> errors(n);
    std::vector<std::unique_ptr<obs::Observability>> observed(n);

    campaign::CampaignQueue queue(plan, "");
    const campaign::CampaignTally &tally = queue.tally();
    campaign::runLeases(
        queue, options.effectiveJobs(tally.total - tally.aliases), -1,
        [&](const campaign::Lease &lease) {
            const std::size_t i = lease.index;
            const char *name = plan.bars[i].config.name.c_str();
            if (plan.bars[i].observed)
                observed[i] = std::make_unique<obs::Observability>(options.obs);
            if (options.verbose)
                isim_inform("running %s%s ...", name,
                            observed[i] ? " (observed)" : "");
            try {
                runs[i] = campaign::runBar(plan, lease, "", observed[i].get());
            } catch (...) {
                errors[i] = std::current_exception();
                throw;
            }
            if (!runs[i].dbConsistent)
                isim_warn("%s: TPC-B consistency check FAILED", name);
        });
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }

    // Figures hold consecutive bars; an alias copies its primary.
    std::vector<FigureResult> results;
    std::size_t i = 0;
    for (const FigureSpec &spec : specs) {
        FigureResult &result = results.emplace_back();
        result.spec = spec;
        for (; result.runs.size() < spec.bars.size(); ++i) {
            const std::size_t alias = plan.bars[i].aliasOf;
            result.runs.push_back(runs[alias == campaign::kNoAlias ? i : alias]);
            if (!observed[i])
                continue;
            observed[i]->writeOutputs();
            if (options.verbose)
                isim_inform("%s: wrote %s", plan.bars[i].config.name.c_str(),
                            options.obs.traceBinPath.c_str());
        }
    }
    return results;
}

void
printFigure(const FigureResult &result, const RunOptions &options)
{
    // The report is the CLI's product output, not a diagnostic.
    // isim-lint: allow(logging): figure reports are the CLI's stdout contract
    printFigureReport(std::cout, result);
    const std::string stem =
        options.jsonDir + "/" + figureJsonStem(result.spec);
    if (!options.jsonDir.empty()) {
        const std::string path = stem + ".json";
        writeTextFile(path, figureToJson(result), "figure JSON");
        isim_inform("json written to %s", path.c_str());
    }
    if (!options.statsOut.empty() || !options.jsonDir.empty()) {
        const std::string path = !options.statsOut.empty()
                                     ? options.statsOut
                                     : stem + ".stats.json";
        const std::string manifest = figureStatsJson(result);
        // The manifest is a machine-interface contract (isim-stat,
        // CI regression diffs); prove it parses before shipping it.
        std::string err;
        if (!jsonValidate(manifest, &err))
            isim_panic("stats manifest does not validate: %s",
                       err.c_str());
        writeTextFile(path, manifest, "stats manifest");
        isim_inform("stats written to %s", path.c_str());
    }
}

} // namespace isim
