/**
 * @file
 * Campaign supervisor: the campaign's use of the executor
 * (worker.hh) — cache cells, --stop-after, the merge.
 */

#include "src/campaign/supervisor.hh"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "src/base/logging.hh"
#include "src/campaign/cache.hh"
#include "src/campaign/merge.hh"
#include "src/campaign/worker.hh"
#include "src/core/report.hh"

namespace isim {
namespace campaign {

namespace {

/**
 * Guard against resuming into a different study: the output
 * directory remembers the spec bytes it was created for.
 */
void
checkSpecCopy(const CampaignRunConfig &config)
{
    switch (specDrift(config.specPath, config.outDir)) {
      case SpecDrift::Match:
        return;
      case SpecDrift::Drifted:
        isim_fatal("'%s' was created for a different spec than "
                   "'%s'; use a fresh --out directory (or restore "
                   "the original spec) instead of mixing studies",
                   config.outDir.c_str(), config.specPath.c_str());
        return;
      case SpecDrift::Missing:
        writeFileAtomic(config.outDir + "/campaign.spec.json",
                        readFileOrDie(config.specPath));
        return;
    }
}

void
finishSummary(const CampaignSpec &spec, const CampaignTally &tally)
{
    isim_inform("campaign '%s': %zu bars (%zu aliases): %zu cached, "
                "%zu ran, %zu failed; images built=%zu restored=%zu",
                spec.name.c_str(), tally.total, tally.aliases,
                tally.cached, tally.ran, tally.failed,
                tally.imagesBuilt, tally.imagesRestored);
}

/** Merge the finished queue into campaign.json; the final exit code. */
int
mergeAndReport(const CampaignRunConfig &config,
               const CampaignPlan &plan, const CampaignQueue &queue)
{
    std::vector<BarStatus> status(plan.bars.size());
    for (const CampaignBar &bar : plan.bars) {
        status[bar.index].ok = queue.barOk(bar.index);
        status[bar.index].reason = queue.failReason(bar.index);
    }
    const std::string merged =
        mergeCampaignJson(plan, config.outDir, status);
    writeFileAtomic(config.outDir + "/campaign.json", merged);
    finishSummary(plan.spec, queue.tally());
    return queue.tally().failed == 0 ? 0 : 2;
}

/**
 * Run one lease and cache its cell: the bar's one-bar stats manifest
 * (META key included), byte-stable across resumes (docs/CAMPAIGN.md).
 * An ImageOnly lease leaves only its image.
 */
void
cacheCell(const CampaignRunConfig &config, const CampaignPlan &plan,
          const Lease &lease)
{
    const CampaignBar &bar = plan.bars[lease.index];
    if (config.options.verbose)
        isim_inform("campaign: %s %s", leaseModeName(lease.mode),
                    bar.name.c_str());
    try {
        RunResult r = runBar(plan, lease, config.outDir);
        if (lease.mode == LeaseMode::ImageOnly)
            return;
        if (!r.dbConsistent)
            throw PanicError("TPC-B consistency check failed");
        r.name = bar.name;
        FigureResult cell;
        cell.spec.id = bar.figureId;
        cell.spec.title = "campaign cell";
        cell.runs.push_back(std::move(r));
        writeFileAtomic(barStatsPath(config.outDir, bar.key),
                        figureStatsJson(cell));
    } catch (const std::exception &e) {
        isim_warn("campaign: %s failed: %s", bar.name.c_str(), e.what());
        throw;
    }
}

/**
 * Execute every pending lease on up to `--jobs` lease threads (never
 * more than there are primary bars), then merge or report the stop.
 */
int
executePlan(const CampaignRunConfig &config, const CampaignPlan &plan)
{
    CampaignQueue queue(plan, config.outDir);
    const CampaignTally &tally = queue.tally();
    long completions = 0;
    {
        // Once for the threads' lifetime: the mode is one process-wide
        // flag, so it must not flip while lease threads run.
        const ScopedPanicThrow guard;
        completions = runLeases(
            queue, config.options.effectiveJobs(tally.total - tally.aliases),
            config.stopAfter,
            [&](const Lease &lease) { cacheCell(config, plan, lease); });
    }

    if (!queue.finished()) {
        isim_assert(config.stopAfter >= 0 &&
                        completions >= config.stopAfter,
                    "scheduler stalled with work remaining");
        finishSummary(plan.spec, tally);
        isim_inform("campaign '%s': stopped after %ld completions; "
                    "rerun to resume",
                    plan.spec.name.c_str(), completions);
        return 3;
    }
    return mergeAndReport(config, plan, queue);
}

} // namespace

SpecDrift
specDrift(const std::string &spec_path, const std::string &out_dir)
{
    std::ifstream existing(out_dir + "/campaign.spec.json",
                           std::ios::binary);
    if (!existing)
        return SpecDrift::Missing;
    std::ostringstream buffer;
    buffer << existing.rdbuf();
    return buffer.str() == readFileOrDie(spec_path)
               ? SpecDrift::Match
               : SpecDrift::Drifted;
}

int
runCampaign(const CampaignRunConfig &config)
{
    const CampaignSpec spec = loadCampaignSpec(config.specPath);
    const CampaignPlan plan = expandCampaign(spec, config.options);
    isim_assert(!plan.bars.empty(), "campaign expands to no bars");

    std::filesystem::create_directories(config.outDir + "/bars");
    std::filesystem::create_directories(config.outDir + "/ckpt");
    checkSpecCopy(config);

    return executePlan(config, plan);
}

} // namespace campaign
} // namespace isim
