/**
 * @file
 * Campaign supervisor: the lease-thread executor.
 */

#include "src/campaign/supervisor.hh"

#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "src/base/logging.hh"
#include "src/campaign/cache.hh"
#include "src/campaign/merge.hh"
#include "src/campaign/worker.hh"

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
 * The executor: up to `--jobs` lease threads (never more than there
 * are primary bars) sharing one queue behind `mu`. A thread that finds nothing
 * leasable while an image build is in flight waits on `cv`; every
 * completion wakes the waiters, so the last one out sees an empty,
 * idle queue and every thread returns. Leases run outside the lock.
 */
int
runLeases(const CampaignRunConfig &config, const CampaignPlan &plan)
{
    CampaignQueue queue(plan, config.outDir);
    std::mutex mu;
    std::condition_variable cv;
    long completions = 0;
    unsigned inFlight = 0;
    const auto stopped = [&] {
        return config.stopAfter >= 0 && completions >= config.stopAfter;
    };

    const auto serve = [&] {
        std::unique_lock<std::mutex> lock(mu);
        while (!stopped()) {
            const std::optional<Lease> lease = queue.next();
            if (!lease) {
                if (inFlight == 0)
                    return;
                cv.wait(lock);
                continue;
            }
            const CampaignBar &bar = plan.bars[lease->index];
            if (config.options.verbose)
                isim_inform("campaign: %s %s",
                            leaseModeName(lease->mode),
                            bar.name.c_str());
            ++inFlight;
            lock.unlock();
            const BarOutcome outcome =
                runLeasedBar(plan, *lease, config.outDir);
            lock.lock();
            --inFlight;
            if (outcome.ok) {
                queue.complete(*lease);
            } else {
                isim_warn("campaign: %s failed: %s", bar.name.c_str(),
                          outcome.reason.c_str());
                queue.fail(*lease, outcome.reason);
            }
            ++completions;
            cv.notify_all();
        }
    };

    {
        // Once for the pool's lifetime: the mode is one process-wide
        // flag, so it must not flip while lease threads run.
        const ScopedPanicThrow guard;
        const CampaignTally &tally = queue.tally();
        const unsigned jobs =
            config.options.effectiveJobs(tally.total - tally.aliases);
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (unsigned t = 0; t < jobs; ++t)
            pool.emplace_back(serve);
        for (std::thread &thread : pool)
            thread.join();
    }

    if (!queue.finished()) {
        isim_assert(stopped(), "scheduler stalled with work remaining");
        finishSummary(plan.spec, queue.tally());
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

    return runLeases(config, plan);
}

} // namespace campaign
} // namespace isim
