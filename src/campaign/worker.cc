/**
 * @file
 * The bar runner and the lease threads.
 *
 * Thread safety (tests/test_parallel.cc runs under TSan in CI): a
 * Machine owns all the mutable state it touches and an observed bar
 * its obs::Observability, so concurrent leases share only the queue
 * (touched under the lock) and data that is read-only while they
 * run: the plan, the logging flags and the audit period. Log lines
 * are written whole, so they never interleave.
 */

#include "src/campaign/worker.hh"

#include <condition_variable>
#include <exception>
#include <filesystem>
#include <mutex>
#include <thread>
#include <vector>

#include "src/base/logging.hh"
#include "src/campaign/cache.hh"
#include "src/ckpt/checkpoint.hh"
#include "src/sample/controller.hh"

namespace isim {
namespace campaign {

RunResult
runBar(const CampaignPlan &plan, const Lease &lease,
       const std::string &out_dir, obs::Observability *o)
{
    isim_assert(lease.index < plan.bars.size(), "lease out of range");
    const CampaignBar &bar = plan.bars[lease.index];
    const MachineConfig &cfg = bar.config;
    // Where the warm-up's image goes, atomically ("" = nowhere).
    std::string image = lease.mode == LeaseMode::Cold
                            ? std::string()
                            : imagePath(out_dir, bar.groupKey);
    std::unique_ptr<Machine> machine;
    if (lease.mode == LeaseMode::Restore) {
        machine = Machine::fromCheckpoint(image, cfg.level, cfg.l2Impl);
        // A restore is valid only against this bar's group: any
        // other image would measure a different machine.
        if (warmGroupKey(machine->config()) != bar.groupKey)
            throw PanicError("warm image '" + image +
                             "' does not match the bar's "
                             "configuration group");
    } else if (!plan.fromCkptDir.empty()) {
        const std::string path = checkpointPath(plan.fromCkptDir, cfg.name);
        machine = Machine::fromCheckpoint(path);
        // Measuring a warm image under different knobs would silently
        // compare incomparable runs; insist on an exact config match.
        if (ckpt::configBytes(machine->config()) != ckpt::configBytes(cfg)) {
            isim_fatal("checkpoint '%s' was taken with a different "
                       "configuration than '%s' requests (txns/seed/"
                       "geometry must match exactly)",
                       path.c_str(), cfg.name.c_str());
        }
    } else {
        machine = std::make_unique<Machine>(cfg);
        if (lease.mode == LeaseMode::Cold && !plan.saveCkptDir.empty()) {
            std::filesystem::create_directories(plan.saveCkptDir);
            image = checkpointPath(plan.saveCkptDir, cfg.name);
        }
    }
    if (o != nullptr)
        machine->attachObservability(o);
    // One epoch grid per run: --stats-epoch records every bar, and
    // the observed bar's timeline CSV renders the same rows.
    Tick epoch = plan.statsEpochTicks;
    if (epoch == 0 && o != nullptr && o->config().wantsTimeline())
        epoch = o->config().epochTicks;
    if (epoch > 0)
        machine->recordEpochs(epoch);
    if (!machine->isWarm()) {
        machine->runWarmup();
        if (!image.empty()) {
            const std::vector<std::uint8_t> bytes = machine->checkpointBytes();
            writeFileAtomic(image, std::string(bytes.begin(), bytes.end()));
        }
    }
    if (lease.mode == LeaseMode::ImageOnly)
        return {};

    RunResult r;
    if (plan.sample.enabled()) {
        sample::SampleController controller(*machine, plan.sample);
        r = controller.run();
    } else {
        r = machine->runMeasurement();
    }
    // A restored machine reports under the image's (builder's) name;
    // the key is the requested config's, checked against the image.
    r.name = cfg.name;
    r.resultKey = bar.key;
    r.configDigest = bar.configDigest;
    r.seed = bar.seed;
    return r;
}

long
runLeases(CampaignQueue &queue, unsigned jobs, long stop_after,
          const std::function<void(const Lease &)> &work)
{
    std::mutex mu;
    std::condition_variable cv;
    long completions = 0;
    unsigned inFlight = 0;

    const auto serve = [&] {
        std::unique_lock<std::mutex> lock(mu);
        while (stop_after < 0 || completions < stop_after) {
            const std::optional<Lease> lease = queue.next();
            if (!lease) {
                if (inFlight == 0)
                    return;
                cv.wait(lock);
                continue;
            }
            ++inFlight;
            lock.unlock();
            std::optional<std::string> failure;
            try {
                work(*lease);
            } catch (const std::exception &e) {
                failure = e.what();
            }
            lock.lock();
            --inFlight;
            if (failure)
                queue.fail(*lease, *failure);
            else
                queue.complete(*lease);
            ++completions;
            cv.notify_all();
        }
    };

    if (jobs <= 1) {
        serve();
        return completions;
    }
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t)
        pool.emplace_back(serve);
    for (std::thread &thread : pool)
        thread.join();
    return completions;
}

} // namespace campaign
} // namespace isim
