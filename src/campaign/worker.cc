/**
 * @file
 * Campaign lease execution.
 */

#include "src/campaign/worker.hh"

#include <filesystem>

#include "src/base/logging.hh"
#include "src/campaign/cache.hh"
#include "src/core/report.hh"
#include "src/sample/controller.hh"

namespace isim {
namespace campaign {

namespace {

/** Atomically place the group's warm image (tmp + rename). */
void
saveImageAtomic(const Machine &machine, const std::string &path)
{
    const std::string tmp = path + ".tmp";
    machine.saveCheckpoint(tmp);
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        isim_fatal("rename '%s' -> '%s' failed: %s", tmp.c_str(),
                   path.c_str(), ec.message().c_str());
}

} // namespace

BarOutcome
runLeasedBar(const CampaignPlan &plan, const Lease &lease,
             const std::string &out_dir)
{
    isim_assert(lease.index < plan.bars.size(), "lease out of range");
    const CampaignBar &bar = plan.bars[lease.index];
    const std::string image = imagePath(out_dir, bar.groupKey);
    try {
        std::unique_ptr<Machine> machine;
        switch (lease.mode) {
          case LeaseMode::Cold:
          case LeaseMode::Build:
          case LeaseMode::ImageOnly:
            machine = std::make_unique<Machine>(bar.config);
            machine->runWarmup();
            if (lease.mode != LeaseMode::Cold)
                saveImageAtomic(*machine, image);
            if (lease.mode == LeaseMode::ImageOnly)
                return {true, ""};
            break;
          case LeaseMode::Restore:
            machine = Machine::fromCheckpoint(image, bar.config.level,
                                              bar.config.l2Impl);
            // A restore is valid only against this bar's group: any
            // other image would measure a different machine.
            if (warmGroupKey(machine->config()) != bar.groupKey)
                return {false, "warm image '" + image +
                                   "' does not match the bar's "
                                   "configuration group"};
            break;
        }

        RunResult r;
        if (plan.sample.enabled()) {
            sample::SampleController controller(*machine, plan.sample);
            r = controller.run();
        } else {
            r = machine->runMeasurement();
        }
        // A restored machine reports under the image's (builder's)
        // name; the result belongs to this bar.
        r.name = bar.name;
        r.resultKey = bar.key;
        r.configDigest = bar.configDigest;
        r.seed = bar.seed;
        if (!r.dbConsistent)
            return {false, "TPC-B consistency check failed"};

        // The cached bar file is a one-bar figure manifest; it must be
        // byte-stable across resumes (docs/CAMPAIGN.md).
        FigureResult cell;
        cell.spec.id = bar.figureId;
        cell.spec.title = "campaign cell";
        cell.runs.push_back(std::move(r));
        writeFileAtomic(barStatsPath(out_dir, bar.key),
                        figureStatsJson(cell));
        return {true, ""};
    } catch (const PanicError &e) {
        return {false, e.what()};
    }
}

} // namespace campaign
} // namespace isim
