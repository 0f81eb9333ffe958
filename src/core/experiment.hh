/**
 * @file
 * Experiment harness: a figure is a list of machine configurations
 * plus the paper's published (normalized) bar heights; running it
 * produces measured results side by side with the paper's values.
 *
 * Every bar of a figure is an independent machine, so the runner
 * executes them on a small worker pool (RunOptions::jobs threads,
 * default one per core). Each run is self-contained — per-machine
 * state, per-run observability bundle, RNG seeded from the config —
 * and every option reaches the runner through the caller's
 * RunOptions, resolved once, up front (a front end folds the ISIM_*
 * environment and its flags in via RunOptions::fromCommandLine; the
 * runner never reads the environment). Results land in spec order
 * regardless of completion order, so a figure's output is
 * bit-identical at any job count.
 */

#ifndef ISIM_CORE_EXPERIMENT_HH
#define ISIM_CORE_EXPERIMENT_HH

#include <optional>
#include <string>
#include <vector>

#include "src/config/run_options.hh"
#include "src/core/machine.hh"
#include "src/obs/observability.hh"

namespace isim {

struct SweepSpec;

/** One bar of a figure. */
struct FigureBar
{
    MachineConfig config;
    /** Paper's normalized execution time (percent), if legible. */
    std::optional<double> paperExecTime;
    /** Paper's normalized L2 miss count (percent), if legible. */
    std::optional<double> paperMisses;
};

/** A full figure (or table) specification. */
struct FigureSpec
{
    std::string id;    //!< e.g. "Figure 5"
    std::string title;
    std::vector<FigureBar> bars;
    std::size_t normalizeTo = 0; //!< bar whose value is 100
    bool multiprocessor = false;
};

/** Result of running a figure. */
struct FigureResult
{
    FigureSpec spec;
    std::vector<RunResult> runs;
};

/**
 * Filesystem slug of a machine name (lower-cased alphanumerics,
 * everything else `_`, 64 chars max — the figure-stem rules), and the
 * checkpoint path `<dir>/<slug>.ckpt` the runner saves/restores.
 */
std::string checkpointSlug(const std::string &name);
std::string checkpointPath(const std::string &dir,
                           const std::string &name);

/**
 * Runs every configuration of a figure, concurrently when the
 * options allow (each run builds a fresh machine; see RunOptions).
 */
class ExperimentRunner
{
  public:
    /** Options resolved by the caller (see the file comment). */
    explicit ExperimentRunner(const RunOptions &options)
        : options_(options)
    {
    }

    FigureResult run(const FigureSpec &spec) const;
    /** Expand the sweep's cross-product and run it like a figure. */
    FigureResult run(const SweepSpec &sweep) const;
    /** Run one configuration. */
    RunResult runOne(const MachineConfig &config) const;

  private:
    /** Run one configuration with an observability bundle attached. */
    RunResult runObserved(const MachineConfig &config,
                          obs::Observability &o) const;
    RunResult runBar(const FigureSpec &spec, std::size_t index,
                     std::size_t observed_index) const;
    /**
     * Build (or restore, with fromCkptDir) the machine, run it, and
     * save a warm checkpoint when saveCkptDir asks for one. The
     * shared back end of runOne / runObserved.
     */
    RunResult runMachine(const MachineConfig &config,
                         obs::Observability *o) const;

    RunOptions options_;
};

} // namespace isim

#endif // ISIM_CORE_EXPERIMENT_HH
