/**
 * @file
 * Experiment harness: a figure is a list of machine configurations
 * plus the paper's published (normalized) bar heights; running it
 * produces measured results side by side with the paper's values.
 *
 * runFigures() is the one call that runs figures. It plans them with
 * campaign::planFigures (no cache, no warm groups: every bar runs
 * cold, identical bars once) and runs the plan on the campaign
 * executor's lease threads (RunOptions::jobs). Every option reaches
 * it through the caller's RunOptions; it writes no process-wide
 * state, so the caller's main() installs those knobs once
 * (RunOptions::applyGlobal). Results land in spec order whatever the
 * completion order, so output is bit-identical at any job count.
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
 * Filesystem slug of a name (lower-cased alphanumerics, everything
 * else `_`, 64 chars max; figure JSON stems use it too), and the
 * checkpoint path `<dir>/<slug>.ckpt` a bar saves/restores.
 */
std::string checkpointSlug(const std::string &name);
std::string checkpointPath(const std::string &dir,
                           const std::string &name);

/**
 * Run figures as one plan: their bars share the lease threads, and a
 * bar identical to an earlier one copies its result. The `--json-dir`
 * is created first, so an unusable one fails before any bar runs.
 * Once every bar is done, rethrows the first failed bar's error in
 * spec order; otherwise writes each figure's observed-bar capture
 * files, in spec order, on this thread. An empty list does nothing.
 */
std::vector<FigureResult> runFigures(const std::vector<FigureSpec> &specs,
                                     const RunOptions &options);

/**
 * Print a figure's report to stdout; write `<jsonDir>/<stem>.json`
 * when a JSON directory is set, and the stats manifest to
 * `--stats-out` or next to the JSON.
 */
void printFigure(const FigureResult &result, const RunOptions &options);

/** The JSON file stem of a figure ("figure_5_oltp_with_..."). */
std::string figureJsonStem(const FigureSpec &spec);

} // namespace isim

#endif // ISIM_CORE_EXPERIMENT_HH
