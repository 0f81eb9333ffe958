/**
 * @file
 * SampleController: drives a warm Machine through alternating
 * fast-forward and timing measurement windows on a deterministic,
 * seed-derived schedule, and aggregates the per-window registry
 * snapshots into a run-level RunResult with a 95% CI per stat.
 *
 * Each sampling period of ff + measure transactions runs as
 *
 *   [functional skip][warm][reset stats][measure]
 *
 * The skip tier advances the TPC-B database (and the committed count)
 * through a stateless seed-derived parameter stream without emitting a
 * single memory reference — that is where the >= 3x wall-clock saving
 * comes from (docs/SAMPLING.md records the measurement). The warm tier
 * then re-executes the servers' real reference stream through the
 * timing loop to re-warm short-history state (latches, buffer cache,
 * L2 recency) before the window's measurement.
 */

#ifndef ISIM_SAMPLE_CONTROLLER_HH
#define ISIM_SAMPLE_CONTROLLER_HH

#include "src/core/machine.hh"
#include "src/sample/spec.hh"

namespace isim {
namespace sample {

class SampleController
{
  public:
    /**
     * Bind to a machine. The machine must be warm (runWarmup or a
     * checkpoint restore) before run() — the sampled schedule carves
     * up the measurement phase only, never the warm-up.
     */
    SampleController(Machine &machine, const SampleSpec &spec);

    /**
     * Run the sampled measurement and return the aggregated result.
     * Counters (and distribution counts/sums) are expanded to
     * run-level totals by T / covered; formulas report the mean of
     * the per-window values; distributions merge the per-window
     * histograms. RunResult::sampling carries the per-stat bounds.
     * The schedule derives from the workload seed and the window
     * index alone, so the result is bit-identical across --jobs and
     * across checkpoint save/resume.
     */
    RunResult run();

  private:
    Machine &machine_;
    SampleSpec spec_;
};

} // namespace sample
} // namespace isim

#endif // ISIM_SAMPLE_CONTROLLER_HH
