/**
 * @file
 * The observability bundle: configuration plus the Tracer for one
 * run, and the write-out of its binary capture. A Machine is observed
 * by attaching one of these (Machine::attachObservability). The
 * capture is the run's one event artifact (`itrace chrome` renders it
 * as Chrome JSON); epoch rows live in the stats manifest
 * (--stats-epoch), which `isim-stat timeline` renders as CSV.
 */

#ifndef ISIM_OBS_OBSERVABILITY_HH
#define ISIM_OBS_OBSERVABILITY_HH

#include <string>

#include "src/obs/tracer.hh"

namespace isim::obs {

/** What to capture and where to write it. */
struct ObsConfig
{
    std::string traceBinPath;            //!< binary capture for tools/itrace
    std::size_t ringCapacity = 1u << 18; //!< events retained (8 MiB)
    /** Which figure bar to observe when a spec has several. */
    std::size_t traceBar = 0;

    bool wantsEvents() const { return !traceBinPath.empty(); }
};

/** The tracer and capture file of one observed run. */
class Observability
{
  public:
    explicit Observability(const ObsConfig &config);

    Tracer &tracer() { return tracer_; }
    const Tracer &tracer() const { return tracer_; }

    /** Begin the run: enable event tracing if any was requested. */
    void beginRun() { tracer_.setEnabled(config_.wantsEvents()); }
    /** End of run: stop recording events. */
    void endRun() { tracer_.setEnabled(false); }

    /** Write the requested capture; warn when the ring overflowed. */
    void writeOutputs() const;

  private:
    ObsConfig config_;
    Tracer tracer_;
};

} // namespace isim::obs

#endif // ISIM_OBS_OBSERVABILITY_HH
