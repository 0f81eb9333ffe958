/**
 * @file
 * The observability bundle: configuration plus the Tracer for one
 * run, and the write-out of whatever outputs were requested. A
 * Machine is observed by attaching one of these
 * (Machine::attachObservability); the timeline CSV renders the
 * machine's epoch rows (stats::EpochRecorder), which the Machine
 * records itself.
 */

#ifndef ISIM_OBS_OBSERVABILITY_HH
#define ISIM_OBS_OBSERVABILITY_HH

#include <string>
#include <vector>

#include "src/obs/tracer.hh"
#include "src/stats/epoch.hh"

namespace isim::obs {

/** What to capture and where to write it. */
struct ObsConfig
{
    std::string traceOutPath;    //!< Chrome trace_event JSON
    std::string traceBinPath;    //!< binary capture for tools/itrace
    std::string timelineOutPath; //!< epoch timeline CSV
    /** Timeline epoch (default 1 ms); --stats-epoch overrides it. */
    Tick epochTicks = 1000000;
    std::size_t ringCapacity = 1u << 18; //!< events retained (8 MiB)
    /** Which figure bar to observe when a spec has several. */
    std::size_t traceBar = 0;

    bool wantsEvents() const
    {
        return !traceOutPath.empty() || !traceBinPath.empty();
    }
    bool wantsTimeline() const { return !timelineOutPath.empty(); }
    bool any() const { return wantsEvents() || wantsTimeline(); }
};

/** The tracer and output files of one observed run. */
class Observability
{
  public:
    explicit Observability(const ObsConfig &config);

    const ObsConfig &config() const { return config_; }
    Tracer &tracer() { return tracer_; }
    const Tracer &tracer() const { return tracer_; }

    /** Begin the run: enable event tracing if any was requested. */
    void beginRun() { tracer_.setEnabled(config_.wantsEvents()); }
    /** End of run: stop recording events. */
    void endRun() { tracer_.setEnabled(false); }

    /**
     * Write every requested output file, the timeline CSV from
     * `timeline` (the observed run's epoch rows); returns a
     * human-readable description of what was written (for the run
     * log).
     */
    std::string
    writeOutputs(const std::vector<stats::EpochRow> &timeline) const;

  private:
    ObsConfig config_;
    Tracer tracer_;
};

} // namespace isim::obs

#endif // ISIM_OBS_OBSERVABILITY_HH
