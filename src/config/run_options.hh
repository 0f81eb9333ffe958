/**
 * @file
 * RunOptions: everything that varies between invocations of the same
 * experiment — transaction counts, seeding, JSON output, parallelism,
 * audit decimation, observability capture — resolved exactly once at
 * startup from the command line (RunOptions::fromCommandLine). A run
 * is its machine configuration plus its flags: nothing else in the
 * process, the environment included, can change it.
 */

#ifndef ISIM_CONFIG_RUN_OPTIONS_HH
#define ISIM_CONFIG_RUN_OPTIONS_HH

#include <cstdint>
#include <optional>
#include <string>

#include "src/obs/observability.hh"
#include "src/oltp/workload_params.hh"
#include "src/sample/spec.hh"

namespace isim {

/** Options of one experiment invocation (not of one machine). */
struct RunOptions
{
    /** Measured-transaction override (unset: the spec's own count). */
    std::optional<std::uint64_t> txns;
    /** Warm-up-transaction override. */
    std::optional<std::uint64_t> warmup;
    /** Workload seed override (applies to every bar of a figure). */
    std::optional<std::uint64_t> seed;
    /** Directory figure JSON is written into ("" = don't write). */
    std::string jsonDir;
    /**
     * Lease threads of the one executor that runs every bar —
     * figures and campaigns alike (campaign::runLeases).
     * 0 = one per hardware thread (std::thread::hardware_concurrency).
     */
    unsigned jobs = 0;
    /** Full-audit decimation period of the invariant auditor. */
    std::uint64_t auditPeriod = std::uint64_t{1} << 20;
    /** Per-run progress lines on stderr. */
    bool verbose = true;
    /**
     * Stats-manifest path override. "" = default: next to the figure
     * JSON as `<stem>.stats.json` (which requires jsonDir). A figure
     * run always produces a manifest when either is set.
     */
    std::string statsOut;
    /**
     * Embed per-epoch counter rows in the manifest, recorded on this
     * tick grid (0 = off), for EVERY bar, sampled runs included: the
     * run's one epoch grid (`isim-stat timeline` renders the rows).
     */
    Tick statsEpochTicks = 0;
    /** What to capture and where (one observed bar per figure). */
    obs::ObsConfig obs;
    /**
     * Directory warm checkpoints are written into after each bar's
     * warm-up ("" = off). One image per machine, named
     * `<slug(config.name)>.ckpt`; see docs/CHECKPOINT.md.
     */
    std::string saveCkptDir;
    /**
     * Directory warm checkpoints are restored from ("" = off). Each
     * bar skips its warm-up and measures from the image; the image's
     * embedded configuration must match the bar's exactly.
     */
    std::string fromCkptDir;
    /**
     * Sampled-simulation axis (docs/SAMPLING.md): off unless
     * --sample-measure is given. Applies to every bar of the run;
     * sampled and exact cells never alias in the campaign cache
     * (the spec participates in the result key).
     */
    sample::SampleSpec sample;

    /**
     * RunOptions{} with the command line applied. Consumes the
     * recognized flags out of argv (argc/argv are rewritten, order of
     * the rest preserved):
     *
     *   --txns N / --txns=N      measured transactions (> 0)
     *   --warmup N               warm-up transactions
     *   --seed N                 workload seed for every bar
     *   --json-dir DIR           write figure JSON into DIR
     *   --jobs N                 lease threads (0 = one per core)
     *   --audit-period N         invariant full-audit period (>= 1)
     *   --stats-out FILE         write the stats manifest to FILE
     *   --stats-epoch TICKS      embed per-epoch rows on this grid
     *   --save-ckpt DIR          save a warm checkpoint per bar
     *   --from-ckpt DIR          restore warm checkpoints (skip warm-up)
     *   --sample-ff N            fast-forward N txns per sampling period
     *   --sample-measure N       measure M txns per window (enables
     *                            sampling; docs/SAMPLING.md)
     *   --sample-windows N       window count (default: derived)
     *   --sample-warm N          warm txns before each window
     *                            (default: min(ff, measure))
     *   --sample-mode fixed|random  window placement within the period
     *   --quiet                  suppress per-run progress lines
     *
     * plus the observability flags (obsFromCommandLine). Flags
     * fatal() on malformed values.
     */
    static RunOptions fromCommandLine(int &argc, char **argv);

    /** Apply the workload overrides (txns / warmup / seed). */
    void applyTo(WorkloadParams &params) const;

    /**
     * Install the process-wide knobs (the invariant-audit period and
     * quiet mode). Call once from main(), before machines run.
     */
    void applyGlobal() const;

    /** Lease threads to actually start for `items` bars that run. */
    unsigned effectiveJobs(std::size_t items) const;
};

/** One-per-line description of the run flags (for usage text). */
const char *runOptionsHelp();

} // namespace isim

#endif // ISIM_CONFIG_RUN_OPTIONS_HH
