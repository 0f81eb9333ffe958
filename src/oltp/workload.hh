/**
 * @file
 * The OLTP engine: owns the SGA, the functional TPC-B database, the
 * metadata/latch/log models and the database code image; creates the
 * server processes and daemons; and coordinates commits between the
 * servers and the log writer (group commit). It is the "Oracle 7.3.2
 * in dedicated mode" of this reproduction.
 */

#ifndef ISIM_OLTP_WORKLOAD_HH
#define ISIM_OLTP_WORKLOAD_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/random.hh"
#include "src/oltp/buffer_cache.hh"
#include "src/oltp/code_model.hh"
#include "src/oltp/latch.hh"
#include "src/oltp/log.hh"
#include "src/oltp/sga.hh"
#include "src/oltp/tables.hh"
#include "src/oltp/workload_params.hh"
#include "src/os/kernel.hh"
#include "src/os/scheduler.hh"
#include "src/os/vm.hh"
#include "src/stats/histogram.hh"

namespace isim {

class LogWriterProcess;

namespace stats {
class Registry;
}

/** The workload engine. */
class OltpEngine
{
  public:
    /**
     * Builds the engine and declares the VM placement policies:
     * SGA interleaved, private regions local, text regions replicated
     * or interleaved per `replicate_code` (the Section 6 experiment).
     */
    OltpEngine(const WorkloadParams &params, VirtualMemory &vm,
               KernelModel &kernel, unsigned num_cpus,
               bool replicate_code);

    /** Spawn the dedicated servers and the two daemons. */
    void createProcesses(Scheduler &sched);

    // ---- Run control ----
    std::uint64_t committedTransactions() const { return committed_; }

    /**
     * Functionally skip `n` transactions: draw TPC-B parameters from a
     * stateless seed-derived stream (same account/teller/branch/delta
     * distribution the servers use), apply each to the functional
     * database and bump the committed count — but generate no memory
     * references, advance no simulated time and sample no latency.
     * This is the sampled-simulation fast-forward tier: the database
     * trajectory stays TPC-B-consistent while the micro-architecture
     * is left untouched (re-warmed by the warm tier that follows).
     * The parameter stream derives from the workload seed and the
     * committed count alone, so the skip is bit-reproducible across
     * jobs and checkpoint resume.
     */
    void skipTransactions(std::uint64_t n);
    bool measurementDone() const
    {
        return committed_ >=
               params_.warmupTransactions + params_.transactions;
    }

    // ---- Commit coordination (called by processes) ----
    /** A server submitted its commit record; blocks until woken. */
    void requestCommit(Process &server, Tick now);
    /** Log writer takes the current batch of waiters. */
    std::vector<Process *> takeCommitWaiters();
    bool hasCommitWaiters() const { return !commitWaiters_.empty(); }
    /** Log writer going to sleep; future requestCommit() wakes it. */
    void logWriterSleeping(Process &logwriter);
    /** A server's commit completed (called when it resumes). */
    void noteCommit(Tick latency);

    // ---- Shared components ----
    const WorkloadParams &params() const { return params_; }
    unsigned numCpus() const { return numCpus_; }
    VirtualMemory &vm() { return vm_; }
    KernelModel &kernel() { return kernel_; }
    Scheduler &sched();
    const Sga &sga() const { return sga_; }
    TpcbDatabase &db() { return db_; }
    const TpcbDatabase &db() const { return db_; }
    BufferCache &bufferCache() { return bufferCache_; }
    LatchTable &latches() { return latches_; }
    RedoLog &redo() { return redo_; }
    const CodeModel &dbCode() const { return dbCode_; }

    // ---- Skewed draws (Rng::zipf's ranks, see ZipfTable) ----
    /** Line of a server's private stack / PGA. */
    const ZipfTable &privateZipf() const { return privateZipf_; }
    /** Line pair of the hot SGA metadata. */
    const ZipfTable &metadataZipf() const { return metadataZipf_; }
    /** Function within a code group of 16, 32 or 64 functions. */
    const ZipfTable &functionZipf(unsigned group_len) const;

    const Histogram &txnLatency() const { return txnLatency_; }
    /** Drop latency samples gathered so far (warm-up boundary). */
    void clearLatencyStats() { txnLatency_.clear(); }

    /**
     * Committed transactions since the last stats reset. The raw
     * `committed_` counter cannot be zeroed (warm-up progress tracking
     * depends on it), so the registry reports it rebased.
     */
    std::uint64_t measuredCommitted() const
    {
        return committed_ - statBase_.committed;
    }

    /**
     * Register the engine's statistics under "oltp.*" and hang the
     * warm-up rebase (latch/buffer counters, latency histogram,
     * monotonic-counter bases) on the registry's reset hook.
     */
    void registerStats(stats::Registry &r);

    // ---- Observability ----
    void setTracer(obs::Tracer *tracer)
    {
        tracer_ = tracer;
        latches_.setTracer(tracer);
    }
    obs::Tracer *tracer() const { return tracer_; }

    /**
     * Checkpoint the SGA-resident state (tables, dirty set, latches,
     * redo), the commit-coordination queues (as pids) and the stats
     * rebase baselines. Per-process state is handled by the scheduler,
     * which owns the processes; createProcesses must have run.
     */
    void saveState(ckpt::Serializer &s) const;
    void restoreState(ckpt::Deserializer &d);

  private:
    // ckpt: transient(params_): construction parameter, identical by contract
    WorkloadParams params_;
    VirtualMemory &vm_;
    KernelModel &kernel_;
    // ckpt: transient(numCpus_): construction parameter, identical by contract
    unsigned numCpus_;

    // ckpt: transient(sga_): address-layout object; latch state lives in latches_
    Sga sga_;
    TpcbDatabase db_;
    BufferCache bufferCache_;
    LatchTable latches_;
    RedoLog redo_;
    // ckpt: transient(dbCode_): stateless code-footprint model
    CodeModel dbCode_;
    // ckpt: transient(privateZipf_): derived from params_
    ZipfTable privateZipf_;
    // ckpt: transient(metadataZipf_): derived from params_
    ZipfTable metadataZipf_;
    // ckpt: transient(functionZipf_): derived from params_; groups of 16, 32, 64
    std::array<ZipfTable, 3> functionZipf_;

    // ckpt: transient(tracer_): observer hook, reattached by the harness
    obs::Tracer *tracer_ = nullptr;
    Scheduler *sched_ = nullptr;
    std::vector<Process *> commitWaiters_;
    Process *sleepingLogWriter_ = nullptr;
    std::uint64_t committed_ = 0;
    Histogram txnLatency_;

    /** Monotonic-counter values at the last stats reset. */
    struct StatBase
    {
        std::uint64_t committed = 0;
        std::uint64_t cursor = 0;
        std::uint64_t flushed = 0;
    };
    StatBase statBase_;
};

} // namespace isim

#endif // ISIM_OLTP_WORKLOAD_HH
