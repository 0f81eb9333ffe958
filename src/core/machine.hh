/**
 * @file
 * Machine assembly: one object that wires the full system — virtual
 * memory, kernel model, OLTP engine, scheduler, coherent memory
 * system, and one CPU core per node — from a single MachineConfig, and
 * runs the workload with the paper's warm-up-then-measure protocol.
 */

#ifndef ISIM_CORE_MACHINE_HH
#define ISIM_CORE_MACHINE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/ckpt/fwd.hh"
#include "src/coherence/protocol.hh"
#include "src/cpu/core.hh"
#include "src/cpu/ooo.hh"
#include "src/oltp/workload.hh"
#include "src/sample/report.hh"
#include "src/os/kernel.hh"
#include "src/os/scheduler.hh"
#include "src/os/vm.hh"
#include "src/stats/epoch.hh"
#include "src/stats/registry.hh"
#include "src/timing/latency_config.hh"

namespace isim {

/** runWarmup()'s unused argument type; simbench/replay.cc passes it. */
enum class ExecMode : std::uint8_t { Timing };

class Simulation;
struct SimState;

namespace obs {
class Observability;
}

namespace sample {
class SampleController;
}

/** Full configuration of one simulated machine + workload. */
struct MachineConfig
{
    std::string name = "unnamed";

    unsigned numCpus = 1; //!< total CPU cores
    /**
     * Cores per chip (CMP extension; paper Section 8 points to chip
     * multiprocessing as the step after integration). numCpus must be
     * divisible by it; cores on a chip share the L2 and node memory.
     */
    unsigned coresPerNode = 1;
    CpuModel cpuModel = CpuModel::InOrder;
    OooParams oooParams{};

    unsigned numNodes() const { return numCpus / coresPerNode; }

    IntegrationLevel level = IntegrationLevel::Base;
    L2Impl l2Impl = L2Impl::OffchipDirect;
    CacheGeometry l2{8 * mib, 1, 64};
    bool rac = false;
    CacheGeometry racGeom{8 * mib, 8, 64};
    /** L2 victim-buffer entries (0 = none; paper Figure 1 block). */
    unsigned victimBufferEntries = 0;
    /** Sequential L2 prefetch degree (0 = none). */
    unsigned prefetchDegree = 0;
    /** Per-miss MC occupancy in cycles (0 = uncontended, default). */
    Cycles mcOccupancy = 0;
    bool replicateCode = false;

    /** OS page colours (1 = random placement, the paper's baseline). */
    unsigned pageColors = 1;
    WorkloadParams workload{};

    /** The latency table this configuration charges (Figure 3). */
    LatencyTable latencies() const
    {
        return figure3Latencies(level, l2Impl);
    }

    /** Short label, e.g. "Base 8M1w". */
    std::string label() const;

    /**
     * fatal(), naming the `.cfg` keys involved, unless this describes
     * a machine the model can build: every field within its table
     * limits (src/config/fields.hh), cores divisible into nodes,
     * cache geometries the caches accept, and a level/L2 pairing
     * Figure 3 defines. The Machine constructor calls it first.
     */
    void validate() const;
};

/**
 * Outcome of one measured run. Every simulated number lives in the
 * registry snapshot `stats`; read it by name with stat().
 */
struct RunResult
{
    std::string name;
    std::uint64_t transactions = 0;
    Tick wallTime = 0; //!< elapsed simulated time of the window
    bool dbConsistent = false;

    /** Full registry snapshot (every named stat, sorted by name). */
    stats::Snapshot stats;
    /**
     * Sampled-measurement record (docs/SAMPLING.md): the resolved
     * schedule and a sem/ci95 per stat. `sampling.enabled` is false
     * on exact runs, and manifests only emit the block when set — an
     * exact run's manifest is byte-identical to pre-sampling ones.
     */
    sample::SampleReport sampling;
    /** Per-epoch counter deltas; empty unless epochs were recorded. */
    std::vector<stats::EpochRow> epochs;

    // Content-address identity of this run's (config, seed) cell,
    // filled by the bar runner (campaign::runBar) and echoed into the
    // stats manifest's META block (stats::resultKey semantics). Empty
    // for runs driven outside the runner (unit tests on raw Machine).
    std::string resultKey;
    std::string configDigest;
    std::uint64_t seed = 0;

    /**
     * The named stat's value (docs/METRICS.md lists the names, e.g.
     * "cpu.exec_time", "l2.miss.total"). A missing name is a wiring
     * bug and panics.
     */
    double stat(const std::string &name) const;

    double tps() const
    {
        return wallTime
                   ? static_cast<double>(transactions) * 1e9 / wallTime
                   : 0.0;
    }
};

/** The assembled machine. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config);
    ~Machine(); //!< out of line: owns a Simulation by unique_ptr

    const MachineConfig &config() const { return config_; }

    /**
     * Run warm-up then the measured transaction count; returns the
     * aggregated result for the measurement window. On a machine
     * restored from a checkpoint the warm-up phase is skipped — the
     * image already contains the warm state.
     */
    RunResult run();

    /**
     * The two phases of run(), exposed separately so a checkpoint can
     * be taken between them (SimOS-style: pay the warm-up once, seed
     * many measurement runs from the image). runWarmup() runs the
     * warm-up transactions and rebases the statistics; it must be
     * called at most once, and not on a restored machine.
     */
    void runWarmup(ExecMode = ExecMode::Timing);
    RunResult runMeasurement();

    /** Whether the warm-up has run (or was restored from an image). */
    bool isWarm() const { return warmupRan_; }

    /** Simulated time at the end of warm-up (0 before it). */
    Tick warmupEndTime() const { return warmEnd_; }

    /** Hard step-count backstop for the loop (0 = none). */
    void setMaxSteps(std::uint64_t max_steps) { maxSteps_ = max_steps; }

    // ---- Checkpointing (implemented in src/ckpt/checkpoint.cc) ----

    /**
     * Serialize the machine's full warm state (configuration echo +
     * every stateful component + the loop clocks) into the versioned
     * checkpoint image format documented in docs/CHECKPOINT.md.
     */
    std::vector<std::uint8_t> checkpointBytes() const;
    /**
     * The size checkpointBytes() sizes its buffer to, once, before the
     * first section: the memory system's and the VM's record runs at
     * their encoded sizes plus room for the fixed fields and the small
     * sections. An image above it is still exact, only written slower.
     */
    std::size_t checkpointBytesBound() const;
    /** checkpointBytes() to a file; fatal on I/O error. */
    void saveCheckpoint(const std::string &path) const;
    /** FNV-1a 64 digest of checkpointBytes() (round-trip tests). */
    std::uint64_t stateDigest() const;

    /**
     * Rebuild a machine from a checkpoint image. The returned machine
     * is warm: run() / runMeasurement() continue from the image. The
     * latency-override variant re-resolves the latency table for a
     * different integration level / L2 implementation — cache
     * *geometry* still has to match the image, only latencies change.
     */
    static std::unique_ptr<Machine>
    fromCheckpointBytes(const std::vector<std::uint8_t> &bytes);
    static std::unique_ptr<Machine> fromCheckpoint(const std::string &path);
    static std::unique_ptr<Machine>
    fromCheckpoint(const std::string &path, IntegrationLevel level,
                   L2Impl l2_impl);

    // Component access (tests, examples).
    VirtualMemory &vm() { return *vm_; }
    KernelModel &kernel() { return *kernel_; }
    OltpEngine &engine() { return *engine_; }
    Scheduler &sched() { return *sched_; }
    MemorySystem &memSys() { return *memSys_; }
    CpuCore &cpu(NodeId node) { return *cpus_[node]; }

    /**
     * Reset all statistics (cache/directory contents are kept). Every
     * component resets through its hook on the registry, so a stat
     * cannot be registered without also being covered by the warm-up
     * boundary.
     */
    void resetStats();

    /** Collect current aggregated statistics. */
    RunResult snapshot() const;

    /**
     * Attach (or with nullptr, detach) an observability bundle: wires
     * the tracer into the memory system, the engine and the loop. The
     * bundle must outlive the machine's run() calls.
     */
    void attachObservability(obs::Observability *o);

    /**
     * Record epoch rows on an `epoch_ticks` grid from the start of
     * the run (warm-up, or the warm boundary of a restored machine)
     * to its end; the measured result carries them in
     * RunResult::epochs. Call before the first run call.
     */
    void recordEpochs(Tick epoch_ticks);

  private:
    // The sampled-simulation controller drives the loop through
    // window-grained runUntilCommitted calls and per-window resets;
    // it needs the sim/engine/registry plumbing but nothing of it
    // belongs in the public API.
    friend class sample::SampleController;

    /** Register every component's stats (called once, from the ctor). */
    void buildRegistry();

    /**
     * Create the simulation loop if it does not exist yet, adopting
     * any pending restored loop state. Deferred to the first run call
     * so a restored machine can still attachObservability() first
     * (the loop binds its tracer at construction).
     */
    void ensureSim();

    /**
     * The body of the fromCheckpoint* entry points; `latencies`, when
     * set, replaces the image's integration level and L2 implementation.
     */
    static std::unique_ptr<Machine>
    fromImage(std::span<const std::uint8_t> image,
              std::optional<std::pair<IntegrationLevel, L2Impl>> latencies);
    /** Restore component + loop state from an image (checkpoint.cc). */
    void restoreFromImage(ckpt::Deserializer &d);

    /**
     * Open the observed window at `now`: event tracing and epoch
     * recording start. A warm-up opens it at time 0; a restored
     * machine at the warm boundary. Later calls are no-ops.
     */
    void beginObservation(Tick now);
    /**
     * Close the observed window at the loop's current time and hand
     * the recorded epoch rows to `r` (exact and sampled runs alike).
     */
    void endObservation(RunResult &r);

    MachineConfig config_;
    stats::Registry registry_;
    std::unique_ptr<VirtualMemory> vm_;
    std::unique_ptr<KernelModel> kernel_;
    std::unique_ptr<OltpEngine> engine_;
    std::unique_ptr<Scheduler> sched_;
    std::unique_ptr<MemorySystem> memSys_;
    std::vector<std::unique_ptr<CpuCore>> cpus_;
    obs::Observability *obs_ = nullptr;
    std::unique_ptr<stats::EpochRecorder> epochs_; //!< null = off

    std::unique_ptr<Simulation> sim_; //!< persists across run phases
    /** Loop state restored from an image before sim_ exists. */
    std::unique_ptr<SimState> pendingSim_;
    Tick warmEnd_ = 0;      //!< wall time at the warm-up boundary
    bool warmupRan_ = false;
    bool obsBegun_ = false; //!< beginObservation() has run
    std::uint64_t maxSteps_ = 0;
};

} // namespace isim

#endif // ISIM_CORE_MACHINE_HH
