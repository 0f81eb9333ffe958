/**
 * @file
 * The simulation loop: a conservative min-clock scheduler over the
 * per-CPU local times. The CPU whose clock is furthest behind always
 * steps next, so shared memory-system state is mutated in (approximate)
 * global time order — the sequentially consistent interleaving the
 * paper assumes. The loop also drives the OS: process dispatch,
 * context-switch kernel paths, idle accounting, quantum preemption.
 */

#ifndef ISIM_CORE_SIMULATION_HH
#define ISIM_CORE_SIMULATION_HH

#include <memory>
#include <vector>

#include "src/ckpt/fwd.hh"
#include "src/cpu/core.hh"
#include "src/oltp/workload.hh"
#include "src/os/kernel.hh"
#include "src/os/scheduler.hh"

namespace isim {

namespace obs {
class Tracer;
}

namespace stats {
class EpochRecorder;
}

/** Options of a simulation run. */
struct SimOptions
{
    Tick quantum = 2000000; //!< preemption quantum (0 = none)
    /**
     * Which core model populates the CPU vector. The loop uses this to
     * dispatch the per-reference consume/drain calls through the final
     * concrete type instead of the virtual interface — both models are
     * `final`, so the compiler emits direct (inlinable) calls on the
     * hottest path in the simulator.
     */
    CpuModel model = CpuModel::InOrder;
    /** Hard step limit as a runaway backstop (0 = none). */
    std::uint64_t maxSteps = 0;
    /** Event tracer the loop stamps and feeds (may be nullptr). */
    obs::Tracer *tracer = nullptr;
    /** Epoch recorder the loop advances (may be nullptr). */
    stats::EpochRecorder *epochs = nullptr;
};

/**
 * The loop's own mutable state, detached from the loop object so a
 * checkpoint restore can carry it before the Simulation exists (the
 * loop binds its tracer at construction, which must happen after
 * observability is attached).
 */
struct SimState
{
    struct Cpu
    {
        Tick now = 0;
        Tick quantumStart = 0;
        RefQueue injected; //!< kernel switch path to run
    };
    std::vector<Cpu> cpus;
    std::uint64_t steps = 0;

    void saveState(ckpt::Serializer &s) const;
    /**
     * Fatal, naming the section, when the image's CPU count is not
     * `machine_cpus`; checked before anything is allocated from it.
     */
    void restoreState(ckpt::Deserializer &d, std::size_t machine_cpus);
};

/** The loop itself. */
class Simulation
{
  public:
    Simulation(Scheduler &sched, KernelModel &kernel, OltpEngine &engine,
               std::vector<std::unique_ptr<CpuCore>> &cpus,
               const SimOptions &options);

    /** Run until the engine's measured transaction count completes. */
    void runUntilMeasurementDone();

    /** Run until the warm-up transaction count completes. */
    void runUntilWarmupDone();

    /**
     * Run until the engine's total committed count reaches `target`
     * (no-op when already there). The generalized form of the two
     * entry points above; the sampled-simulation controller uses it to
     * carve the measurement phase into fast-forward and measurement
     * windows at arbitrary committed-count boundaries.
     */
    void runUntilCommitted(std::uint64_t target);

    /** Largest local CPU time (the machine's wall clock). */
    Tick wallTime() const;

    std::uint64_t steps() const { return steps_; }

    /** Snapshot the loop state for a checkpoint. */
    SimState captureState() const;
    /** Adopt a previously captured (or deserialized) loop state. */
    void restoreState(const SimState &state);

  private:
    using CpuState = SimState::Cpu;

    /**
     * Time of the CPU's next unit of work: its clock when something
     * is runnable, else its next timed wake. The loop always steps
     * the CPU with the smallest event time, so an idle CPU's clock
     * only jumps to a far-future wake once everyone else has passed
     * it — preserving global event order and honest wall time.
     */
    Tick nextEventTime(NodeId cpu) const;
    /** Execute one unit of work on the CPU. */
    void stepCpu(NodeId cpu);

    /** Devirtualized per-reference dispatch (see SimOptions::model). */
    Tick consumeOn(CpuCore &core, const MemRef &ref, Tick now);
    Tick drainOn(CpuCore &core, Tick now);

    Scheduler &sched_;
    KernelModel &kernel_;
    OltpEngine &engine_;
    std::vector<std::unique_ptr<CpuCore>> &cpus_;
    SimOptions options_;
    obs::Tracer *tracer_ = nullptr; //!< options_.tracer, may be null
    std::vector<CpuState> state_;
    std::uint64_t steps_ = 0;
};

} // namespace isim

#endif // ISIM_CORE_SIMULATION_HH
