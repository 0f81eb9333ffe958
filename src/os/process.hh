/**
 * @file
 * The simulated software process: the unit the scheduler multiplexes
 * onto CPUs. A process is a generator — each step() either yields the
 * next memory reference or an OS action (block on I/O or an event,
 * yield, exit). Workload implementations (OLTP servers, daemons)
 * subclass this.
 */

#ifndef ISIM_OS_PROCESS_HH
#define ISIM_OS_PROCESS_HH

#include <string>

#include "src/base/types.hh"
#include "src/ckpt/fwd.hh"
#include "src/trace/record.hh"

namespace isim {

/** What a process asks for on each step. */
enum class StepKind : std::uint8_t {
    Ref,        //!< execute the reference in ProcessStep::ref
    BlockTimed, //!< sleep for ProcessStep::delay cycles (I/O)
    BlockEvent, //!< sleep until another process wakes us
    Yield,      //!< voluntarily relinquish the CPU
    Done,       //!< process exits
};

/** One scheduling decision from a process. */
struct ProcessStep
{
    StepKind kind = StepKind::Done;
    MemRef ref{};
    Tick delay = 0; //!< BlockTimed only
};

/**
 * Base class of all simulated processes. Processes are statically
 * bound to a CPU (Oracle dedicated servers run with affinity; this
 * also pins the first-touch placement of their private pages).
 */
class Process
{
  public:
    Process(std::string name, Pid pid, NodeId cpu)
        : name_(std::move(name)), pid_(pid), cpu_(cpu)
    {
    }
    virtual ~Process() = default;

    Process(const Process &) = delete;
    Process &operator=(const Process &) = delete;

    const std::string &name() const { return name_; }
    Pid pid() const { return pid_; }
    NodeId cpu() const { return cpu_; }

    /** Produce the next action. `now` is the CPU's local time. */
    virtual ProcessStep step(Tick now) = 0;

    /** Scheduler bookkeeping (owned by the scheduler). */
    enum class SchedState : std::uint8_t { Ready, Running, Blocked, Done };
    // ckpt: transient(schedState): saved by Scheduler::saveState, which owns it
    SchedState schedState = SchedState::Ready;
    // ckpt: transient(wakeTime): saved by Scheduler::saveState, which owns it
    Tick wakeTime = 0;

    /**
     * Checkpoint the process's execution state. The base class
     * serializes the pending reference queue; subclasses with state of
     * their own override, calling the base version first.
     */
    virtual void saveState(ckpt::Serializer &s) const;
    virtual void restoreState(ckpt::Deserializer &d);

  protected:
    /**
     * Helper for subclasses that generate references in batches: pop
     * from the pending queue first, refilling via the subclass logic
     * only once it has drained, so the queue reuses its storage.
     */
    RefQueue pending_;

    /** Pop one pending ref into a Ref step (queue must be non-empty). */
    ProcessStep popPending()
    {
        ProcessStep s;
        s.kind = StepKind::Ref;
        s.ref = pending_.front();
        pending_.pop_front();
        return s;
    }

  private:
    // Identity is re-established by createProcesses before restore;
    // Scheduler::restoreState matches checkpoint records by pid.
    // ckpt: transient(name_): reconstructed identity, identical by contract
    std::string name_;
    // ckpt: transient(pid_): reconstructed identity, matched by Scheduler restore
    Pid pid_;
    // ckpt: transient(cpu_): reconstructed placement, identical by contract
    NodeId cpu_;
};

} // namespace isim

#endif // ISIM_OS_PROCESS_HH
