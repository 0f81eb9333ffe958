/**
 * @file
 * Per-CPU round-robin scheduler with timed sleeps and event waits.
 * OLTP throughput depends on it: while one server waits for its commit
 * record to reach the log, the seven other servers bound to the same
 * CPU keep it busy (the paper runs 8 server processes per processor to
 * hide I/O latencies).
 */

#ifndef ISIM_OS_SCHEDULER_HH
#define ISIM_OS_SCHEDULER_HH

#include <deque>
#include <memory>
#include <queue>
#include <vector>

#include "src/ckpt/fwd.hh"
#include "src/os/process.hh"

namespace isim {

/** Declaration of `const char *stepKindName(StepKind)` lives here too. */
const char *stepKindName(StepKind kind);

/**
 * The scheduler. All methods are driven by the simulation loop; the
 * whole simulator is single-threaded, so cross-CPU wakes are plain
 * state changes.
 */
class Scheduler
{
  public:
    explicit Scheduler(unsigned num_cpus);

    /** Register a process (bound to its Process::cpu()). */
    Process &add(std::unique_ptr<Process> process);

    unsigned numCpus() const
    {
        return static_cast<unsigned>(cpus_.size());
    }

    /** The process currently on the CPU (nullptr if none). */
    Process *running(NodeId cpu) const { return cpus_[cpu].running; }

    /**
     * Move expired sleepers to the ready queue and dispatch the next
     * ready process. Returns nullptr if nothing is runnable at `now`.
     */
    Process *pickNext(NodeId cpu, Tick now);

    /** Earliest timed wake on this CPU (maxTick if none). */
    Tick nextWake(NodeId cpu) const;

    /** True if the ready queue is non-empty. */
    bool hasReady(NodeId cpu) const { return !cpus_[cpu].ready.empty(); }

    /** True while the CPU has any non-Done process. */
    bool hasWork(NodeId cpu) const;

    /** Block the running process; wake at `wake_at` (or by event). */
    void blockCurrent(NodeId cpu, Tick wake_at);

    /** Requeue the running process at the tail of the ready queue. */
    void yieldCurrent(NodeId cpu);

    /** Retire the running process. */
    void finishCurrent(NodeId cpu);

    /** Wake a (possibly event-)blocked process at time `at`. */
    void wake(Process &process, Tick at);

    /**
     * Number of wake() calls so far. wake() is the one call that can
     * change the queues of a CPU other than the one being stepped; the
     * simulation loop watches this count to know when its cached
     * next-event times of the other CPUs are stale.
     */
    std::uint64_t wakeups() const { return wakeups_; }

    /** Count of processes that have exited. */
    std::uint64_t finished() const { return finished_; }

    /** Number of voluntary + involuntary context switches so far. */
    std::uint64_t contextSwitches() const { return switches_; }

    /** The registered process with this pid (nullptr if unknown). */
    Process *processByPid(Pid pid) const;

    /**
     * Checkpoint scheduler bookkeeping and, via Process::saveState,
     * every registered process. Sleepers are serialized in pop order
     * and renumbered on restore, preserving their relative wake order.
     */
    void saveState(ckpt::Serializer &s) const;
    void restoreState(ckpt::Deserializer &d);

  private:
    struct TimedWake
    {
        Tick at;
        Process *process;
        /**
         * Insertion sequence; breaks wake-time ties FIFO so the pop
         * order of simultaneous wakes (e.g. a commit group released by
         * one log flush) is well-defined rather than heap-shape
         * dependent — required for checkpoints to be bit-exact.
         */
        std::uint64_t seq;
        bool operator>(const TimedWake &o) const
        {
            return at != o.at ? at > o.at : seq > o.seq;
        }
    };

    struct CpuQueues
    {
        std::deque<Process *> ready;
        std::priority_queue<TimedWake, std::vector<TimedWake>,
                            std::greater<TimedWake>>
            sleepers;
        Process *running = nullptr;
        unsigned live = 0; //!< processes not Done
    };

    void wakeExpired(NodeId cpu, Tick now);

    std::vector<CpuQueues> cpus_;
    std::vector<std::unique_ptr<Process>> processes_;
    std::uint64_t finished_ = 0;
    std::uint64_t switches_ = 0;
    std::uint64_t wakeSeq_ = 0; //!< next TimedWake::seq
    // ckpt: transient(wakeups_): change detector for the loop's next-event cache
    std::uint64_t wakeups_ = 0;
};

} // namespace isim

#endif // ISIM_OS_SCHEDULER_HH
