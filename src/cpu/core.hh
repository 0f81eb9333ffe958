/**
 * @file
 * The CPU timing-model interface shared by the in-order and
 * out-of-order cores.
 */

#ifndef ISIM_CPU_CORE_HH
#define ISIM_CPU_CORE_HH

#include "src/ckpt/fwd.hh"
#include "src/cpu/cpu_stats.hh"
#include "src/trace/record.hh"

namespace isim {

class MemorySystem;

/** Which CPU timing model a machine uses. */
enum class CpuModel {
    InOrder, //!< single-issue pipelined (the paper's medium-speed model)
    OutOfOrder, //!< 4-wide, 64-entry window, 2 LS units (Section 7)
};

const char *cpuModelName(CpuModel model);

inline const char *
cpuModelName(CpuModel model)
{
    return model == CpuModel::InOrder ? "in-order" : "out-of-order";
}

/**
 * A CPU core bound to one node of the memory system. The simulation
 * loop hands it references in program order; the core performs the
 * memory accesses (in global simulated-time order, since the loop
 * always steps the core with the smallest local clock) and accounts
 * execution time into the paper's stall buckets.
 */
class CpuCore
{
  public:
    CpuCore(NodeId node, MemorySystem &mem) : node_(node), mem_(mem) {}
    virtual ~CpuCore() = default;

    CpuCore(const CpuCore &) = delete;
    CpuCore &operator=(const CpuCore &) = delete;

    NodeId node() const { return node_; }
    const CpuStats &stats() const { return stats_; }
    CpuStats &stats() { return stats_; }

    /**
     * Execute one reference starting no earlier than `now`; returns
     * the core's new local time.
     */
    virtual Tick consume(const MemRef &ref, Tick now) = 0;

    /**
     * Complete all outstanding work (called before a context switch or
     * when the process blocks); returns the drained local time.
     */
    virtual Tick drain(Tick now) = 0;

    /** Zero the accounting (used at the warm-up/measure boundary). */
    virtual void resetStats() { stats_ = CpuStats{}; }

    /**
     * Checkpoint the core's accounting and (for models that have it)
     * microarchitectural timing state. The base version serializes
     * CpuStats; stateful models override and call it first.
     */
    virtual void saveState(ckpt::Serializer &s) const;
    virtual void restoreState(ckpt::Deserializer &d);

  protected:
    // ckpt: transient(node_): construction-time placement, identical by contract
    NodeId node_;
    MemorySystem &mem_;
    CpuStats stats_;
};

} // namespace isim

#endif // ISIM_CPU_CORE_HH
