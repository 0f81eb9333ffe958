/**
 * @file
 * Latch table: Oracle's short-duration spinlocks over SGA structures.
 * Latch words are the hottest write-shared lines in an OLTP system;
 * with 8 nodes all acquiring the same hash/redo latches they generate
 * the dirty 3-hop misses that dominate the paper's multiprocessor
 * breakdowns. Latches are packed two per cache line (latchStride),
 * adding the false-sharing component the paper mentions.
 */

#ifndef ISIM_OLTP_LATCH_HH
#define ISIM_OLTP_LATCH_HH

#include <cstdint>
#include <vector>

#include "src/ckpt/fwd.hh"
#include "src/obs/tracer.hh"
#include "src/oltp/sga.hh"
#include "src/os/vm.hh"
#include "src/trace/record.hh"

namespace isim {

/** Emits latch acquire/release reference patterns. */
class LatchTable
{
  public:
    explicit LatchTable(const Sga &sga)
        : sga_(sga), lastHolder_(sga.numLatches(), invalidNode)
    {
    }

    /** Test-and-set: a load followed by a dependent store. */
    void emitAcquire(unsigned latch, VirtualMemory &vm, NodeId node,
                     RefQueue &out);

    /** Release: a single store. */
    void emitRelease(unsigned latch, VirtualMemory &vm, NodeId node,
                     RefQueue &out);

    std::uint64_t acquires() const { return acquires_; }
    /** Acquires whose previous holder was another node. */
    std::uint64_t contended() const { return contended_; }

    /** Zero the counters (warm-up boundary); holder state is kept. */
    void resetCounters()
    {
        acquires_ = 0;
        contended_ = 0;
    }

    void setTracer(obs::Tracer *tracer) { tracer_ = tracer; }

    /** Checkpoint holder state and counters. */
    void saveState(ckpt::Serializer &s) const;
    void restoreState(ckpt::Deserializer &d);

  private:
    const Sga &sga_;
    // ckpt: transient(tracer_): observer hook, reattached by the harness
    obs::Tracer *tracer_ = nullptr;
    /** Node that last acquired each latch (contention detection). */
    std::vector<NodeId> lastHolder_;
    std::uint64_t acquires_ = 0;
    std::uint64_t contended_ = 0;
};

} // namespace isim

#endif // ISIM_OLTP_LATCH_HH
