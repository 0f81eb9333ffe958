/**
 * @file
 * Memory-reference records: the unit of work the CPU timing models
 * consume.
 *
 * Instruction fetches are recorded as *chunks*: one record covers a run
 * of `instrCount` sequentially executed instructions residing in a
 * single I-cache line, which is how execution-driven simulators reduce
 * fetch traffic without losing cache behaviour (the line is fetched
 * once either way). Loads and stores are individual records whose
 * instructions were already counted by the surrounding chunks.
 */

#ifndef ISIM_TRACE_RECORD_HH
#define ISIM_TRACE_RECORD_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/types.hh"

namespace isim {

/** Kind of reference record. */
enum class RefKind : std::uint8_t {
    Instr, //!< instruction-fetch chunk (one I-cache line)
    Load,
    Store,
};

/**
 * One reference. Addresses are *physical* (the process's address space
 * resolves virtual addresses at generation time; the caches of this
 * machine are physically indexed and tagged).
 */
struct MemRef
{
    RefKind kind = RefKind::Instr;
    bool kernel = false;  //!< executed in kernel mode
    std::uint8_t depDist = 0; //!< Load/Store: how many memory references
                              //!< back the producer of this access's
                              //!< address/data is (0 = independent);
                              //!< drives the out-of-order model's
                              //!< dependence chains
    std::uint16_t instrCount = 0; //!< Instr chunks: instructions covered
    Addr paddr = 0;
};

/** Convenience constructors. */
inline MemRef
instrChunk(Addr paddr, std::uint16_t count, bool kernel = false)
{
    MemRef r;
    r.kind = RefKind::Instr;
    r.paddr = paddr;
    r.instrCount = count;
    r.kernel = kernel;
    return r;
}

inline MemRef
loadRef(Addr paddr, std::uint8_t dep_dist = 0, bool kernel = false)
{
    MemRef r;
    r.kind = RefKind::Load;
    r.paddr = paddr;
    r.depDist = dep_dist;
    r.kernel = kernel;
    return r;
}

inline MemRef
storeRef(Addr paddr, std::uint8_t dep_dist = 0, bool kernel = false)
{
    MemRef r;
    r.kind = RefKind::Store;
    r.paddr = paddr;
    r.depDist = dep_dist;
    r.kernel = kernel;
    return r;
}

/**
 * A FIFO of references: what a process, the kernel paths and every
 * emitter append to and the simulation loop drains. It is a vector
 * plus a head index, and it empties itself when the last reference is
 * popped. Producers refill a queue only once it has drained, so its
 * storage settles at one batch and is reused without allocating.
 */
class RefQueue
{
  public:
    using const_iterator = std::vector<MemRef>::const_iterator;

    bool empty() const { return head_ == refs_.size(); }
    std::size_t size() const { return refs_.size() - head_; }

    void push_back(const MemRef &ref) { refs_.push_back(ref); }

    /** Oldest queued reference (queue must be non-empty). */
    const MemRef &front() const { return refs_[head_]; }

    /** Drop the oldest reference (queue must be non-empty). */
    void pop_front()
    {
        if (++head_ == refs_.size())
            clear();
    }

    /** Drop everything; keeps the storage. */
    void clear()
    {
        refs_.clear();
        head_ = 0;
    }

    /** The i-th queued reference, counted from front(). */
    const MemRef &operator[](std::size_t i) const
    {
        return refs_[head_ + i];
    }

    const_iterator begin() const
    {
        return refs_.begin() + static_cast<std::ptrdiff_t>(head_);
    }
    const_iterator end() const { return refs_.end(); }

  private:
    std::vector<MemRef> refs_;
    std::size_t head_ = 0; //!< index of front() in refs_
};

} // namespace isim

#endif // ISIM_TRACE_RECORD_HH
