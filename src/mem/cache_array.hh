/**
 * @file
 * Set-associative tag array with true-LRU replacement.
 *
 * This is a state-only model: it tracks which line addresses are
 * resident and in what permission state, but carries no data (the
 * workloads are functional at the database layer, so cache data payloads
 * are never needed). All timing lives in the latency models.
 */

#ifndef ISIM_MEM_CACHE_ARRAY_HH
#define ISIM_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/types.hh"
#include "src/ckpt/fwd.hh"
#include "src/mem/geometry.hh"
#include "src/mem/line_state.hh"

namespace isim {

/**
 * One way of one set, packed into 16 bytes: the tag, state and prefetch
 * flag share one word. A tag is a line address divided by the set
 * count, so 61 bits hold any physical line address.
 */
struct CacheLine
{
    /** Width of the tag field; restoreState rejects wider tags. */
    static constexpr unsigned tagBits = 61;

    Addr tag : tagBits = 0;
    LineState state : 2 = LineState::Invalid;
    bool prefetched : 1 = false; //!< filled by a prefetch, not yet demanded
    std::uint64_t lastUse = 0; //!< global LRU stamp

    bool valid() const { return state != LineState::Invalid; }
};
static_assert(sizeof(CacheLine) == 16, "CacheLine must pack into 16 bytes");

/** Result of allocating a way for a fill: the displaced victim, if any. */
struct Victim
{
    bool valid = false;
    Addr lineAddr = 0;
    LineState state = LineState::Invalid;
};

/**
 * The tag array. Lookup, touch (LRU update), allocate-with-victim and
 * invalidate are the only operations; policy decisions (write-backs,
 * inclusion) belong to the owning cache model.
 */
class CacheArray
{
  public:
    explicit CacheArray(const CacheGeometry &geometry);

    const CacheGeometry &geometry() const { return geom_; }

    /**
     * Find a resident line. Returns nullptr on miss. Does not update
     * LRU state; call touch() on the returned line for a real access
     * (probes from the coherence protocol should not perturb LRU).
     */
    CacheLine *findLine(Addr line_addr)
    {
        const std::uint64_t set =
            pow2_ ? (line_addr & setMask_) : (line_addr % numSets_);
        const Addr tag =
            pow2_ ? (line_addr >> tagShift_) : (line_addr / numSets_);
        CacheLine *base = setBase(set);
        for (unsigned w = 0; w < geom_.assoc; ++w) {
            if (base[w].valid() && base[w].tag == tag)
                return &base[w];
        }
        return nullptr;
    }
    const CacheLine *findLine(Addr line_addr) const
    {
        return const_cast<CacheArray *>(this)->findLine(line_addr);
    }

    /** Mark a line most-recently-used. */
    void touch(CacheLine &line) { line.lastUse = ++useStamp_; }

    /**
     * Choose a way for line_addr: an invalid way if present, otherwise
     * the LRU way. Fills the line with the new tag in the given state
     * and reports the displaced victim. The caller must have verified
     * the line is not already resident.
     */
    CacheLine &allocate(Addr line_addr, LineState state, Victim &victim);

    /** Drop a line (back-invalidation, protocol invalidation). */
    void invalidate(CacheLine &line)
    {
        if (line.valid())
            --valid_;
        line.state = LineState::Invalid;
    }

    /** Number of valid lines currently resident. */
    std::uint64_t validLines() const { return valid_; }

    /** Reconstruct the full line address of a resident line. */
    Addr lineAddrOf(const CacheLine &line) const;

    /** Visit every valid line (for invariant checks). */
    void forEachValid(
        const std::function<void(Addr line_addr, const CacheLine &)> &fn)
        const;

    /** Bytes saveState writes per valid line (slot, tag, state,
     *  prefetch flag, LRU stamp). */
    static constexpr std::size_t savedLineBytes = 8 + 8 + 1 + 1 + 8;

    /**
     * Checkpoint the resident lines (exact set/way placement and LRU
     * stamps). Geometry is configuration; restore verifies it matches.
     */
    void saveState(ckpt::Serializer &s) const;
    void restoreState(ckpt::Deserializer &d);

  private:
    CacheLine *setBase(std::uint64_t set_index)
    {
        return &lines_[set_index * geom_.assoc];
    }
    const CacheLine *setBase(std::uint64_t set_index) const
    {
        return &lines_[set_index * geom_.assoc];
    }

    CacheGeometry geom_;
    // ckpt: transient(numSets_): derived from geom_ at construction
    std::uint64_t numSets_;
    // ckpt: transient(pow2_): derived from geom_ at construction
    bool pow2_;
    // ckpt: transient(setMask_): derived from geom_ at construction
    std::uint64_t setMask_;
    // ckpt: transient(tagShift_): derived from geom_ at construction
    unsigned tagShift_;
    std::uint64_t useStamp_ = 0;
    std::uint64_t valid_ = 0; //!< valid lines in lines_, kept live
    std::vector<CacheLine> lines_;
};

} // namespace isim

#endif // ISIM_MEM_CACHE_ARRAY_HH
