/**
 * @file
 * Full-map directory for the invalidate-based MSI protocol.
 *
 * The machine is a ccNUMA with per-node memory; the home of a physical
 * address is the node whose memory window contains it (2 GB windows, as
 * a 21364-class system would expose). The directory keeps exact sharer
 * vectors: nodes send replacement hints on clean evictions and
 * write-backs on dirty evictions, so 2-hop vs 3-hop classification is
 * precise — which the paper's Figures 6, 8 and 11 depend on.
 */

#ifndef ISIM_COHERENCE_DIRECTORY_HH
#define ISIM_COHERENCE_DIRECTORY_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/logging.hh"
#include "src/base/types.hh"
#include "src/ckpt/fwd.hh"
#include "src/mem/line_state.hh"

namespace isim {

/** log2 of each node's physical memory window (2 GB): a model limit. */
inline constexpr unsigned nodeWindowBits = 31;

/** Physical address layout: each node owns a power-of-two window. */
struct HomeMap
{
    unsigned nodeShift = nodeWindowBits; //!< log2 of the per-node window
    unsigned numNodes = 1;

    NodeId homeOfByte(Addr paddr) const
    {
        const NodeId home = static_cast<NodeId>(paddr >> nodeShift);
        isim_assert(home < numNodes, "address outside installed memory");
        return home;
    }

    /** Home of a line address given the cache line size in bits. */
    NodeId homeOfLine(Addr line_addr, unsigned line_bits) const
    {
        return homeOfByte(line_addr << line_bits);
    }

    Addr nodeBase(NodeId node) const
    {
        return static_cast<Addr>(node) << nodeShift;
    }

    std::uint64_t nodeWindow() const { return std::uint64_t{1} << nodeShift; }
};

/** Directory entry for one line. Absent entry == Uncached. */
struct DirEntry
{
    LineState state = LineState::Invalid; //!< Invalid==Uncached here
    std::uint32_t sharers = 0;            //!< bitmask of nodes with a copy
    NodeId owner = invalidNode;           //!< valid when state==Modified

    bool isUncached() const { return state == LineState::Invalid; }
    bool hasSharer(NodeId n) const { return (sharers >> n) & 1u; }
    unsigned sharerCount() const
    {
        return static_cast<unsigned>(__builtin_popcount(sharers));
    }
};

/**
 * The directory proper: a sparse map from line address to entry. One
 * logical directory serves all homes (the home node of each entry is
 * derivable from the address).
 *
 * Storage is one open-addressing table of {line, entry} slots: linear
 * probing, power-of-two capacity, doubled at load 1/2, and
 * backward-shift erase (no tombstones). Lines hash in 16-line blocks
 * that keep each line's offset within its block, so a sequential scan
 * touches neighbouring slots.
 *
 * Pointer stability: entry() may grow the table and erase() shifts
 * slots, so a DirEntry pointer or reference is valid only until the
 * next entry() or erase() call. Protocol code holds one only across
 * cache probes (invalidateNode/downgradeNode), which never touch the
 * directory.
 */
class Directory
{
  public:
    Directory(const HomeMap &home_map, unsigned line_bits);

    const HomeMap &homeMap() const { return homeMap_; }
    NodeId homeOf(Addr line_addr) const
    {
        return homeMap_.homeOfLine(line_addr, lineBits_);
    }

    /** Lookup; returns nullptr when the line is uncached everywhere. */
    const DirEntry *find(Addr line_addr) const
    {
        const Slot &s = slots_[probe(line_addr)];
        return s.line == line_addr ? &s.entry : nullptr;
    }
    DirEntry *find(Addr line_addr)
    {
        Slot &s = slots_[probe(line_addr)];
        return s.line == line_addr ? &s.entry : nullptr;
    }

    /** Lookup-or-create (created entries start Uncached). */
    DirEntry &entry(Addr line_addr);

    /** Drop an entry that returned to the Uncached state. */
    void erase(Addr line_addr);

    std::size_t population() const { return size_; }
    /** Slots allocated; population() stays at or below half of it. */
    std::size_t capacity() const { return slots_.size(); }

    /**
     * Structural self-check of one entry; panics on violation.
     * (Node-vs-directory cross checks live in the protocol engine,
     * which can see the caches.) The two-argument form additionally
     * verifies the sharer vector and owner stay within the installed
     * node count.
     */
    static void checkEntry(const DirEntry &e);
    static void checkEntry(const DirEntry &e, unsigned num_nodes);

    /**
     * Visit every entry (for whole-directory audits), in slot order.
     * The entry's home is derivable from the line address via homeOf().
     */
    void forEachEntry(
        const std::function<void(Addr line_addr, const DirEntry &)> &fn)
        const;

    /**
     * Checkpoint every entry. Entries are written in sorted line-addr
     * order so the encoding is canonical (slot order depends on the
     * table's history and is not state).
     */
    void saveState(ckpt::Serializer &s) const;
    void restoreState(ckpt::Deserializer &d);

  private:
    struct Slot
    {
        Addr line;
        DirEntry entry;
    };

    /**
     * Marks a free slot. Never a real line: every line lies inside
     * installed memory (restoreState rejects any other).
     */
    static constexpr Addr emptyLine = ~Addr{0};

    /** Home slot: a mixed 16-line block number, then the line's offset. */
    std::size_t slotOf(Addr line_addr) const
    {
        const std::uint64_t block =
            (line_addr >> 4) * 0x9e3779b97f4a7c15ULL >> blockShift_;
        return static_cast<std::size_t>(block << 4 | (line_addr & 15));
    }

    /** The slot holding `line_addr`, else the free slot ending its run. */
    std::size_t probe(Addr line_addr) const
    {
        std::size_t i = slotOf(line_addr);
        while (slots_[i].line != line_addr && slots_[i].line != emptyLine)
            i = (i + 1) & mask_;
        return i;
    }

    /** Fresh empty table of `capacity` slots (a power of two >= 32). */
    void reset(std::size_t capacity);
    /** Place a line known to be absent; returns its entry. */
    DirEntry &insertAbsent(Addr line_addr);

    HomeMap homeMap_;
    // ckpt: transient(lineBits_): derived from the line size at construction
    unsigned lineBits_;
    std::vector<Slot> slots_;
    // ckpt: transient(mask_): capacity - 1, set with slots_
    std::size_t mask_ = 0;
    // ckpt: transient(blockShift_): 64 - log2(capacity / 16), set with slots_
    unsigned blockShift_ = 0;
    std::size_t size_ = 0;
};

} // namespace isim

#endif // ISIM_COHERENCE_DIRECTORY_HH
