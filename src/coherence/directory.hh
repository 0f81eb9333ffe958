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
 * Storage is one open-addressing table of 16-line blocks. Each slot
 * is a 16-byte key: block number, presence mask and the index of the
 * block's payload (its 16 entries) in a dense payload pool. Keys hash
 * by block number with linear probing, power-of-two capacity, doubled
 * at load 1/2, and backward-shift removal (no tombstones) once a
 * block's last line is erased; its payload then goes on a free list
 * for the next new block. Probing, growth, removal and the save-time
 * scan move and read only keys; a payload never moves once placed,
 * and the pool holds no more payloads than the most blocks ever live
 * at once. A lookup probes one block and tests one bit, and a
 * sequential scan stays in one slot.
 *
 * Pointer stability: entry() may grow the payload pool and erase()
 * frees a block's payload for reuse, so a DirEntry pointer or
 * reference is valid only until the next entry() or erase() call. Protocol code holds one only across
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
        const Key &key = keys_[probe(line_addr >> 4)];
        const unsigned off = line_addr & 15;
        return (key.present >> off) & 1u
                   ? &payloads_[key.payload].entries[off]
                   : nullptr;
    }
    DirEntry *find(Addr line_addr)
    {
        const Key &key = keys_[probe(line_addr >> 4)];
        const unsigned off = line_addr & 15;
        return (key.present >> off) & 1u
                   ? &payloads_[key.payload].entries[off]
                   : nullptr;
    }

    /** Lookup-or-create (created entries start Uncached). */
    DirEntry &entry(Addr line_addr);

    /** Drop an entry that returned to the Uncached state. */
    void erase(Addr line_addr);

    std::size_t population() const { return size_; }
    /** Lines the allocated blocks can hold (16 per block slot). */
    std::size_t capacity() const { return keys_.size() * 16; }

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
     * Visit every entry (for whole-directory audits), in table order.
     * The entry's home is derivable from the line address via homeOf().
     */
    void forEachEntry(
        const std::function<void(Addr line_addr, const DirEntry &)> &fn)
        const;

    /** Bytes saveState writes per entry: u64 line, u8 state, u32
     *  sharers, u32 owner. */
    static constexpr std::size_t savedEntryBytes = 8 + 1 + 4 + 4;

    /**
     * Checkpoint every entry. Entries are written in sorted line-addr
     * order so the encoding is canonical (table order depends on the
     * table's history and is not state).
     */
    void saveState(ckpt::Serializer &s) const;
    void restoreState(ckpt::Deserializer &d);

  private:
    /** A slot's key: which sixteen consecutive lines, which present. */
    struct Key
    {
        Addr block;            //!< their line address >> 4
        std::uint32_t present; //!< bit i: line block*16+i has an entry
        std::uint32_t payload; //!< the block's entries: payloads_ index
    };
    static_assert(sizeof(Key) == 16);

    /** A block's entries, meaningful where its key's `present` is set. */
    struct Payload
    {
        DirEntry entries[16];
    };

    /**
     * Marks a free slot. Never a real block number: every line lies
     * inside installed memory (restoreState rejects any other).
     */
    static constexpr Addr emptyBlock = ~Addr{0};

    /** Home slot of a block number: its Fibonacci hash, top bits. */
    std::size_t homeOfBlock(Addr block) const
    {
        return static_cast<std::size_t>(
            block * 0x9e3779b97f4a7c15ULL >> hashShift_);
    }

    /** The slot holding `block`, else the free slot ending its run. */
    std::size_t probe(Addr block) const
    {
        std::size_t i = homeOfBlock(block);
        while (keys_[i].block != block && keys_[i].block != emptyBlock)
            i = (i + 1) & mask_;
        return i;
    }

    /**
     * Fresh empty key table of `capacity` slots (a power of two). The
     * payload pool is left alone: growth re-claims every live key.
     */
    void resetKeys(std::size_t capacity);
    /** Put the key of a block known to be absent into its first free slot. */
    void claim(const Key &key);

    HomeMap homeMap_;
    // ckpt: transient(lineBits_): derived from the line size at construction
    unsigned lineBits_;
    std::vector<Key> keys_; //!< one per slot
    std::vector<Payload> payloads_; //!< indexed by Key::payload
    // ckpt: transient(freePayloads_): pool slots of erased blocks
    std::vector<std::uint32_t> freePayloads_;
    // ckpt: transient(mask_): capacity - 1, set with keys_
    std::size_t mask_ = 0;
    // ckpt: transient(hashShift_): 64 - log2(capacity), set with keys_
    unsigned hashShift_ = 0;
    // ckpt: transient(liveBlocks_): blocks with a line present, set with keys_
    std::size_t liveBlocks_ = 0;
    std::size_t size_ = 0;
};

} // namespace isim

#endif // ISIM_COHERENCE_DIRECTORY_HH
