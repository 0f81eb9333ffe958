/**
 * @file
 * Directory implementation.
 */

#include "src/coherence/directory.hh"

#include <algorithm>
#include <vector>

#include "src/ckpt/serializer.hh"

namespace isim {

namespace {

/** Block slots in a fresh table (13 KiB); it doubles from here as needed. */
constexpr std::size_t initialBlocks = 64;

/** Bytes one saved entry takes: u64 line, u8 state, u32 sharers, u32 owner. */
constexpr std::size_t savedEntryBytes = 8 + 1 + 4 + 4;

} // namespace

Directory::Directory(const HomeMap &home_map, unsigned line_bits)
    : homeMap_(home_map), lineBits_(line_bits)
{
    isim_assert(homeMap_.numNodes >= 1 && homeMap_.numNodes <= 32);
    reset(initialBlocks);
}

void
Directory::reset(std::size_t capacity)
{
    blocks_.assign(capacity, Block{emptyBlock, 0, {}});
    mask_ = capacity - 1;
    hashShift_ = 64 - static_cast<unsigned>(__builtin_ctzll(capacity));
    liveBlocks_ = 0;
    size_ = 0;
}

void
Directory::place(const Block &b)
{
    std::size_t i = homeOfBlock(b.block);
    while (blocks_[i].block != emptyBlock)
        i = (i + 1) & mask_;
    blocks_[i] = b;
    ++liveBlocks_;
    size_ += static_cast<std::size_t>(__builtin_popcount(b.present));
}

DirEntry &
Directory::entry(Addr line_addr)
{
    const Addr block = line_addr >> 4;
    std::size_t i = probe(block);
    if (blocks_[i].block != block) {
        if (2 * (liveBlocks_ + 1) > blocks_.size()) {
            std::vector<Block> old;
            old.swap(blocks_);
            reset(old.size() * 2);
            for (const Block &b : old) {
                if (b.block != emptyBlock)
                    place(b);
            }
            i = probe(block);
        }
        blocks_[i].block = block;
        ++liveBlocks_;
    }
    Block &b = blocks_[i];
    const unsigned off = line_addr & 15;
    if (!((b.present >> off) & 1u)) {
        b.present |= 1u << off;
        b.entries[off] = DirEntry{};
        ++size_;
    }
    return b.entries[off];
}

void
Directory::erase(Addr line_addr)
{
    std::size_t hole = probe(line_addr >> 4);
    const std::uint32_t bit = 1u << (line_addr & 15);
    if (!(blocks_[hole].present & bit))
        return;
    --size_;
    if ((blocks_[hole].present &= ~bit) != 0)
        return;
    // The block's last line went: backward shift. Move each later
    // member of the probe run whose home slot is not cyclically inside
    // (hole, j] back into the hole.
    for (std::size_t j = (hole + 1) & mask_; blocks_[j].block != emptyBlock;
         j = (j + 1) & mask_) {
        const std::size_t home = homeOfBlock(blocks_[j].block);
        if (((j - home) & mask_) >= ((j - hole) & mask_)) {
            blocks_[hole] = blocks_[j];
            hole = j;
        }
    }
    blocks_[hole].block = emptyBlock;
    blocks_[hole].present = 0;
    --liveBlocks_;
}

void
Directory::forEachEntry(
    const std::function<void(Addr line_addr, const DirEntry &)> &fn) const
{
    for (const Block &b : blocks_) {
        for (std::uint32_t bits = b.present; bits != 0; bits &= bits - 1) {
            const unsigned off =
                static_cast<unsigned>(__builtin_ctz(bits));
            fn(b.block << 4 | off, b.entries[off]);
        }
    }
}

void
Directory::checkEntry(const DirEntry &e, unsigned num_nodes)
{
    checkEntry(e);
    isim_assert(num_nodes >= 1 && num_nodes <= 32);
    const std::uint32_t installed =
        num_nodes == 32 ? ~0u : ((1u << num_nodes) - 1u);
    isim_assert((e.sharers & ~installed) == 0,
                "sharer vector names an uninstalled node");
    if (e.state == LineState::Modified) {
        isim_assert(e.owner < num_nodes,
                    "owner outside the installed node count");
    } else {
        isim_assert(e.owner == invalidNode,
                    "non-owned entry carries a stale owner");
    }
}

void
Directory::checkEntry(const DirEntry &e)
{
    switch (e.state) {
      case LineState::Invalid:
        isim_assert(e.sharers == 0, "uncached entry has sharers");
        break;
      case LineState::Shared:
        isim_assert(e.sharers != 0, "shared entry with empty sharer set");
        break;
      case LineState::Modified:
        isim_assert(e.owner != invalidNode, "modified entry without owner");
        isim_assert(e.sharers == (1u << e.owner),
                    "modified entry sharer mask not exactly the owner");
        break;
      case LineState::Exclusive:
        isim_panic("directory entries use Modified for owned lines");
    }
}

void
Directory::saveState(ckpt::Serializer &s) const
{
    // Sorting blocks by number and writing each block's lines in
    // offset order gives the lines in increasing order.
    std::vector<const Block *> live;
    live.reserve(liveBlocks_);
    for (const Block &b : blocks_) {
        if (b.block != emptyBlock)
            live.push_back(&b);
    }
    std::sort(live.begin(), live.end(), [](const Block *x, const Block *y) {
        return x->block < y->block;
    });
    s.u64(size_);
    for (const Block *b : live) {
        for (std::uint32_t bits = b->present; bits != 0; bits &= bits - 1) {
            const unsigned off =
                static_cast<unsigned>(__builtin_ctz(bits));
            const DirEntry &e = b->entries[off];
            s.u64(b->block << 4 | off);
            s.u8(static_cast<std::uint8_t>(e.state));
            s.u32(e.sharers);
            s.u32(e.owner);
        }
    }
}

void
Directory::restoreState(ckpt::Deserializer &d)
{
    const std::uint64_t count = d.u64();
    if (count > d.sectionRemaining() / savedEntryBytes)
        isim_fatal("checkpoint corrupt: directory claims %llu entries, "
                   "but only %zu bytes remain in the section",
                   static_cast<unsigned long long>(count),
                   d.sectionRemaining());
    // Lines past the last node's window have no home.
    const Addr line_limit =
        homeMap_.nodeBase(homeMap_.numNodes) >> lineBits_;
    // Lines arrive in increasing order, so each block's lines arrive
    // together: collect the blocks, then size the table once.
    std::vector<Block> sorted;
    Addr prev = 0;
    for (std::uint64_t n = 0; n < count; ++n) {
        const Addr line_addr = d.u64();
        if (line_addr >= line_limit)
            isim_fatal("checkpoint corrupt: directory line %#llx lies "
                       "outside installed memory (%u nodes)",
                       static_cast<unsigned long long>(line_addr),
                       homeMap_.numNodes);
        if (n > 0 && line_addr <= prev)
            isim_fatal("checkpoint corrupt: directory line %#llx does "
                       "not follow %#llx in increasing order",
                       static_cast<unsigned long long>(line_addr),
                       static_cast<unsigned long long>(prev));
        prev = line_addr;
        DirEntry e;
        const std::uint8_t state = d.u8();
        if (state > static_cast<std::uint8_t>(LineState::Modified))
            isim_fatal("checkpoint corrupt: directory state %u", state);
        e.state = static_cast<LineState>(state);
        e.sharers = d.u32();
        e.owner = d.u32();
        checkEntry(e, homeMap_.numNodes);
        const Addr block = line_addr >> 4;
        if (sorted.empty() || sorted.back().block != block)
            sorted.push_back(Block{block, 0, {}});
        const unsigned off = line_addr & 15;
        sorted.back().present |= 1u << off;
        sorted.back().entries[off] = e;
    }
    std::size_t capacity = initialBlocks;
    while (capacity < 2 * sorted.size())
        capacity *= 2;
    reset(capacity);
    for (const Block &b : sorted)
        place(b);
}

} // namespace isim
