/**
 * @file
 * Directory implementation.
 */

#include "src/coherence/directory.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/ckpt/serializer.hh"

namespace isim {

namespace {

/** Key slots in a fresh table (1 KiB); it doubles from here as needed. */
constexpr std::size_t initialBlocks = 64;

} // namespace

Directory::Directory(const HomeMap &home_map, unsigned line_bits)
    : homeMap_(home_map), lineBits_(line_bits)
{
    isim_assert(homeMap_.numNodes >= 1 && homeMap_.numNodes <= 32);
    resetKeys(initialBlocks);
}

void
Directory::resetKeys(std::size_t capacity)
{
    keys_.assign(capacity, Key{emptyBlock, 0, 0});
    mask_ = capacity - 1;
    hashShift_ = 64 - static_cast<unsigned>(__builtin_ctzll(capacity));
    liveBlocks_ = 0;
    size_ = 0;
}

void
Directory::claim(const Key &key)
{
    std::size_t i = homeOfBlock(key.block);
    while (keys_[i].block != emptyBlock)
        i = (i + 1) & mask_;
    keys_[i] = key;
    ++liveBlocks_;
    size_ += static_cast<std::size_t>(__builtin_popcount(key.present));
}

DirEntry &
Directory::entry(Addr line_addr)
{
    const Addr block = line_addr >> 4;
    std::size_t i = probe(block);
    if (keys_[i].block != block) {
        if (2 * (liveBlocks_ + 1) > keys_.size()) {
            // Growth rehashes the keys alone: payloads stay put.
            std::vector<Key> old;
            old.swap(keys_);
            resetKeys(old.size() * 2);
            for (const Key &key : old) {
                if (key.block != emptyBlock)
                    claim(key);
            }
            i = probe(block);
        }
        std::uint32_t payload;
        if (!freePayloads_.empty()) {
            payload = freePayloads_.back();
            freePayloads_.pop_back();
        } else {
            isim_assert(payloads_.size() < ~std::uint32_t{0});
            payload = static_cast<std::uint32_t>(payloads_.size());
            payloads_.emplace_back();
        }
        keys_[i] = Key{block, 0, payload};
        ++liveBlocks_;
    }
    Key &key = keys_[i];
    const unsigned off = line_addr & 15;
    DirEntry &e = payloads_[key.payload].entries[off];
    if (!((key.present >> off) & 1u)) {
        key.present |= 1u << off;
        e = DirEntry{};
        ++size_;
    }
    return e;
}

void
Directory::erase(Addr line_addr)
{
    std::size_t hole = probe(line_addr >> 4);
    const std::uint32_t bit = 1u << (line_addr & 15);
    if (!(keys_[hole].present & bit))
        return;
    --size_;
    if ((keys_[hole].present &= ~bit) != 0)
        return;
    // The block's last line went: free its payload, then backward
    // shift the keys. Move each later member of the probe run whose
    // home slot is not cyclically inside (hole, j] back into the hole.
    freePayloads_.push_back(keys_[hole].payload);
    for (std::size_t j = (hole + 1) & mask_; keys_[j].block != emptyBlock;
         j = (j + 1) & mask_) {
        const std::size_t home = homeOfBlock(keys_[j].block);
        if (((j - home) & mask_) >= ((j - hole) & mask_)) {
            keys_[hole] = keys_[j];
            hole = j;
        }
    }
    keys_[hole] = Key{emptyBlock, 0, 0};
    --liveBlocks_;
}

void
Directory::forEachEntry(
    const std::function<void(Addr line_addr, const DirEntry &)> &fn) const
{
    for (const Key &key : keys_) {
        for (std::uint32_t bits = key.present; bits != 0; bits &= bits - 1) {
            const unsigned off =
                static_cast<unsigned>(__builtin_ctz(bits));
            fn(key.block << 4 | off, payloads_[key.payload].entries[off]);
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
    // Sorting the live keys by block number and writing each block's
    // lines in offset order gives the lines in increasing order.
    std::vector<Key> live;
    live.reserve(liveBlocks_);
    for (const Key &key : keys_) {
        if (key.block != emptyBlock)
            live.push_back(key);
    }
    std::sort(live.begin(), live.end(), [](const Key &x, const Key &y) {
        return x.block < y.block;
    });
    s.u64(size_);
    std::uint8_t *p = s.append(size_ * savedEntryBytes);
    for (const Key &key : live) {
        for (std::uint32_t bits = key.present; bits != 0; bits &= bits - 1) {
            const unsigned off =
                static_cast<unsigned>(__builtin_ctz(bits));
            const DirEntry &e = payloads_[key.payload].entries[off];
            ckpt::detail::storeLe<std::uint64_t>(p, key.block << 4 | off);
            p[8] = static_cast<std::uint8_t>(e.state);
            ckpt::detail::storeLe<std::uint32_t>(p + 9, e.sharers);
            ckpt::detail::storeLe<std::uint32_t>(p + 13, e.owner);
            p += savedEntryBytes;
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
    // together: fill the payloads in that order, then size the key
    // table once for the blocks.
    std::vector<Key> keys;
    payloads_.clear();
    freePayloads_.clear();
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
        if (keys.empty() || keys.back().block != block) {
            keys.push_back(
                Key{block, 0, static_cast<std::uint32_t>(payloads_.size())});
            payloads_.emplace_back();
        }
        const unsigned off = line_addr & 15;
        keys.back().present |= 1u << off;
        payloads_.back().entries[off] = e;
    }
    std::size_t capacity = initialBlocks;
    while (capacity < 2 * keys.size())
        capacity *= 2;
    resetKeys(capacity);
    for (const Key &key : keys)
        claim(key);
}

} // namespace isim
