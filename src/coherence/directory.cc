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

/** Slots in a fresh table (24 KiB); it doubles from here as needed. */
constexpr std::size_t initialSlots = 1024;

/** Bytes one saved entry takes: u64 line, u8 state, u32 sharers, u32 owner. */
constexpr std::size_t savedEntryBytes = 8 + 1 + 4 + 4;

} // namespace

Directory::Directory(const HomeMap &home_map, unsigned line_bits)
    : homeMap_(home_map), lineBits_(line_bits)
{
    isim_assert(homeMap_.numNodes >= 1 && homeMap_.numNodes <= 32);
    reset(initialSlots);
}

void
Directory::reset(std::size_t capacity)
{
    slots_.assign(capacity, Slot{emptyLine, DirEntry{}});
    mask_ = capacity - 1;
    blockShift_ = 64 - static_cast<unsigned>(__builtin_ctzll(capacity >> 4));
    size_ = 0;
}

DirEntry &
Directory::insertAbsent(Addr line_addr)
{
    Slot &s = slots_[probe(line_addr)];
    s.line = line_addr;
    ++size_;
    return s.entry;
}

DirEntry &
Directory::entry(Addr line_addr)
{
    Slot &s = slots_[probe(line_addr)];
    if (s.line == line_addr)
        return s.entry;
    isim_assert(line_addr != emptyLine, "directory line outside memory");
    if (2 * (size_ + 1) <= slots_.size()) {
        s.line = line_addr;
        ++size_;
        return s.entry;
    }
    std::vector<Slot> old;
    old.swap(slots_);
    reset(old.size() * 2);
    for (const Slot &o : old) {
        if (o.line != emptyLine)
            insertAbsent(o.line) = o.entry;
    }
    return insertAbsent(line_addr);
}

void
Directory::erase(Addr line_addr)
{
    std::size_t hole = probe(line_addr);
    if (slots_[hole].line != line_addr)
        return;
    // Backward shift: move each later member of the probe run whose home
    // slot is not cyclically inside (hole, j] back into the hole.
    for (std::size_t j = (hole + 1) & mask_; slots_[j].line != emptyLine;
         j = (j + 1) & mask_) {
        const std::size_t home = slotOf(slots_[j].line);
        if (((j - home) & mask_) >= ((j - hole) & mask_)) {
            slots_[hole] = slots_[j];
            hole = j;
        }
    }
    slots_[hole] = Slot{emptyLine, DirEntry{}};
    --size_;
}

void
Directory::forEachEntry(
    const std::function<void(Addr line_addr, const DirEntry &)> &fn) const
{
    for (const Slot &s : slots_) {
        if (s.line != emptyLine)
            fn(s.line, s.entry);
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
    std::vector<Slot> live;
    live.reserve(size_);
    for (const Slot &slot : slots_) {
        if (slot.line != emptyLine)
            live.push_back(slot);
    }
    std::sort(live.begin(), live.end(),
              [](const Slot &a, const Slot &b) { return a.line < b.line; });
    s.u64(live.size());
    for (const Slot &slot : live) {
        s.u64(slot.line);
        s.u8(static_cast<std::uint8_t>(slot.entry.state));
        s.u32(slot.entry.sharers);
        s.u32(slot.entry.owner);
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
    std::size_t capacity = initialSlots;
    while (capacity < 2 * count)
        capacity *= 2;
    reset(capacity);
    // Lines past the last node's window have no home.
    const Addr line_limit =
        homeMap_.nodeBase(homeMap_.numNodes) >> lineBits_;
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
        insertAbsent(line_addr) = e;
    }
}

} // namespace isim
