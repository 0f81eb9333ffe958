/**
 * @file
 * CacheArray implementation.
 */

#include "src/mem/cache_array.hh"

#include "src/base/logging.hh"
#include "src/ckpt/serializer.hh"

namespace isim {

CacheArray::CacheArray(const CacheGeometry &geometry) : geom_(geometry)
{
    geom_.validate();
    numSets_ = geom_.sets();
    pow2_ = isPowerOf2(numSets_);
    setMask_ = pow2_ ? numSets_ - 1 : 0;
    tagShift_ = pow2_ ? floorLog2(numSets_) : 0;
    lines_.resize(numSets_ * geom_.assoc);
}

CacheLine &
CacheArray::allocate(Addr line_addr, LineState state, Victim &victim)
{
    const std::uint64_t set =
        pow2_ ? (line_addr & setMask_) : (line_addr % numSets_);
    const Addr tag =
        pow2_ ? (line_addr >> tagShift_) : (line_addr / numSets_);
    CacheLine *base = setBase(set);

    CacheLine *slot = nullptr;
    for (unsigned w = 0; w < geom_.assoc; ++w) {
        isim_assert(!(base[w].valid() && base[w].tag == tag),
                    "allocate of already-resident line");
        if (!base[w].valid()) {
            slot = &base[w];
            break;
        }
    }
    if (slot == nullptr) {
        slot = base;
        for (unsigned w = 1; w < geom_.assoc; ++w) {
            if (base[w].lastUse < slot->lastUse)
                slot = &base[w];
        }
    }

    victim = Victim{};
    if (!slot->valid()) {
        ++valid_;
    } else {
        victim.valid = true;
        victim.state = slot->state;
        victim.lineAddr = pow2_ ? ((slot->tag << tagShift_) | set)
                                : (slot->tag * numSets_ + set);
    }

    slot->tag = tag;
    slot->state = state;
    slot->prefetched = false;
    touch(*slot);
    return *slot;
}

Addr
CacheArray::lineAddrOf(const CacheLine &line) const
{
    const std::uint64_t slot = &line - lines_.data();
    isim_assert(slot < lines_.size());
    const std::uint64_t set = slot / geom_.assoc;
    return pow2_ ? ((line.tag << tagShift_) | set)
                 : (line.tag * numSets_ + set);
}

void
CacheArray::forEachValid(
    const std::function<void(Addr, const CacheLine &)> &fn) const
{
    for (const auto &line : lines_) {
        if (line.valid())
            fn(lineAddrOf(line), line);
    }
}

void
CacheArray::saveState(ckpt::Serializer &s) const
{
    s.u64(geom_.sizeBytes);
    s.u32(geom_.assoc);
    s.u32(geom_.lineBytes);
    s.u64(useStamp_);
    // Valid lines only, recorded with their slot index so restore
    // reproduces the exact (set, way) placement — allocate() prefers
    // invalid ways, so placement is behaviour, not just metadata. The
    // live count sizes the run, so one pass fills it and stops at the
    // last valid line.
    s.u64(valid_);
    std::uint8_t *p = s.append(valid_ * savedLineBytes);
    const std::uint8_t *const end = p + valid_ * savedLineBytes;
    for (std::size_t i = 0; p != end; ++i) {
        isim_assert(i < lines_.size(), "valid-line count above the lines");
        const CacheLine &line = lines_[i];
        if (!line.valid())
            continue;
        ckpt::detail::storeLe<std::uint64_t>(p, i);
        ckpt::detail::storeLe<std::uint64_t>(p + 8, line.tag);
        p[16] = static_cast<std::uint8_t>(line.state);
        p[17] = line.prefetched ? 1 : 0;
        ckpt::detail::storeLe<std::uint64_t>(p + 18, line.lastUse);
        p += savedLineBytes;
    }
}

void
CacheArray::restoreState(ckpt::Deserializer &d)
{
    const std::uint64_t size_bytes = d.u64();
    const std::uint32_t assoc = d.u32();
    const std::uint32_t line_bytes = d.u32();
    if (size_bytes != geom_.sizeBytes || assoc != geom_.assoc ||
        line_bytes != geom_.lineBytes)
        isim_fatal("checkpoint cache geometry mismatch: file has "
                   "%llu B / %u-way / %u B lines, this machine has "
                   "%llu B / %u-way / %u B lines",
                   static_cast<unsigned long long>(size_bytes), assoc,
                   line_bytes,
                   static_cast<unsigned long long>(geom_.sizeBytes),
                   geom_.assoc, geom_.lineBytes);
    useStamp_ = d.u64();
    // An array that holds no valid line needs no clearing: allocate()
    // and every lookup ignore an invalid way's other fields.
    if (valid_ != 0) {
        for (auto &line : lines_)
            line = CacheLine{};
        valid_ = 0;
    }
    const auto size_ull = static_cast<unsigned long long>(geom_.sizeBytes);
    const std::uint64_t valid = d.u64();
    if (valid > lines_.size())
        isim_fatal("checkpoint corrupt: %llu valid lines in a %llu B / "
                   "%u-way / %u B line cache of %zu slots",
                   static_cast<unsigned long long>(valid), size_ull,
                   geom_.assoc, geom_.lineBytes, lines_.size());
    std::uint64_t next_slot = 0; // saveState writes slots ascending
    for (std::uint64_t n = 0; n < valid; ++n) {
        const std::uint64_t slot = d.u64();
        if (slot >= lines_.size())
            isim_fatal("checkpoint corrupt: cache slot %llu out of "
                       "range (%zu slots)",
                       static_cast<unsigned long long>(slot),
                       lines_.size());
        if (slot < next_slot)
            isim_fatal("checkpoint corrupt: cache slot %llu follows slot "
                       "%llu in a %llu B / %u-way / %u B line cache "
                       "(slots must be strictly increasing)",
                       static_cast<unsigned long long>(slot),
                       static_cast<unsigned long long>(next_slot - 1),
                       size_ull, geom_.assoc, geom_.lineBytes);
        next_slot = slot + 1;
        CacheLine &line = lines_[slot];
        const std::uint64_t tag = d.u64();
        if (tag >> CacheLine::tagBits != 0)
            isim_fatal("checkpoint corrupt: cache tag %#llx in slot %llu "
                       "of a %llu B / %u-way / %u B line cache is wider "
                       "than %u bits",
                       static_cast<unsigned long long>(tag),
                       static_cast<unsigned long long>(slot), size_ull,
                       geom_.assoc, geom_.lineBytes, CacheLine::tagBits);
        line.tag = tag;
        const std::uint8_t state = d.u8();
        if (state > static_cast<std::uint8_t>(LineState::Modified) ||
            state == static_cast<std::uint8_t>(LineState::Invalid))
            isim_fatal("checkpoint corrupt: cache line state %u", state);
        line.state = static_cast<LineState>(state);
        line.prefetched = d.b();
        line.lastUse = d.u64();
        ++valid_;
    }
}

} // namespace isim
