/**
 * @file
 * Unit and property tests for the set-associative tag array,
 * including a randomized cross-check against a reference LRU model
 * and of its live valid-line count and saved bytes against a
 * placement model with a reference encoder.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <list>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/logging.hh"
#include "src/base/random.hh"
#include "src/ckpt/serializer.hh"
#include "src/mem/cache_array.hh"

namespace isim {
namespace {

TEST(CacheArray, MissOnEmpty)
{
    CacheArray array(CacheGeometry{8 * kib, 2, 64});
    EXPECT_EQ(array.findLine(0), nullptr);
    EXPECT_EQ(array.validLines(), 0u);
}

TEST(CacheArray, AllocateThenFind)
{
    CacheArray array(CacheGeometry{8 * kib, 2, 64});
    Victim v;
    array.allocate(100, LineState::Shared, v);
    EXPECT_FALSE(v.valid);
    CacheLine *line = array.findLine(100);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->state, LineState::Shared);
    EXPECT_EQ(array.lineAddrOf(*line), 100u);
    EXPECT_EQ(array.validLines(), 1u);
}

TEST(CacheArray, LruVictimSelection)
{
    // 2-way, map three conflicting lines to the same set.
    const CacheGeometry g{8 * kib, 2, 64};
    CacheArray array(g);
    const std::uint64_t sets = g.sets();
    const Addr a = 5, b = 5 + sets, c = 5 + 2 * sets;

    Victim v;
    array.allocate(a, LineState::Shared, v);
    array.allocate(b, LineState::Modified, v);
    EXPECT_FALSE(v.valid);

    // Touch `a` so `b` becomes LRU.
    array.touch(*array.findLine(a));
    array.allocate(c, LineState::Shared, v);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, b);
    EXPECT_EQ(v.state, LineState::Modified);
    EXPECT_NE(array.findLine(a), nullptr);
    EXPECT_EQ(array.findLine(b), nullptr);
    EXPECT_NE(array.findLine(c), nullptr);
}

TEST(CacheArray, InvalidateFreesWay)
{
    CacheArray array(CacheGeometry{8 * kib, 2, 64});
    Victim v;
    array.allocate(1, LineState::Shared, v);
    array.invalidate(*array.findLine(1));
    EXPECT_EQ(array.findLine(1), nullptr);
    EXPECT_EQ(array.validLines(), 0u);
}

TEST(CacheArray, ForEachValidVisitsAll)
{
    CacheArray array(CacheGeometry{8 * kib, 2, 64});
    Victim v;
    array.allocate(1, LineState::Shared, v);
    array.allocate(2, LineState::Modified, v);
    std::map<Addr, LineState> seen;
    array.forEachValid([&](Addr line, const CacheLine &cl) {
        seen[line] = cl.state;
    });
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[1], LineState::Shared);
    EXPECT_EQ(seen[2], LineState::Modified);
}

TEST(CacheArrayDeathTest, DoubleAllocatePanics)
{
    CacheArray array(CacheGeometry{8 * kib, 2, 64});
    Victim v;
    array.allocate(7, LineState::Shared, v);
    EXPECT_DEATH(array.allocate(7, LineState::Shared, v),
                 "already-resident");
}

/**
 * A saved tag array whose bytes a test can edit before restoring them.
 * The image is one section: magic and version (12 bytes), the section
 * header (tag, length, CRC: 16 bytes), then CacheArray::saveState's
 * payload, whose valid lines start after geometry, LRU stamp and count.
 */
class SavedArray
{
  public:
    static constexpr std::size_t payloadAt = 12 + 16;
    static constexpr std::size_t countAt = payloadAt + 8 + 4 + 4 + 8;
    /** Per line: slot u64, tag u64, state u8, prefetched u8, stamp u64. */
    static constexpr std::size_t lineBytes = 8 + 8 + 1 + 1 + 8;

    explicit SavedArray(const CacheArray &array)
    {
        ckpt::Serializer s;
        s.beginSection(ckpt::sectionTag("CARR"));
        array.saveState(s);
        s.endSection();
        image_ = s.take();
    }

    /** Byte offset of field `offset` within the `n`-th saved line. */
    static std::size_t lineAt(std::size_t n, std::size_t offset)
    {
        return countAt + 8 + n * lineBytes + offset;
    }

    std::uint64_t u64At(std::size_t at) const
    {
        std::uint64_t v = 0;
        std::memcpy(&v, image_.data() + at, 8); // images are little-endian
        return v;
    }
    void setU64(std::size_t at, std::uint64_t v)
    {
        std::memcpy(image_.data() + at, &v, 8);
    }

    /**
     * Restore into `array`, re-framing the section's CRC first so the
     * edit reaches restoreState. Returns the isim_fatal message, or ""
     * if the restore was accepted.
     */
    std::string restoreInto(CacheArray &array)
    {
        const std::uint32_t crc = ckpt::crc32(image_.data() + payloadAt,
                                              image_.size() - payloadAt);
        std::memcpy(image_.data() + payloadAt - 4, &crc, 4);
        const ScopedPanicThrow guard;
        try {
            ckpt::Deserializer d(image_);
            d.beginSection(ckpt::sectionTag("CARR"));
            array.restoreState(d);
            d.endSection();
        } catch (const PanicError &e) {
            return e.what();
        }
        return "";
    }

  private:
    std::vector<std::uint8_t> image_;
};

/** An 8 KiB 2-way array (128 slots) holding two lines, saved. */
SavedArray
savedTwoLines()
{
    CacheArray array(CacheGeometry{8 * kib, 2, 64});
    Victim v;
    array.allocate(5, LineState::Shared, v);
    array.allocate(9, LineState::Modified, v);
    return SavedArray(array);
}

TEST(CacheArrayRestore, UneditedImageRoundTrips)
{
    SavedArray saved = savedTwoLines();
    EXPECT_EQ(saved.u64At(SavedArray::countAt), 2u);
    EXPECT_LT(saved.u64At(SavedArray::lineAt(0, 0)),
              saved.u64At(SavedArray::lineAt(1, 0)));
    CacheArray array(CacheGeometry{8 * kib, 2, 64});
    EXPECT_EQ(saved.restoreInto(array), "");
    ASSERT_NE(array.findLine(5), nullptr);
    EXPECT_EQ(array.findLine(9)->state, LineState::Modified);
}

TEST(CacheArrayRestore, MoreValidLinesThanSlotsIsFatal)
{
    SavedArray saved = savedTwoLines();
    saved.setU64(SavedArray::countAt, 129);
    CacheArray array(CacheGeometry{8 * kib, 2, 64});
    const std::string err = saved.restoreInto(array);
    EXPECT_NE(err.find("129 valid lines in a 8192 B / 2-way / 64 B line "
                       "cache of 128 slots"),
              std::string::npos)
        << err;
}

TEST(CacheArrayRestore, RepeatedSlotIsFatal)
{
    SavedArray saved = savedTwoLines();
    saved.setU64(SavedArray::lineAt(1, 0),
                 saved.u64At(SavedArray::lineAt(0, 0)));
    CacheArray array(CacheGeometry{8 * kib, 2, 64});
    const std::string err = saved.restoreInto(array);
    EXPECT_NE(err.find("8192 B / 2-way / 64 B line cache (slots must be "
                       "strictly increasing)"),
              std::string::npos)
        << err;
}

TEST(CacheArrayRestore, TagWiderThanTheLineFieldIsFatal)
{
    SavedArray saved = savedTwoLines();
    const std::size_t tag_at = SavedArray::lineAt(0, 8);
    saved.setU64(tag_at, saved.u64At(tag_at) | (1ull << CacheLine::tagBits));
    CacheArray array(CacheGeometry{8 * kib, 2, 64});
    const std::string err = saved.restoreInto(array);
    EXPECT_NE(err.find("8192 B / 2-way / 64 B line cache is wider than 61 "
                       "bits"),
              std::string::npos)
        << err;
}

/**
 * A model of the array's placement: per slot the tag, state, prefetch
 * flag and LRU stamp, filled the way allocate() fills (first invalid
 * way, else the least recently used), plus a reference encoder of
 * saveState written from the Serializer primitives.
 */
class PlacementModel
{
  public:
    explicit PlacementModel(const CacheGeometry &g)
        : geom_(g), sets_(g.sets()), slots_(g.lines())
    {
    }

    /** Mirror of CacheArray::allocate; returns the slot filled. */
    std::size_t allocate(Addr line, LineState state)
    {
        const std::size_t base = (line % sets_) * geom_.assoc;
        std::size_t pick = base;
        for (std::size_t w = 0; w < geom_.assoc; ++w) {
            if (slots_[base + w].state == LineState::Invalid) {
                pick = base + w;
                break;
            }
            if (slots_[base + w].lastUse < slots_[pick].lastUse)
                pick = base + w;
        }
        slots_[pick] = Slot{line / sets_, state, false, ++stamp_};
        return pick;
    }
    void touch(std::size_t slot) { slots_[slot].lastUse = ++stamp_; }
    void invalidate(std::size_t slot)
    {
        slots_[slot].state = LineState::Invalid;
    }
    void setPrefetched(std::size_t slot, bool v)
    {
        slots_[slot].prefetched = v;
    }
    /** The slot holding `line`, or -1. */
    std::int64_t find(Addr line) const
    {
        const std::size_t base = (line % sets_) * geom_.assoc;
        for (std::size_t w = 0; w < geom_.assoc; ++w) {
            const Slot &s = slots_[base + w];
            if (s.state != LineState::Invalid && s.tag == line / sets_)
                return static_cast<std::int64_t>(base + w);
        }
        return -1;
    }

    std::uint64_t validLines() const
    {
        std::uint64_t n = 0;
        for (const Slot &s : slots_)
            n += s.state != LineState::Invalid;
        return n;
    }

    /** CacheArray::saveState's bytes, one primitive at a time. */
    void save(ckpt::Serializer &s) const
    {
        s.u64(geom_.sizeBytes);
        s.u32(geom_.assoc);
        s.u32(geom_.lineBytes);
        s.u64(stamp_);
        s.u64(validLines());
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            const Slot &slot = slots_[i];
            if (slot.state == LineState::Invalid)
                continue;
            s.u64(i);
            s.u64(slot.tag);
            s.u8(static_cast<std::uint8_t>(slot.state));
            s.b(slot.prefetched);
            s.u64(slot.lastUse);
        }
    }

  private:
    struct Slot
    {
        Addr tag = 0;
        LineState state = LineState::Invalid;
        bool prefetched = false;
        std::uint64_t lastUse = 0;
    };

    CacheGeometry geom_;
    std::uint64_t sets_;
    std::uint64_t stamp_ = 0;
    std::vector<Slot> slots_;
};

/** One section holding `save(s)`'s bytes. */
template <typename Saver>
std::vector<std::uint8_t>
sectionBytes(const Saver &save)
{
    ckpt::Serializer s;
    s.beginSection(ckpt::sectionTag("CARR"));
    save(s);
    s.endSection();
    return s.take();
}

std::vector<std::uint8_t>
savedBytes(const CacheArray &array)
{
    return sectionBytes(
        [&](ckpt::Serializer &s) { array.saveState(s); });
}

/** Restore `image` (a sectionBytes) into `array`. */
void
restoreBytes(CacheArray &array, const std::vector<std::uint8_t> &image)
{
    ckpt::Deserializer d(image);
    d.beginSection(ckpt::sectionTag("CARR"));
    array.restoreState(d);
    d.endSection();
    d.finish();
}

std::uint64_t
scannedValidLines(const CacheArray &array)
{
    std::uint64_t n = 0;
    array.forEachValid([&](Addr, const CacheLine &) { ++n; });
    return n;
}

class CacheArrayCodec : public ::testing::TestWithParam<CacheGeometry>
{
};

// Random fills, touches, prefetch marks and invalidations, with save ->
// restore round trips into a fresh array (no clearing pass), into a
// busy one (cleared first) and into itself along the way: the live
// count always equals a full scan, and the saved bytes always equal
// the reference encoding of the placement model.
TEST_P(CacheArrayCodec, LiveCountAndBytesMatchReference)
{
    const CacheGeometry g = GetParam();
    CacheArray array(g);
    PlacementModel model(g);
    Rng rng(0xC0DEC + g.assoc + g.sizeBytes);
    const std::uint64_t pool = g.lines() * 3;
    const LineState states[] = {LineState::Shared, LineState::Exclusive,
                                LineState::Modified};

    for (int step = 0; step < 6000; ++step) {
        const Addr line = rng.below(pool);
        const std::int64_t slot = model.find(line);
        CacheLine *cl = array.findLine(line);
        ASSERT_EQ(cl != nullptr, slot >= 0) << "step " << step;
        const std::uint64_t op = rng.below(10);
        if (cl != nullptr && op < 3) {
            array.invalidate(*cl);
            model.invalidate(static_cast<std::size_t>(slot));
        } else if (cl != nullptr) {
            array.touch(*cl);
            model.touch(static_cast<std::size_t>(slot));
        } else {
            Victim v;
            const LineState st = states[rng.below(3)];
            CacheLine &filled = array.allocate(line, st, v);
            const std::size_t at = model.allocate(line, st);
            if (op == 9) {
                filled.prefetched = true;
                model.setPrefetched(at, true);
            }
        }
        ASSERT_EQ(array.validLines(), scannedValidLines(array))
            << "step " << step;

        if (step % 500 == 499) {
            const std::vector<std::uint8_t> image = savedBytes(array);
            ASSERT_EQ(image, sectionBytes([&](ckpt::Serializer &s) {
                          model.save(s);
                      }))
                << "step " << step;

            CacheArray fresh(g);
            restoreBytes(fresh, image);
            EXPECT_EQ(fresh.validLines(), scannedValidLines(fresh));
            EXPECT_EQ(savedBytes(fresh), image);

            CacheArray busy(g);
            Victim v;
            for (Addr a = 0; a < g.lines(); a += 3)
                busy.allocate(pool + a, LineState::Modified, v);
            restoreBytes(busy, image);
            EXPECT_EQ(busy.validLines(), scannedValidLines(busy));
            EXPECT_EQ(savedBytes(busy), image);

            restoreBytes(array, image);
            ASSERT_EQ(array.validLines(), scannedValidLines(array));
            ASSERT_EQ(savedBytes(array), image);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheArrayCodec,
    ::testing::Values(CacheGeometry{4 * kib, 1, 64},  // 64 sets
                      CacheGeometry{32 * kib, 8, 64}, // 64 sets
                      CacheGeometry{5 * kib, 1, 64},  // 80 sets
                      CacheGeometry{40 * kib, 8, 64}), // 80 sets
    [](const ::testing::TestParamInfo<CacheGeometry> &tpi) {
        return tpi.param.shortName();
    });

/**
 * Reference model: per-set LRU lists, checked against the array under
 * a long random access/allocate/invalidate workload.
 */
class ReferenceLru
{
  public:
    explicit ReferenceLru(const CacheGeometry &g) : geom_(g) {}

    /** Returns true on hit (and refreshes recency). */
    bool
    access(Addr line)
    {
        auto &set = sets_[geom_.setIndex(line)];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == line) {
                set.erase(it);
                set.push_front(line);
                return true;
            }
        }
        return false;
    }

    /** Allocates; returns victim line or -1. */
    std::int64_t
    allocate(Addr line)
    {
        auto &set = sets_[geom_.setIndex(line)];
        std::int64_t victim = -1;
        if (set.size() == geom_.assoc) {
            victim = static_cast<std::int64_t>(set.back());
            set.pop_back();
        }
        set.push_front(line);
        return victim;
    }

    void
    invalidate(Addr line)
    {
        auto &set = sets_[geom_.setIndex(line)];
        set.remove(line);
    }

  private:
    CacheGeometry geom_;
    std::unordered_map<std::uint64_t, std::list<Addr>> sets_;
};

class CacheArrayProperty
    : public ::testing::TestWithParam<CacheGeometry>
{
};

TEST_P(CacheArrayProperty, MatchesReferenceLru)
{
    const CacheGeometry g = GetParam();
    CacheArray array(g);
    ReferenceLru ref(g);
    Rng rng(0xA11CE + g.assoc + g.sizeBytes);

    // Address pool ~4x the cache to force plenty of evictions.
    const std::uint64_t pool = g.lines() * 4;

    for (int step = 0; step < 20000; ++step) {
        const Addr line = rng.below(pool);
        const int op = static_cast<int>(rng.below(10));
        if (op == 0) {
            // Invalidate in both.
            if (CacheLine *cl = array.findLine(line))
                array.invalidate(*cl);
            ref.invalidate(line);
            continue;
        }
        CacheLine *cl = array.findLine(line);
        const bool ref_hit = ref.access(line);
        ASSERT_EQ(cl != nullptr, ref_hit) << "step " << step;
        if (cl != nullptr) {
            array.touch(*cl);
        } else {
            Victim v;
            array.allocate(line, LineState::Shared, v);
            const std::int64_t ref_victim = ref.allocate(line);
            ASSERT_EQ(v.valid, ref_victim >= 0) << "step " << step;
            if (v.valid) {
                ASSERT_EQ(static_cast<std::int64_t>(v.lineAddr),
                          ref_victim)
                    << "step " << step;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheArrayProperty,
    ::testing::Values(CacheGeometry{4 * kib, 1, 64},
                      CacheGeometry{8 * kib, 2, 64},
                      CacheGeometry{16 * kib, 4, 64},
                      CacheGeometry{32 * kib, 8, 64},
                      CacheGeometry{16 * kib, 16, 64},
                      // non-power-of-two set count (1.25M-style)
                      CacheGeometry{20 * kib, 4, 64}),
    [](const ::testing::TestParamInfo<CacheGeometry> &tpi) {
        return tpi.param.shortName();
    });

/** Fully-associative LRU has the stack (inclusion) property. */
TEST(CacheArray, FullyAssocStackProperty)
{
    const unsigned small_ways = 16, big_ways = 32;
    CacheArray small(
        CacheGeometry{small_ways * 64ull, small_ways, 64});
    CacheArray big(CacheGeometry{big_ways * 64ull, big_ways, 64});
    Rng rng(77);
    std::uint64_t small_hits = 0, big_hits = 0;
    for (int i = 0; i < 30000; ++i) {
        const Addr line = rng.zipf(256, 0.6);
        for (auto *array : {&small, &big}) {
            if (CacheLine *cl = array->findLine(line)) {
                array->touch(*cl);
                (array == &small ? small_hits : big_hits) += 1;
                // Stack property: a small-cache hit implies a
                // big-cache hit.
                if (array == &small) {
                    ASSERT_NE(big.findLine(line), nullptr);
                }
            } else {
                Victim v;
                array->allocate(line, LineState::Shared, v);
            }
        }
    }
    EXPECT_LE(small_hits, big_hits);
}

} // namespace
} // namespace isim
