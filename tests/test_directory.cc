/**
 * @file
 * Unit tests for the home map and directory structure, including a
 * model-based check of the block table against std::map and its
 * canonical checkpoint encoding.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "src/base/random.hh"
#include "src/ckpt/serializer.hh"
#include "src/coherence/directory.hh"

namespace isim {
namespace {

TEST(HomeMap, ByteAndLineMapping)
{
    HomeMap map{31, 8};
    EXPECT_EQ(map.homeOfByte(0), 0u);
    EXPECT_EQ(map.homeOfByte((1ull << 31) - 1), 0u);
    EXPECT_EQ(map.homeOfByte(1ull << 31), 1u);
    EXPECT_EQ(map.homeOfByte(7ull << 31), 7u);
    // Line addresses: line = byte >> 6.
    EXPECT_EQ(map.homeOfLine((3ull << 31) >> 6, 6), 3u);
    EXPECT_EQ(map.nodeBase(2), 2ull << 31);
    EXPECT_EQ(map.nodeWindow(), 1ull << 31);
}

TEST(HomeMapDeathTest, OutOfRangeAddress)
{
    HomeMap map{31, 4};
    EXPECT_DEATH(map.homeOfByte(4ull << 31), "outside installed");
}

TEST(Directory, FindAndEntryLifecycle)
{
    Directory dir(HomeMap{31, 8}, 6);
    EXPECT_EQ(dir.find(42), nullptr);
    DirEntry &e = dir.entry(42);
    EXPECT_TRUE(e.isUncached());
    EXPECT_EQ(dir.population(), 1u);
    e.state = LineState::Shared;
    e.sharers = 0b101;
    EXPECT_EQ(dir.find(42)->sharerCount(), 2u);
    EXPECT_TRUE(dir.find(42)->hasSharer(0));
    EXPECT_FALSE(dir.find(42)->hasSharer(1));
    EXPECT_TRUE(dir.find(42)->hasSharer(2));
    dir.erase(42);
    EXPECT_EQ(dir.find(42), nullptr);
    EXPECT_EQ(dir.population(), 0u);
}

TEST(Directory, HomeOfUsesLineAddresses)
{
    Directory dir(HomeMap{31, 8}, 6);
    // Line address of a byte in node 5's window.
    const Addr line = (5ull << 31) >> 6;
    EXPECT_EQ(dir.homeOf(line), 5u);
}

TEST(Directory, CheckEntryAcceptsValidShapes)
{
    DirEntry uncached;
    Directory::checkEntry(uncached);

    DirEntry shared;
    shared.state = LineState::Shared;
    shared.sharers = 0b11;
    Directory::checkEntry(shared);

    DirEntry owned;
    owned.state = LineState::Modified;
    owned.owner = 3;
    owned.sharers = 1u << 3;
    Directory::checkEntry(owned);
}

TEST(DirectoryDeathTest, CheckEntryRejectsBadShapes)
{
    DirEntry bad_shared;
    bad_shared.state = LineState::Shared;
    bad_shared.sharers = 0;
    EXPECT_DEATH(Directory::checkEntry(bad_shared), "empty sharer");

    DirEntry bad_owner;
    bad_owner.state = LineState::Modified;
    bad_owner.owner = 2;
    bad_owner.sharers = 0b111;
    EXPECT_DEATH(Directory::checkEntry(bad_owner), "sharer mask");
}

bool
sameEntry(const DirEntry &a, const DirEntry &b)
{
    return a.state == b.state && a.sharers == b.sharers &&
           a.owner == b.owner;
}

/** Population and a full forEachEntry walk both match the model. */
void
expectMatchesModel(const Directory &dir,
                   const std::map<Addr, DirEntry> &model)
{
    ASSERT_EQ(dir.population(), model.size());
    std::map<Addr, unsigned> visits;
    dir.forEachEntry([&](Addr line, const DirEntry &e) {
        ++visits[line];
        const auto it = model.find(line);
        ASSERT_NE(it, model.end()) << "stale line " << line;
        EXPECT_TRUE(sameEntry(e, it->second)) << "line " << line;
    });
    EXPECT_EQ(visits.size(), model.size());
    for (const auto &[line, n] : visits)
        EXPECT_EQ(n, 1u) << "line " << line << " visited " << n << "x";
}

TEST(Directory, FlatTableMatchesMapModel)
{
    Rng rng(7);
    // Sequential 16-line runs at random block addresses fill whole
    // blocks, whose probe runs collide with their neighbours and wrap
    // past the table's end; the random lines land anywhere.
    const Addr lines_in_memory = (Addr{8} << nodeWindowBits) >> 6;
    std::vector<Addr> keys;
    for (int b = 0; b < 4096; ++b) {
        const Addr base = rng.below(lines_in_memory >> 4) << 4;
        for (Addr i = 0; i < 16; ++i)
            keys.push_back(base + i);
    }
    for (int r = 0; r < 4096; ++r)
        keys.push_back(rng.below(lines_in_memory));

    Directory dir(HomeMap{nodeWindowBits, 8}, 6);
    const std::size_t initial = dir.capacity();
    std::map<Addr, DirEntry> model;

    // One operation on a random key: entry (and overwrite), find or
    // erase, with the given per-mille weights for entry and find.
    const auto step = [&](unsigned entry_pm, unsigned find_pm) {
        const Addr line = keys[rng.below(keys.size())];
        const auto it = model.find(line);
        const unsigned op = static_cast<unsigned>(rng.below(1000));
        if (op < entry_pm) {
            DirEntry &e = dir.entry(line);
            if (it != model.end()) {
                EXPECT_TRUE(sameEntry(e, it->second)) << "line " << line;
            } else {
                EXPECT_TRUE(e.isUncached()) << "line " << line;
            }
            e.state = LineState::Shared;
            e.sharers = static_cast<std::uint32_t>(rng.below(255)) + 1;
            e.owner = static_cast<NodeId>(rng.below(8));
            model[line] = e;
        } else if (op < entry_pm + find_pm) {
            const DirEntry *e = dir.find(line);
            ASSERT_EQ(e != nullptr, it != model.end()) << "line " << line;
            if (e != nullptr) {
                EXPECT_TRUE(sameEntry(*e, it->second)) << "line " << line;
            }
        } else {
            dir.erase(line);
            model.erase(line);
            EXPECT_EQ(dir.find(line), nullptr) << "line " << line;
        }
    };

    // Grow: mostly inserts.
    for (int n = 0; n < 100000; ++n)
        step(600, 200);
    expectMatchesModel(dir, model);
    EXPECT_GE(dir.capacity(), 4 * initial) << "grew fewer than twice";

    // Churn: as many erases as inserts, many from inside runs.
    for (int n = 0; n < 80000; ++n)
        step(400, 200);
    expectMatchesModel(dir, model);

    // Drain: mostly erases.
    for (int n = 0; n < 20000; ++n)
        step(100, 200);
    expectMatchesModel(dir, model);

    // Erase the rest in shuffled order; every survivor stays findable.
    std::vector<Addr> live;
    for (const auto &[line, e] : model)
        live.push_back(line);
    for (std::size_t i = live.size(); i > 1; --i)
        std::swap(live[i - 1], live[rng.below(i)]);
    for (std::size_t i = 0; i < live.size(); ++i) {
        dir.erase(live[i]);
        model.erase(live[i]);
        if (i % 256 == 0) {
            for (const auto &[line, e] : model) {
                const DirEntry *found = dir.find(line);
                ASSERT_NE(found, nullptr) << "line " << line;
                EXPECT_TRUE(sameEntry(*found, e));
            }
        }
    }
    expectMatchesModel(dir, model);
}

/**
 * Home slot of a block number in a fresh table: 64 block slots, the
 * top six bits of the block's Fibonacci hash.
 */
std::size_t
freshHome(Addr block)
{
    return static_cast<std::size_t>(block * 0x9e3779b97f4a7c15ULL >> 58);
}

/** A distinct, valid Shared entry per line, so mix-ups show. */
DirEntry
sharedEntry(Addr line)
{
    DirEntry e;
    e.state = LineState::Shared;
    e.sharers = static_cast<std::uint32_t>(line % 255) + 1;
    return e;
}

TEST(Directory, BlockLifecycle)
{
    Directory dir(HomeMap{nodeWindowBits, 8}, 6);
    std::map<Addr, DirEntry> model;
    const auto add = [&](Addr line) {
        dir.entry(line) = sharedEntry(line);
        model[line] = sharedEntry(line);
    };
    // Live neighbours: the adjacent blocks, partly filled; scattered
    // blocks that load the 64-slot table near half full; and blocks
    // that share the target's home slot and so sit behind it in its
    // probe run, to be shifted back when the target block goes.
    const Addr target = Addr{0x12345} << 4;
    for (Addr i = 0; i < 16; ++i)
        add(target + i);
    for (const Addr line : {target - 3, target - 1, target + 16,
                            target + 20, target + 31})
        add(line);
    for (Addr block = 1, n = 0; n < 3; ++block) {
        if (block != target >> 4 &&
            freshHome(block) == freshHome(target >> 4)) {
            add(block << 4 | n);
            ++n;
        }
    }
    Rng rng(3);
    for (int n = 0; n < 20; ++n)
        add(rng.below(Addr{1} << 24) << 4 | rng.below(16));
    ASSERT_EQ(dir.capacity(), 64u * 16) << "the table grew";

    std::vector<Addr> order;
    for (Addr i = 0; i < 16; ++i)
        order.push_back(target + i);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    for (const Addr line : order) {
        dir.erase(line);
        model.erase(line);
        EXPECT_EQ(dir.find(line), nullptr) << "line " << line;
        EXPECT_EQ(dir.population(), model.size());
        for (const auto &[other, e] : model) {
            const DirEntry *found = dir.find(other);
            ASSERT_NE(found, nullptr) << "line " << other;
            EXPECT_TRUE(sameEntry(*found, e)) << "line " << other;
        }
    }
    for (Addr i = 0; i < 16; ++i)
        EXPECT_EQ(dir.find(target + i), nullptr) << "offset " << i;
    expectMatchesModel(dir, model);
    // A line re-entered into the removed block starts Uncached.
    EXPECT_TRUE(dir.entry(target + 5).isUncached());
}

constexpr std::uint32_t testTag = ckpt::sectionTag("DIRT");

std::vector<std::uint8_t>
savedBytes(const Directory &dir)
{
    ckpt::Serializer s;
    s.beginSection(testTag);
    dir.saveState(s);
    s.endSection();
    return s.take();
}

TEST(Directory, SaveIsCanonicalLineOrder)
{
    Rng rng(19);
    const Addr lines_in_memory = (Addr{8} << nodeWindowBits) >> 6;
    Directory dir(HomeMap{nodeWindowBits, 8}, 6);
    std::map<Addr, DirEntry> model;
    for (int n = 0; n < 20000; ++n) {
        // Half dense runs, half scattered lines; some erased again.
        const Addr line = n % 2 ? rng.below(lines_in_memory)
                                : (rng.below(lines_in_memory >> 8) << 8) +
                                      rng.below(64);
        if (rng.below(5) == 0) {
            dir.erase(line);
            model.erase(line);
            continue;
        }
        DirEntry e;
        if (rng.below(2) == 0) {
            e = sharedEntry(line);
        } else {
            e.state = LineState::Modified;
            e.owner = static_cast<NodeId>(rng.below(8));
            e.sharers = 1u << e.owner;
        }
        dir.entry(line) = e;
        model[line] = e;
    }

    ckpt::Serializer ref;
    ref.beginSection(testTag);
    ref.u64(model.size());
    for (const auto &[line, e] : model) {
        ref.u64(line);
        ref.u8(static_cast<std::uint8_t>(e.state));
        ref.u32(e.sharers);
        ref.u32(e.owner);
    }
    ref.endSection();
    EXPECT_EQ(savedBytes(dir), ref.take());
}

TEST(Directory, SaveRestoreSaveRoundTripsWrappedRuns)
{
    // Blocks homed in a fresh table's last slot fill it and wrap
    // their probe run to the table's front.
    Directory dir(HomeMap{nodeWindowBits, 8}, 6);
    const std::size_t fresh = dir.capacity();
    ASSERT_EQ(fresh, 64u * 16);
    std::vector<Addr> wrapped;
    for (Addr block = 1; wrapped.size() < 5; ++block) {
        if (freshHome(block) == 63)
            wrapped.push_back(block);
    }
    for (const Addr block : wrapped) {
        for (Addr i = 0; i < 16; i += 1 + block % 3)
            dir.entry(block << 4 | i) = sharedEntry(block << 4 | i);
    }
    // Blocks homed in the first slots sit behind the wrapped run.
    for (Addr block = 1, n = 0; n < 3; ++block) {
        if (freshHome(block) <= 1) {
            dir.entry(block << 4 | 7) = sharedEntry(block << 4 | 7);
            ++n;
        }
    }
    ASSERT_EQ(dir.capacity(), fresh) << "the table grew; no wrap left";

    const std::vector<std::uint8_t> first = savedBytes(dir);
    ckpt::Deserializer d(first);
    d.beginSection(testTag);
    Directory restored(HomeMap{nodeWindowBits, 8}, 6);
    restored.restoreState(d);
    d.endSection();
    EXPECT_EQ(restored.population(), dir.population());
    EXPECT_EQ(restored.capacity(), fresh);
    EXPECT_EQ(savedBytes(restored), first);
    dir.forEachEntry([&](Addr line, const DirEntry &e) {
        const DirEntry *found = restored.find(line);
        ASSERT_NE(found, nullptr) << "line " << line;
        EXPECT_TRUE(sameEntry(*found, e)) << "line " << line;
    });
}

} // namespace
} // namespace isim
