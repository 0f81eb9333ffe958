/**
 * @file
 * Self-profiler tests (src/prof): registration idempotence, scope
 * accumulation on/off, phased routing, thread-window snapshot/reset,
 * prof.json schema and self-time math, deterministic merge, and a
 * (generous) disabled-scope overhead bound.
 *
 * The ProfScope/registerNode primitives are constructed directly here
 * on purpose — tests are outside the prof-guard lint rule's scope,
 * and the classes compile in every build (only the macros are gated
 * on ISIM_PROF), so this suite runs identically with profiling
 * compiled in or out.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/base/json.hh"
#include "src/prof/profiler.hh"

namespace isim {
namespace prof {
namespace {

/** Every test starts with a clean thread window and the flag off. */
class Prof : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        setEnabled(false);
        threadReset();
    }
    void TearDown() override
    {
        setEnabled(false);
        threadReset();
    }
};

const ProfEntry *
findEntry(const ProfSnapshot &snap, const std::string &path)
{
    for (const ProfEntry &e : snap.entries)
        if (e.path == path)
            return &e;
    return nullptr;
}

TEST_F(Prof, RegisterNodeIsIdempotent)
{
    const Node &a = registerNode("test_prof/idem");
    const Node &b = registerNode("test_prof/idem");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.path, "test_prof/idem");
}

TEST_F(Prof, DisabledScopeAccumulatesNothing)
{
    const Node &node = registerNode("test_prof/disabled");
    {
        ProfScope scope(node);
    }
    const ProfSnapshot snap = threadSnapshot();
    EXPECT_EQ(findEntry(snap, "test_prof/disabled"), nullptr);
}

TEST_F(Prof, EnabledScopeCountsEntersAndTime)
{
    const Node &node = registerNode("test_prof/enabled");
    setEnabled(true);
    for (int i = 0; i < 3; ++i) {
        ProfScope scope(node);
    }
    setEnabled(false);
    const ProfSnapshot snap = threadSnapshot();
    const ProfEntry *e = findEntry(snap, "test_prof/enabled");
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->enters, 3u);
}

TEST_F(Prof, PhasedScopeFollowsThreadPhase)
{
    const Node &warm = registerNode("warmup/test_prof_phased");
    const Node &meas = registerNode("measure/test_prof_phased");
    setEnabled(true);
    {
        ScopedPhase in(Phase::Warmup);
        ProfScope scope(warm, meas);
    }
    {
        ScopedPhase in(Phase::Measure);
        ProfScope scope(warm, meas);
        {
            // Nested phase restores on exit.
            ScopedPhase deeper(Phase::Warmup);
            ProfScope inner(warm, meas);
        }
    }
    setEnabled(false);
    const ProfSnapshot snap = threadSnapshot();
    const ProfEntry *w = findEntry(snap, "warmup/test_prof_phased");
    const ProfEntry *m = findEntry(snap, "measure/test_prof_phased");
    ASSERT_NE(w, nullptr);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(w->enters, 2u);
    EXPECT_EQ(m->enters, 1u);
    // The default phase is Measure again.
    EXPECT_EQ(phase(), Phase::Measure);
}

TEST_F(Prof, ThreadResetOpensAFreshWindow)
{
    const Node &node = registerNode("test_prof/window");
    setEnabled(true);
    {
        ProfScope scope(node);
    }
    threadReset();
    {
        ProfScope scope(node);
    }
    setEnabled(false);
    // findEntry points into the snapshot: keep it alive past the
    // lookup.
    const ProfSnapshot snap = threadSnapshot();
    const ProfEntry *e = findEntry(snap, "test_prof/window");
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->enters, 1u);
}

TEST_F(Prof, ProfJsonIsValidAndSchemaVersioned)
{
    ProfSnapshot snap;
    snap.entries.push_back({"measure", 100, 1, 4});
    snap.entries.push_back({"measure/memapply", 30, 5, 0});
    snap.entries.push_back({"measure/refgen", 60, 7, 2});
    snap.entries.push_back({"report", 10, 1, 9});
    const std::string text = profJson(snap);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(jsonParse(text, doc, &err)) << err;
    EXPECT_EQ(doc.at("schema").text, "isim-prof");
    EXPECT_EQ(static_cast<int>(doc.at("version").number),
              static_cast<int>(kProfSchemaVersion));
    // Flag was left off by the fixture: emission says so.
    EXPECT_FALSE(doc.at("enabled").boolean);
    // total_ns sums top-level nodes only (no double counting).
    EXPECT_EQ(static_cast<std::uint64_t>(doc.at("total_ns").number),
              110u);

    const JsonValue &nodes = doc.at("nodes");
    ASSERT_TRUE(nodes.isArray());
    ASSERT_EQ(nodes.array.size(), 4u);
    // Entries arrive sorted; self = inclusive - direct children.
    EXPECT_EQ(nodes.array[0].at("path").text, "measure");
    EXPECT_EQ(
        static_cast<std::uint64_t>(nodes.array[0].at("self_ns").number),
        10u);
    EXPECT_EQ(nodes.array[1].at("path").text, "measure/memapply");
    EXPECT_EQ(
        static_cast<std::uint64_t>(nodes.array[1].at("self_ns").number),
        30u);
    EXPECT_EQ(
        static_cast<std::uint64_t>(nodes.array[3].at("alloc").number),
        9u);
}

TEST_F(Prof, ProfJsonClampsSelfTimeAtZero)
{
    // Clock jitter can make children sum past the parent; self_ns
    // must clamp rather than wrap.
    ProfSnapshot snap;
    snap.entries.push_back({"warmup", 10, 1, 0});
    snap.entries.push_back({"warmup/image_build", 25, 1, 0});
    JsonValue doc;
    ASSERT_TRUE(jsonParse(profJson(snap), doc, nullptr));
    EXPECT_EQ(static_cast<std::uint64_t>(
                  doc.at("nodes").array[0].at("self_ns").number),
              0u);
}

TEST_F(Prof, EmptySnapshotEmitsAValidStub)
{
    const std::string text = profJson(ProfSnapshot{});
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(jsonParse(text, doc, &err)) << err;
    EXPECT_FALSE(doc.at("enabled").boolean);
    EXPECT_EQ(static_cast<std::uint64_t>(doc.at("total_ns").number),
              0u);
    EXPECT_TRUE(doc.at("nodes").array.empty());
}

TEST_F(Prof, GlobalMergeSumsThreadsDeterministically)
{
    const Node &node = registerNode("test_prof/merge");
    const ProfSnapshot before = collectGlobal();
    const ProfEntry *b = findEntry(before, "test_prof/merge");
    const std::uint64_t baseEnters = b != nullptr ? b->enters : 0;

    setEnabled(true);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&node] {
            for (int i = 0; i < 5; ++i) {
                ProfScope scope(node);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    setEnabled(false);

    // Quiescent: every worker joined. Exited threads' buffers still
    // count, and entries come back sorted by path.
    const ProfSnapshot snap = collectGlobal();
    const ProfEntry *e = findEntry(snap, "test_prof/merge");
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->enters, baseEnters + 20u);
    for (std::size_t i = 1; i < snap.entries.size(); ++i)
        EXPECT_LT(snap.entries[i - 1].path, snap.entries[i].path);
}

TEST_F(Prof, DisabledScopeStaysCheap)
{
    // The one-branch-when-off contract, with sanitizer headroom: a
    // disabled scope is a relaxed load + branch (single-digit ns);
    // asserting < 1 us average catches only catastrophic regressions
    // (say, taking the registry lock per scope) without flaking.
    const Node &node = registerNode("test_prof/overhead");
    constexpr int kIters = 200000;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
        ProfScope scope(node);
    }
    const auto stop = std::chrono::steady_clock::now();
    const double nsPerScope =
        std::chrono::duration<double, std::nano>(stop - start)
            .count() /
        kIters;
    EXPECT_LT(nsPerScope, 1000.0);
    EXPECT_EQ(findEntry(threadSnapshot(), "test_prof/overhead"),
              nullptr);
}

} // namespace
} // namespace prof
} // namespace isim
