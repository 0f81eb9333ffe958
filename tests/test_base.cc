/**
 * @file
 * Unit tests for the base utilities: RNG, integer math, logging.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/base/intmath.hh"
#include "src/base/logging.hh"
#include "src/base/random.hh"
#include "src/ckpt/serializer.hh"
#include "src/oltp/workload_params.hh"
#include "src/os/kernel.hh"

namespace isim {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ReseedResetsStream)
{
    Rng a(7);
    std::vector<std::uint64_t> first;
    for (int i = 0; i < 16; ++i)
        first.push_back(a.next());
    a.seed(7);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next(), first[i]);
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(3);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull,
                                1ull << 40}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowIsRoughlyUniform)
{
    Rng rng(11);
    const std::uint64_t bound = 10;
    std::vector<int> counts(bound, 0);
    const int draws = 100000;
    for (int i = 0; i < draws; ++i)
        ++counts[rng.below(bound)];
    for (std::uint64_t v = 0; v < bound; ++v) {
        EXPECT_NEAR(counts[v], draws / bound, draws / bound * 0.1);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t v = rng.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        saw_lo = saw_lo || v == 3;
        saw_hi = saw_hi || v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInHalfOpenUnitInterval)
{
    Rng rng(9);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 50000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 50000.0, 0.3, 0.01);
}

TEST(Rng, ZipfIsSkewedTowardLowRanks)
{
    Rng rng(23);
    const std::uint64_t n = 1000;
    std::uint64_t head = 0, total = 20000;
    for (std::uint64_t i = 0; i < total; ++i) {
        const std::uint64_t r = rng.zipf(n, 0.8);
        ASSERT_LT(r, n);
        head += r < n / 10;
    }
    // With theta=0.8 the top decile must draw far more than 10%.
    EXPECT_GT(head, total / 4);
}

TEST(Rng, ZipfZeroThetaIsUniform)
{
    Rng rng(29);
    const std::uint64_t n = 10;
    std::vector<int> counts(n, 0);
    for (int i = 0; i < 50000; ++i)
        ++counts[rng.zipf(n, 0.0)];
    for (auto c : counts)
        EXPECT_NEAR(c, 5000, 600);
}

/** The (n, theta) of every table the default machine builds. */
std::vector<std::pair<std::uint64_t, double>>
defaultZipfPairs()
{
    const WorkloadParams w;
    const KernelParams k;
    return {{w.privateBytes / 64, w.privateSkew},
            {w.hotMetadataBytes / 128, w.metadataSkew},
            {16, w.functionSkew},
            {32, w.functionSkew},
            {64, w.functionSkew},
            {k.sharedDataBytes / 64, k.sharedSkew},
            {k.perCpuDataBytes / 64, k.sharedSkew},
            {k.numFunctions, k.sharedSkew}};
}

/** Default pairs plus a grid of skews and sizes, down to n = 1. */
std::vector<std::pair<std::uint64_t, double>>
tabledZipfPairs()
{
    std::vector<std::pair<std::uint64_t, double>> pairs = defaultZipfPairs();
    for (const double theta : {0.53, 0.6, 0.75, 0.85, 0.9, 0.99}) {
        for (const std::uint64_t n :
             {1, 2, 3, 16, 48, 256, 1000, 2048, 65536})
            pairs.emplace_back(n, theta);
    }
    return pairs;
}

/** The generator's state bytes (its position in the stream). */
std::vector<std::uint8_t>
rngState(const Rng &rng)
{
    ckpt::Serializer s;
    rng.saveState(s);
    return s.take();
}

/**
 * `draws` seeded draws through `table` equal Rng::zipf's from a twin
 * generator, and both generators end in the same state.
 */
void
expectTwinDraws(const ZipfTable &table, std::uint64_t seed,
                unsigned draws)
{
    Rng viaTable(seed), viaZipf(seed);
    for (unsigned i = 0; i < draws; ++i) {
        const std::uint64_t want = viaZipf.zipf(table.ranks(), table.theta());
        const std::uint64_t got = table(viaTable);
        if (got != want) {
            ADD_FAILURE() << "n=" << table.ranks()
                          << " theta=" << table.theta() << " draw " << i
                          << ": table " << got << ", Rng::zipf " << want;
            return;
        }
    }
    EXPECT_EQ(rngState(viaTable), rngState(viaZipf))
        << "n=" << table.ranks() << " theta=" << table.theta();
}

TEST(ZipfTable, ThresholdsBracketTheFormula)
{
    constexpr std::uint64_t end = std::uint64_t{1} << 53;
    for (const auto &[n, theta] : tabledZipfPairs()) {
        const ZipfTable table(n, theta);
        ASSERT_TRUE(table.tabled()) << "n=" << n << " theta=" << theta;
        const double a = zipfExponent(theta);
        EXPECT_EQ(table.threshold(0), 0u);
        for (std::uint64_t r = 1; r < n; ++r) {
            const std::uint64_t k = table.threshold(r);
            ASSERT_GT(k, 0u) << "n=" << n << " theta=" << theta;
            ASSERT_LT(k, end) << "n=" << n << " theta=" << theta;
            // The draw just below ranks below r; the threshold reaches r.
            ASSERT_LT(zipfRank(k - 1, n, a), r)
                << "n=" << n << " theta=" << theta << " r=" << r;
            ASSERT_GE(zipfRank(k, n, a), r)
                << "n=" << n << " theta=" << theta << " r=" << r;
        }
    }
}

TEST(ZipfTable, DrawsEqualRngZipfAndLeaveTheSameState)
{
    std::uint64_t seed = 1;
    for (const auto &[n, theta] : tabledZipfPairs())
        expectTwinDraws(ZipfTable(n, theta), mix64(seed++), 1000000);
}

TEST(ZipfTable, FallbackPathsEqualRngZipf)
{
    // Uniform (theta <= 0), too flat for the exactness argument
    // (a < 2.08), and more ranks than the table holds.
    const std::pair<std::uint64_t, double> pairs[] = {
        {1000, 0.0}, {1000, -1.0}, {1000, 0.5}, {1000, 0.3},
        {65537, 0.9}, {1000000, 0.75}};
    std::uint64_t seed = 101;
    for (const auto &[n, theta] : pairs) {
        const ZipfTable table(n, theta);
        EXPECT_FALSE(table.tabled()) << "n=" << n << " theta=" << theta;
        expectTwinDraws(table, mix64(seed++), 200000);
    }
}

TEST(Mix64, IsDeterministicAndSpreads)
{
    EXPECT_EQ(mix64(1), mix64(1));
    EXPECT_NE(mix64(1), mix64(2));
    // Consecutive inputs should differ in many bits.
    const std::uint64_t x = mix64(100) ^ mix64(101);
    EXPECT_GT(__builtin_popcountll(x), 16);
}

TEST(IntMath, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ull << 40));
    EXPECT_FALSE(isPowerOf2((1ull << 40) + 1));
}

TEST(IntMath, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(1ull << 33), 33u);
}

TEST(IntMath, DivCeil)
{
    EXPECT_EQ(divCeil(0, 4), 0u);
    EXPECT_EQ(divCeil(1, 4), 1u);
    EXPECT_EQ(divCeil(4, 4), 1u);
    EXPECT_EQ(divCeil(5, 4), 2u);
}

TEST(IntMath, Rounding)
{
    EXPECT_EQ(roundUp(0, 64), 0u);
    EXPECT_EQ(roundUp(1, 64), 64u);
    EXPECT_EQ(roundUp(64, 64), 64u);
    EXPECT_EQ(roundDown(63, 64), 0u);
    EXPECT_EQ(roundDown(64, 64), 64u);
    EXPECT_EQ(roundDown(127, 64), 64u);
}

TEST(Logging, QuietSuppressesOnlyAdvisories)
{
    setQuiet(true);
    EXPECT_TRUE(quiet());
    isim_warn("suppressed %d", 1);
    isim_inform("suppressed");
    setQuiet(false);
    EXPECT_FALSE(quiet());
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(isim_panic("boom %d", 42), "boom 42");
}

TEST(LoggingDeathTest, AssertWithPercentInCondition)
{
    // The failed condition text must not be interpreted as a format.
    const int a = 5;
    EXPECT_DEATH(isim_assert(a % 2 == 0), "a % 2 == 0");
}

TEST(LoggingDeathTest, FatalExits)
{
    EXPECT_EXIT(isim_fatal("bad config"),
                ::testing::ExitedWithCode(1), "bad config");
}

} // namespace
} // namespace isim
