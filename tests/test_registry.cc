/**
 * @file
 * Tests for the figure registry (catalog completeness, id
 * resolution).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/core/registry.hh"

namespace isim {
namespace {

TEST(Registry, EveryBenchIdResolves)
{
    // The prefixes the docs and CI pass to `isim-fig run`; a miss
    // here means a documented figure command no longer resolves.
    const std::vector<std::string> ids = {
        "fig05",           "fig06",
        "fig07",           "fig08",
        "fig10",           "fig11",
        "fig12",           "fig13",
        "ablation-assoc",  "ablation-victim",
        "ablation-coloring", "ablation-bandwidth",
        "ext-cmp",         "ext-dss",
        "ext-prefetch",
    };
    const FigureRegistry &registry = FigureRegistry::instance();
    for (const std::string &id : ids) {
        EXPECT_FALSE(registry.resolve(id).empty())
            << "no registry entry matches '" << id << "'";
    }
}

TEST(Registry, IdsAreUniqueAndEntriesWellFormed)
{
    const FigureRegistry &registry = FigureRegistry::instance();
    EXPECT_GE(registry.entries().size(), 20u);
    std::set<std::string> seen;
    for (const FigureEntry &e : registry.entries()) {
        EXPECT_TRUE(seen.insert(e.id).second)
            << "duplicate id " << e.id;
        EXPECT_FALSE(e.description.empty()) << e.id;
        ASSERT_TRUE(e.make) << e.id;
    }
}

TEST(Registry, FactoriesProduceRunnableSpecs)
{
    for (const FigureEntry &e : FigureRegistry::instance().entries()) {
        const FigureSpec spec = e.make();
        EXPECT_FALSE(spec.id.empty()) << e.id;
        ASSERT_FALSE(spec.bars.empty()) << e.id;
        EXPECT_LT(spec.normalizeTo, spec.bars.size()) << e.id;
        for (const FigureBar &bar : spec.bars) {
            EXPECT_GE(bar.config.numCpus, 1u)
                << e.id << " bar " << bar.config.name;
        }
    }
}

TEST(Registry, ExactMatchBeatsPrefix)
{
    const FigureRegistry &registry = FigureRegistry::instance();
    const FigureEntry *uni = registry.find("fig10-uni");
    ASSERT_NE(uni, nullptr);
    const std::vector<const FigureEntry *> exact =
        registry.resolve("fig10-uni");
    ASSERT_EQ(exact.size(), 1u);
    EXPECT_EQ(exact[0], uni);
}

TEST(Registry, PrefixResolvesToAllVariants)
{
    const FigureRegistry &registry = FigureRegistry::instance();
    EXPECT_EQ(registry.resolve("fig10").size(), 2u);
    EXPECT_EQ(registry.resolve("fig13").size(), 2u);
    EXPECT_EQ(registry.resolve("ablation-assoc").size(), 2u);
    EXPECT_GE(registry.resolve("ablation").size(), 5u);
    EXPECT_TRUE(registry.resolve("no-such-figure").empty());
    EXPECT_EQ(registry.find("no-such-figure"), nullptr);
}

} // namespace
} // namespace isim
