/**
 * @file
 * Tests for the figure registry (catalog completeness, id
 * resolution) and for SweepSpec cross-product expansion.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/core/figures.hh"
#include "src/core/registry.hh"
#include "src/core/sweep.hh"

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

TEST(Sweep, ExpandsCrossProductFirstAxisFastest)
{
    SweepSpec sweep;
    sweep.id = "test-sweep";
    sweep.title = "2x3 grid";
    sweep.base = figures::baseMachine(1);
    sweep.axes.push_back(
        {"letter",
         {{"a", [](MachineConfig &) {}}, {"b", [](MachineConfig &) {}}}});
    sweep.axes.push_back(
        {"number",
         {{"1", [](MachineConfig &) {}},
          {"2", [](MachineConfig &) {}},
          {"3", [](MachineConfig &) {}}}});
    EXPECT_EQ(sweep.points(), 6u);
    const FigureSpec spec = sweep.expand();
    ASSERT_EQ(spec.bars.size(), 6u);
    EXPECT_EQ(spec.bars[0].config.name, "a 1");
    EXPECT_EQ(spec.bars[1].config.name, "b 1");
    EXPECT_EQ(spec.bars[2].config.name, "a 2");
    EXPECT_EQ(spec.bars[5].config.name, "b 3");
    EXPECT_EQ(spec.id, "test-sweep");
    EXPECT_EQ(spec.title, "2x3 grid");
}

TEST(Sweep, AppliesMutationsInAxisOrder)
{
    SweepSpec sweep;
    sweep.id = "s";
    sweep.title = "axis order";
    sweep.base = figures::baseMachine(1);
    sweep.axes.push_back(
        {"cpus",
         {{"one", [](MachineConfig &c) { c.numCpus = 1; }},
          {"four", [](MachineConfig &c) { c.numCpus = 4; }}}});
    const FigureSpec spec = sweep.expand();
    ASSERT_EQ(spec.bars.size(), 2u);
    EXPECT_EQ(spec.bars[0].config.numCpus, 1u);
    EXPECT_EQ(spec.bars[1].config.numCpus, 4u);
}

TEST(Sweep, EmptyLabelsKeepConfigName)
{
    SweepSpec sweep;
    sweep.id = "s";
    sweep.title = "t";
    sweep.base = figures::baseMachine(1);
    sweep.base.name = "base-name";
    sweep.axes.push_back({"axis", {{"", nullptr}}});
    const FigureSpec spec = sweep.expand();
    ASSERT_EQ(spec.bars.size(), 1u);
    EXPECT_EQ(spec.bars[0].config.name, "base-name");
}

} // namespace
} // namespace isim
