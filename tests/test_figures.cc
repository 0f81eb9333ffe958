/**
 * @file
 * End-to-end checks of the paper's headline claims at reduced scale,
 * plus structural checks of the figure specifications. These are the
 * "shape" assertions: orderings and rough factors, not absolute bars.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "src/base/logging.hh"
#include "src/core/figures.hh"
#include "src/core/report.hh"

namespace isim {
namespace {

/** Shrink a figure config to test scale. */
MachineConfig
shrink(MachineConfig cfg, std::uint64_t txns = 220)
{
    cfg.workload.transactions = txns;
    cfg.workload.warmupTransactions = txns;
    return cfg;
}

RunResult
runCfg(const MachineConfig &cfg)
{
    setQuiet(true);
    Machine m(cfg);
    return m.run();
}

TEST(Claims, AssociativityBeatsDirectMappedAtSameSize)
{
    // Section 3: "the associative L2 outperforms the same size
    // direct-mapped L2" (1-2MB range).
    const RunResult dm = runCfg(shrink(figures::offchip(1, 1 * mib, 1)));
    const RunResult sa = runCfg(shrink(figures::offchip(1, 1 * mib, 4)));
    EXPECT_LT(sa.stat("l2.miss.total"), dm.stat("l2.miss.total"));
    EXPECT_LT(sa.stat("cpu.exec_time"), dm.stat("cpu.exec_time"));
}

TEST(Claims, SmallAssociativeOnChipBeatsBigDirectMappedOffChip)
{
    // The headline result: a 2MB 4/8-way on-chip cache has *fewer
    // misses* than an 8MB direct-mapped off-chip cache.
    const RunResult base = runCfg(shrink(figures::baseMachine(1)));
    const RunResult onchip4 = runCfg(
        shrink(figures::onchip(1, 2 * mib, 4, IntegrationLevel::L2Int)));
    const RunResult onchip8 = runCfg(
        shrink(figures::onchip(1, 2 * mib, 8, IntegrationLevel::L2Int)));
    EXPECT_LT(onchip4.stat("l2.miss.total"), base.stat("l2.miss.total"));
    EXPECT_LT(onchip8.stat("l2.miss.total"),
              onchip4.stat("l2.miss.total") + 1);
    // And the lower hit latency gives a solid uniprocessor speedup.
    EXPECT_LT(onchip8.stat("cpu.exec_time"),
              0.85 * base.stat("cpu.exec_time"));
}

TEST(Claims, MissReductionFromSmallDmToBigAssocIsDramatic)
{
    // Section 3: "almost a 50 times reduction" from 1M 1-way to
    // 8M 4-way. At test scale we require at least an order of
    // magnitude.
    const RunResult small = runCfg(shrink(figures::offchip(1, 1 * mib, 1)));
    const RunResult big = runCfg(shrink(figures::offchip(1, 8 * mib, 4)));
    EXPECT_GT(small.stat("l2.miss.total"), 10 * big.stat("l2.miss.total"));
}

TEST(Claims, ConservativeBaseHurtsMultiprocessorsMost)
{
    // Figure 6: MP performance is sensitive to the remote latencies.
    const RunResult base =
        runCfg(shrink(figures::offchip(4, 8 * mib, 4), 160));
    const RunResult cons =
        runCfg(shrink(figures::offchip(4, 8 * mib, 4, true), 160));
    EXPECT_GT(cons.stat("cpu.exec_time"), base.stat("cpu.exec_time"));
    // Same caches: miss counts must be (nearly) identical; only the
    // latency charging differs.
    const double m1 = base.stat("l2.miss.total");
    const double m2 = cons.stat("l2.miss.total");
    EXPECT_NEAR(m1, m2, 0.1 * m1);
}

TEST(Claims, FullIntegrationDeliversTheHeadlineSpeedups)
{
    // Section 5: ~1.4x for MP (half from the L2, half from MC+CC/NR).
    const RunResult base =
        runCfg(shrink(figures::baseMachine(4), 160));
    const RunResult l2 = runCfg(shrink(
        figures::onchip(4, 2 * mib, 8, IntegrationLevel::L2Int), 160));
    const RunResult full = runCfg(shrink(
        figures::onchip(4, 2 * mib, 8, IntegrationLevel::FullInt), 160));
    EXPECT_LT(l2.stat("cpu.exec_time"), base.stat("cpu.exec_time"));
    EXPECT_LT(full.stat("cpu.exec_time"), l2.stat("cpu.exec_time"));
    const double gain =
        base.stat("cpu.exec_time") / full.stat("cpu.exec_time");
    EXPECT_GT(gain, 1.2);
    EXPECT_LT(gain, 1.9);
}

TEST(Claims, MpIsDominatedByRemoteStall)
{
    // Figures 6/8: communication misses make remote stall the largest
    // execution-time component at large cache sizes.
    const RunResult r = runCfg(shrink(figures::baseMachine(4), 160));
    const double rem =
        r.stat("cpu.remote_stall") + r.stat("cpu.remote_dirty_stall");
    EXPECT_GT(rem, r.stat("cpu.local_stall"));
    EXPECT_GT(rem, r.stat("cpu.busy"));
}

TEST(Claims, OooIsFasterButIntegrationGainIsSimilar)
{
    // Section 7: OOO gives ~1.3-1.4x, and the *relative* integration
    // gain is virtually identical for the two processor models.
    const std::uint64_t txns = 200;
    const RunResult in_base =
        runCfg(shrink(figures::baseMachine(1, CpuModel::InOrder), txns));
    const RunResult ooo_base = runCfg(
        shrink(figures::baseMachine(1, CpuModel::OutOfOrder), txns));
    EXPECT_LT(ooo_base.stat("cpu.exec_time"), in_base.stat("cpu.exec_time"));

    const RunResult in_l2 = runCfg(shrink(
        figures::onchip(1, 2 * mib, 8, IntegrationLevel::L2Int,
                        L2Impl::OnchipSram, CpuModel::InOrder),
        txns));
    const RunResult ooo_l2 = runCfg(shrink(
        figures::onchip(1, 2 * mib, 8, IntegrationLevel::L2Int,
                        L2Impl::OnchipSram, CpuModel::OutOfOrder),
        txns));
    const double gain_in =
        in_base.stat("cpu.exec_time") / in_l2.stat("cpu.exec_time");
    const double gain_ooo =
        ooo_base.stat("cpu.exec_time") / ooo_l2.stat("cpu.exec_time");
    EXPECT_GT(gain_in, 1.0);
    EXPECT_GT(gain_ooo, 1.0);
    EXPECT_NEAR(gain_in, gain_ooo, 0.25 * gain_in);
}

TEST(Specs, FigureShapesAreWellFormed)
{
    for (const FigureSpec &spec :
         {figures::figure5(), figures::figure6(), figures::figure7(),
          figures::figure8(), figures::figure10Uni(),
          figures::figure10Mp(), figures::figure11(),
          figures::figure12(), figures::figure13Uni(),
          figures::figure13Mp()}) {
        EXPECT_FALSE(spec.bars.empty()) << spec.id;
        EXPECT_LT(spec.normalizeTo, spec.bars.size()) << spec.id;
        for (const FigureBar &bar : spec.bars) {
            EXPECT_TRUE(
                validCombination(bar.config.level, bar.config.l2Impl))
                << spec.id << " / " << bar.config.name;
            EXPECT_FALSE(bar.config.name.empty()) << spec.id;
        }
    }
}

TEST(Specs, CountsMatchThePaper)
{
    EXPECT_EQ(figures::figure5().bars.size(), 9u);
    EXPECT_EQ(figures::figure6().bars.size(), 9u);
    EXPECT_EQ(figures::figure7().bars.size(), 7u);
    EXPECT_EQ(figures::figure8().bars.size(), 7u);
    EXPECT_EQ(figures::figure10Uni().bars.size(), 3u);
    EXPECT_EQ(figures::figure10Mp().bars.size(), 4u);
    EXPECT_EQ(figures::figure11().bars.size(), 4u);
    EXPECT_EQ(figures::figure12().bars.size(), 5u);
    EXPECT_EQ(figures::figure13Uni().bars.size(), 4u);
    EXPECT_EQ(figures::figure13Mp().bars.size(), 5u);
    // Figure 13 is normalized to the Base out-of-order bar.
    EXPECT_EQ(figures::figure13Uni().normalizeTo, 1u);
}

TEST(Report, TablesRenderAllBars)
{
    setQuiet(true);
    FigureSpec spec = figures::figure10Uni();
    for (FigureBar &bar : spec.bars) {
        bar.config.workload.transactions = 40;
        bar.config.workload.warmupTransactions = 15;
        bar.config.workload.branches = 8;
        bar.config.workload.accountsPerBranch = 10000;
        bar.config.workload.blockBufferBytes = 64 * mib;
    }
    RunOptions options;
    options.verbose = false;
    const FigureResult result = runFigures({spec}, options).front();
    const Table exec = executionTable(result);
    const Table miss = missTable(result);
    const Table detail = detailTable(result);
    EXPECT_EQ(exec.rows(), spec.bars.size());
    EXPECT_EQ(miss.rows(), spec.bars.size());
    EXPECT_EQ(detail.rows(), spec.bars.size());
    // Normalized total of the reference bar is exactly 100.
    const std::string text = exec.toText();
    EXPECT_NE(text.find("100.0"), std::string::npos);
    EXPECT_FALSE(summaryLine(result).empty());

    // JSON export: well-formed enough to carry every bar.
    const std::string json = figureToJson(result);
    EXPECT_NE(json.find("\"id\": \"Figure 10\""), std::string::npos);
    for (const RunResult &r : result.runs) {
        EXPECT_NE(json.find("\"" + r.name + "\""), std::string::npos);
    }
    EXPECT_NE(json.find("\"exec_norm\": 100.0000"), std::string::npos);
    EXPECT_NE(json.find("\"miss_data_3hop\""), std::string::npos);
    // Balanced braces/brackets (cheap well-formedness check).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

} // namespace
} // namespace isim
