/**
 * @file
 * Unit tests for the functional TPC-B database: row placement, history
 * growth, functional execution, the TPC-B consistency conditions and
 * the sparse balance tables' checkpoint encoding.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include "src/base/random.hh"
#include "src/ckpt/serializer.hh"
#include "src/oltp/tables.hh"

namespace isim {
namespace {

WorkloadParams
smallScale()
{
    WorkloadParams p;
    p.branches = 4;
    p.tellersPerBranch = 10;
    p.accountsPerBranch = 1000;
    p.blockBufferBytes = 32 * mib;
    return p;
}

TEST(Tables, TableRegionsAreDisjoint)
{
    const WorkloadParams p = smallScale();
    Sga sga(p);
    TpcbDatabase db(p, sga);

    // Branch, teller, account, index and history blocks must never
    // overlap.
    const std::uint64_t last_branch = db.branchRow(p.branches - 1).block;
    const std::uint64_t first_teller = db.tellerRow(0).block;
    EXPECT_LT(last_branch, first_teller);
    const std::uint64_t last_teller =
        db.tellerRow(p.totalTellers() - 1).block;
    const std::uint64_t first_account = db.accountRow(0).block;
    EXPECT_LT(last_teller, first_account);
    const std::uint64_t last_account =
        db.accountRow(p.totalAccounts() - 1).block;
    EXPECT_LT(last_account, db.accountIndexRoot());
    EXPECT_LT(db.accountIndexRoot(),
              db.accountIndexLeaf(0));
    EXPECT_LT(db.accountIndexLeaf(p.totalAccounts() - 1),
              db.staticBlocks());
    EXPECT_LE(db.staticBlocks(), sga.numBlocks());
}

TEST(Tables, RowsPackIntoBlocks)
{
    const WorkloadParams p = smallScale();
    Sga sga(p);
    TpcbDatabase db(p, sga);
    const unsigned rows_per_block = p.rowsPerBlock();
    // Consecutive accounts share a block until it fills.
    EXPECT_EQ(db.accountRow(0).block,
              db.accountRow(rows_per_block - 1).block);
    EXPECT_NE(db.accountRow(0).block,
              db.accountRow(rows_per_block).block);
    EXPECT_EQ(db.accountRow(1).offset - db.accountRow(0).offset,
              p.rowBytes);
}

TEST(Tables, DistinctRowsDistinctLocations)
{
    const WorkloadParams p = smallScale();
    Sga sga(p);
    TpcbDatabase db(p, sga);
    std::set<std::pair<std::uint64_t, std::uint32_t>> seen;
    for (std::uint64_t a = 0; a < 500; ++a) {
        const RowLocation loc = db.accountRow(a);
        EXPECT_TRUE(seen.insert({loc.block, loc.offset}).second);
    }
}

TEST(Tables, HistoryAppendAdvances)
{
    const WorkloadParams p = smallScale();
    Sga sga(p);
    TpcbDatabase db(p, sga);
    const RowLocation h0 = db.appendHistory();
    const RowLocation h1 = db.appendHistory();
    EXPECT_EQ(db.historyCount(), 2u);
    EXPECT_TRUE(h0.block != h1.block || h0.offset != h1.offset);
    EXPECT_GE(h0.block, db.staticBlocks() - 1);
}

TEST(Tables, FunctionalBalancesMove)
{
    const WorkloadParams p = smallScale();
    Sga sga(p);
    TpcbDatabase db(p, sga);
    db.applyTransaction(7, 3, 0, 250);
    db.applyTransaction(7, 5, 1, -100);
    EXPECT_EQ(db.accountBalance(7), 150);
    EXPECT_EQ(db.tellerBalance(3), 250);
    EXPECT_EQ(db.tellerBalance(5), -100);
    EXPECT_EQ(db.branchBalance(0), 250);
    EXPECT_EQ(db.branchBalance(1), -100);
}

TEST(Tables, ConsistencyHoldsUnderRandomTransactions)
{
    const WorkloadParams p = smallScale();
    Sga sga(p);
    TpcbDatabase db(p, sga);
    Rng rng(11);
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t teller = rng.below(p.totalTellers());
        const std::uint64_t branch = teller / p.tellersPerBranch;
        const std::uint64_t account = rng.below(p.totalAccounts());
        const std::int64_t delta =
            static_cast<std::int64_t>(rng.range(0, 1000000)) - 500000;
        db.appendHistory();
        db.applyTransaction(account, teller, branch, delta);
    }
    EXPECT_TRUE(db.checkConsistency());
    EXPECT_EQ(db.historyCount(), 5000u);
}

constexpr std::uint32_t kTag = ckpt::sectionTag("TPCB");
/** Image header (magic, version) plus the section header. */
constexpr std::size_t kPayloadAt = ckpt::magicBytes + 4 + 16;

/** A one-section image of the database's state. */
std::vector<std::uint8_t>
saveImage(const TpcbDatabase &db)
{
    ckpt::Serializer s;
    s.beginSection(kTag);
    db.saveState(s);
    s.endSection();
    return s.take();
}

void
restoreImage(TpcbDatabase &db, std::vector<std::uint8_t> image)
{
    ckpt::Deserializer d(image);
    d.beginSection(kTag);
    db.restoreState(d);
    d.endSection();
    d.finish();
}

TEST(Tables, ConsistencyCatchesCorruption)
{
    const WorkloadParams p = smallScale();
    Sga sga(p);
    TpcbDatabase db(p, sga);
    db.applyTransaction(7, 3, 0, 250);
    db.applyTransaction(8, 4, 1, 100);
    db.applyTransaction(9, 4, 1, 100);
    db.applyTransaction(9, 4, 1, -100); // net zero, still consistent
    EXPECT_TRUE(db.checkConsistency());

    // The image's first account row is (u64 row 7, i64 250), after
    // the table's row count and nonzero-row count. Book one more unit
    // to it, re-frame the section and restore: the account sum no
    // longer matches the tellers, branches and history.
    std::vector<std::uint8_t> image = saveImage(db);
    std::size_t at = kPayloadAt + 16;
    ASSERT_EQ(image[at], 7u);
    at += 8;
    ASSERT_EQ(image[at], 250u);
    image[at] = 251;
    const std::size_t header = kPayloadAt - 16;
    std::uint64_t len = 0;
    std::memcpy(&len, &image[header + 4], sizeof(len));
    const std::uint32_t crc = ckpt::crc32(&image[kPayloadAt], len);
    std::memcpy(&image[header + 12], &crc, sizeof(crc));

    TpcbDatabase restored(p, sga);
    restoreImage(restored, std::move(image));
    EXPECT_EQ(restored.accountBalance(7), 251);
    EXPECT_FALSE(restored.checkConsistency());
}

TEST(Tables, SparseBalancesSaveLikeDense)
{
    const WorkloadParams p = smallScale();
    Sga sga(p);
    TpcbDatabase db(p, sga);
    std::vector<std::int64_t> accounts(p.totalAccounts());
    std::vector<std::int64_t> tellers(p.totalTellers());
    std::vector<std::int64_t> branches(p.branches);
    std::uint64_t history = 0;
    std::int64_t delta_sum = 0;
    auto apply = [&](std::uint64_t account, std::uint64_t teller,
                     std::int64_t delta) {
        const std::uint64_t branch = teller / p.tellersPerBranch;
        db.appendHistory();
        db.applyTransaction(account, teller, branch, delta);
        accounts[account] += delta;
        tellers[teller] += delta;
        branches[branch] += delta;
        ++history;
        delta_sum += delta;
    };
    Rng rng(5);
    for (int i = 0; i < 300; ++i) {
        apply(rng.below(p.totalAccounts()), rng.below(p.totalTellers()),
              static_cast<std::int64_t>(rng.range(0, 2000)) - 1000);
    }
    // A row that nets to zero is not saved.
    apply(17, 2, 40);
    apply(17, 2, -40);
    ASSERT_EQ(accounts[17], 0);

    // The reference: each table as its row count, its nonzero-row
    // count and the nonzero rows in ascending order, written from the
    // dense model.
    ckpt::Serializer ref;
    ref.beginSection(kTag);
    for (const std::vector<std::int64_t> *table :
         {&accounts, &tellers, &branches}) {
        std::uint64_t nonzero = 0;
        for (const std::int64_t v : *table)
            nonzero += v != 0;
        ref.u64(table->size());
        ref.u64(nonzero);
        for (std::size_t row = 0; row < table->size(); ++row) {
            if ((*table)[row] != 0) {
                ref.u64(row);
                ref.i64((*table)[row]);
            }
        }
    }
    ref.u64(history);
    ref.i64(delta_sum);
    ref.endSection();
    EXPECT_EQ(saveImage(db), ref.take());

    // Every row reads as the dense model, untouched rows as 0.
    std::size_t untouched = 0;
    for (std::uint64_t a = 0; a < p.totalAccounts(); ++a) {
        ASSERT_EQ(db.accountBalance(a), accounts[a]) << "account " << a;
        untouched += accounts[a] == 0;
    }
    EXPECT_GT(untouched, 0u);
    for (std::uint64_t t = 0; t < p.totalTellers(); ++t)
        ASSERT_EQ(db.tellerBalance(t), tellers[t]) << "teller " << t;
    EXPECT_TRUE(db.checkConsistency());

    // A round trip keeps every row and re-saves the same bytes.
    TpcbDatabase restored(p, sga);
    restoreImage(restored, saveImage(db));
    EXPECT_EQ(saveImage(restored), saveImage(db));
    EXPECT_EQ(restored.accountBalance(17), 0);
    EXPECT_TRUE(restored.checkConsistency());
}

TEST(Tables, HistoryInsertBlockRecyclesWhenFull)
{
    WorkloadParams p = smallScale();
    Sga sga(p);
    TpcbDatabase db(p, sga);
    const std::uint64_t first = db.historyInsertBlock();
    // Fill more rows than one block holds; the insert block advances.
    const std::uint64_t rows_per_block = p.blockBytes / 50;
    for (std::uint64_t i = 0; i <= rows_per_block; ++i)
        db.appendHistory();
    EXPECT_NE(db.historyInsertBlock(), first);
}

} // namespace
} // namespace isim
