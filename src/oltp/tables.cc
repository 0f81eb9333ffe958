/**
 * @file
 * Functional TPC-B tables implementation.
 */

#include "src/oltp/tables.hh"

#include "src/base/intmath.hh"
#include "src/base/logging.hh"
#include "src/ckpt/serializer.hh"

namespace isim {

namespace {

/** Bytes one saved nonzero row takes: u64 row, i64 balance. */
constexpr std::size_t savedRowBytes = 8 + 8;

} // namespace

std::int64_t
BalanceTable::balance(std::uint64_t row) const
{
    const auto it = nonzero_.find(row);
    return it == nonzero_.end() ? 0 : it->second;
}

void
BalanceTable::add(std::uint64_t row, std::int64_t delta)
{
    isim_assert(row < rows_);
    const auto it = nonzero_.try_emplace(row, 0).first;
    it->second += delta;
    if (it->second == 0)
        nonzero_.erase(it);
}

std::int64_t
BalanceTable::sum() const
{
    std::int64_t total = 0;
    for (const auto &[row, v] : nonzero_)
        total += v;
    return total;
}

void
BalanceTable::saveState(ckpt::Serializer &s) const
{
    s.u64(rows_);
    s.u64(nonzero_.size());
    for (const auto &[row, v] : nonzero_) {
        s.u64(row);
        s.i64(v);
    }
}

void
BalanceTable::restoreState(ckpt::Deserializer &d)
{
    if (d.u64() != rows_)
        isim_fatal("checkpoint %s table size mismatch", name_);
    const std::uint64_t count = d.u64();
    if (count > d.sectionRemaining() / savedRowBytes)
        isim_fatal("checkpoint corrupt: %s table claims %llu nonzero "
                   "rows, but only %zu bytes remain in the section",
                   name_, static_cast<unsigned long long>(count),
                   d.sectionRemaining());
    nonzero_.clear();
    std::uint64_t prev = 0;
    for (std::uint64_t n = 0; n < count; ++n) {
        const std::uint64_t row = d.u64();
        if (row >= rows_)
            isim_fatal("checkpoint corrupt: %s row %llu out of range",
                       name_, static_cast<unsigned long long>(row));
        if (n > 0 && row <= prev)
            isim_fatal("checkpoint corrupt: %s row %llu does not follow "
                       "row %llu in increasing order",
                       name_, static_cast<unsigned long long>(row),
                       static_cast<unsigned long long>(prev));
        const std::int64_t v = d.i64();
        if (v == 0)
            isim_fatal("checkpoint corrupt: %s row %llu has a zero "
                       "balance, which is never saved",
                       name_, static_cast<unsigned long long>(row));
        nonzero_.emplace_hint(nonzero_.end(), row, v);
        prev = row;
    }
}

TpcbDatabase::TpcbDatabase(const WorkloadParams &params, const Sga &sga)
    : params_(params), rowsPerBlock_(params.rowsPerBlock()),
      accounts_("account", params.totalAccounts()),
      tellers_("teller", params.totalTellers()),
      branches_("branch", params.branches)
{
    isim_assert(rowsPerBlock_ >= 1);

    const std::uint64_t branch_blocks =
        divCeil(params_.branches, rowsPerBlock_);
    const std::uint64_t teller_blocks =
        divCeil(params_.totalTellers(), rowsPerBlock_);
    const std::uint64_t account_blocks =
        divCeil(params_.totalAccounts(), rowsPerBlock_);

    branchBase_ = 0;
    tellerBase_ = branchBase_ + branch_blocks;
    accountBase_ = tellerBase_ + teller_blocks;
    indexRootBlock_ = accountBase_ + account_blocks;
    indexLeafBase_ = indexRootBlock_ + 1;
    indexLeaves_ = divCeil(params_.totalAccounts(), keysPerLeaf);
    historyBase_ = indexLeafBase_ + indexLeaves_;

    if (historyBase_ >= sga.numBlocks()) {
        isim_fatal("config key 'workload.block_buffer' = %llu: the "
                   "database needs at least %llu bytes (%llu blocks of "
                   "%u bytes)",
                   static_cast<unsigned long long>(params_.blockBufferBytes),
                   static_cast<unsigned long long>((historyBase_ + 1) *
                                                   params_.blockBytes),
                   static_cast<unsigned long long>(historyBase_ + 1),
                   params_.blockBytes);
    }
    maxHistoryBlocks_ = sga.numBlocks() - historyBase_;
}

RowLocation
TpcbDatabase::branchRow(std::uint64_t branch) const
{
    isim_assert(branch < params_.branches);
    return RowLocation{
        branchBase_ + branch / rowsPerBlock_,
        static_cast<std::uint32_t>((branch % rowsPerBlock_) *
                                   params_.rowBytes)};
}

RowLocation
TpcbDatabase::tellerRow(std::uint64_t teller) const
{
    isim_assert(teller < params_.totalTellers());
    return RowLocation{
        tellerBase_ + teller / rowsPerBlock_,
        static_cast<std::uint32_t>((teller % rowsPerBlock_) *
                                   params_.rowBytes)};
}

RowLocation
TpcbDatabase::accountRow(std::uint64_t account) const
{
    isim_assert(account < params_.totalAccounts());
    return RowLocation{
        accountBase_ + account / rowsPerBlock_,
        static_cast<std::uint32_t>((account % rowsPerBlock_) *
                                   params_.rowBytes)};
}

std::uint64_t
TpcbDatabase::accountIndexLeaf(std::uint64_t account) const
{
    isim_assert(account < params_.totalAccounts());
    return indexLeafBase_ + account / keysPerLeaf;
}

std::uint64_t
TpcbDatabase::historyInsertBlock() const
{
    const std::uint64_t rows_per_block =
        params_.blockBytes / historyRowBytes;
    const std::uint64_t block = historyCount_ / rows_per_block;
    return historyBase_ + block % maxHistoryBlocks_; // recycle if full
}

RowLocation
TpcbDatabase::appendHistory()
{
    const std::uint64_t rows_per_block =
        params_.blockBytes / historyRowBytes;
    RowLocation loc;
    loc.block = historyInsertBlock();
    loc.offset = static_cast<std::uint32_t>(
        (historyCount_ % rows_per_block) * historyRowBytes);
    ++historyCount_;
    return loc;
}

void
TpcbDatabase::applyTransaction(std::uint64_t account, std::uint64_t teller,
                               std::uint64_t branch, std::int64_t delta)
{
    accounts_.add(account, delta);
    tellers_.add(teller, delta);
    branches_.add(branch, delta);
    historyDeltaSum_ += delta;
}

std::int64_t
TpcbDatabase::accountBalance(std::uint64_t account) const
{
    return accounts_.balance(account);
}

std::int64_t
TpcbDatabase::tellerBalance(std::uint64_t teller) const
{
    return tellers_.balance(teller);
}

std::int64_t
TpcbDatabase::branchBalance(std::uint64_t branch) const
{
    return branches_.balance(branch);
}

bool
TpcbDatabase::checkConsistency() const
{
    const std::int64_t acc = accounts_.sum();
    const std::int64_t tel = tellers_.sum();
    const std::int64_t brn = branches_.sum();
    return acc == tel && tel == brn && brn == historyDeltaSum_;
}

void
TpcbDatabase::saveState(ckpt::Serializer &s) const
{
    accounts_.saveState(s);
    tellers_.saveState(s);
    branches_.saveState(s);
    s.u64(historyCount_);
    s.i64(historyDeltaSum_);
}

void
TpcbDatabase::restoreState(ckpt::Deserializer &d)
{
    accounts_.restoreState(d);
    tellers_.restoreState(d);
    branches_.restoreState(d);
    historyCount_ = d.u64();
    historyDeltaSum_ = d.i64();
}

} // namespace isim
