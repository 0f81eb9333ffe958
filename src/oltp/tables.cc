/**
 * @file
 * Functional TPC-B tables implementation.
 */

#include "src/oltp/tables.hh"

#include <algorithm>
#include <numeric>

#include "src/base/intmath.hh"
#include "src/base/logging.hh"
#include "src/ckpt/serializer.hh"

namespace isim {

TpcbDatabase::TpcbDatabase(const WorkloadParams &params, const Sga &sga)
    : params_(params), rowsPerBlock_(params.rowsPerBlock())
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

    accounts_.assign(params_.totalAccounts(), 0);
    tellers_.assign(params_.totalTellers(), 0);
    branches_.assign(params_.branches, 0);
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
    isim_assert(account < accounts_.size());
    isim_assert(teller < tellers_.size());
    isim_assert(branch < branches_.size());
    accounts_[account] += delta;
    tellers_[teller] += delta;
    branches_[branch] += delta;
    historyDeltaSum_ += delta;
}

std::int64_t
TpcbDatabase::accountBalance(std::uint64_t account) const
{
    return accounts_[account];
}

std::int64_t
TpcbDatabase::tellerBalance(std::uint64_t teller) const
{
    return tellers_[teller];
}

std::int64_t
TpcbDatabase::branchBalance(std::uint64_t branch) const
{
    return branches_[branch];
}

bool
TpcbDatabase::checkConsistency() const
{
    const std::int64_t acc =
        std::accumulate(accounts_.begin(), accounts_.end(),
                        std::int64_t{0});
    const std::int64_t tel =
        std::accumulate(tellers_.begin(), tellers_.end(),
                        std::int64_t{0});
    const std::int64_t brn =
        std::accumulate(branches_.begin(), branches_.end(),
                        std::int64_t{0});
    return acc == tel && tel == brn && brn == historyDeltaSum_;
}

namespace {

void
saveBalances(ckpt::Serializer &s,
             const std::vector<std::int64_t> &balances)
{
    s.u64(balances.size());
    std::uint64_t nonzero = 0;
    for (std::int64_t v : balances)
        if (v != 0)
            ++nonzero;
    s.u64(nonzero);
    for (std::size_t i = 0; i < balances.size(); ++i) {
        if (balances[i] != 0) {
            s.u64(i);
            s.i64(balances[i]);
        }
    }
}

void
restoreBalances(ckpt::Deserializer &d,
                std::vector<std::int64_t> &balances, const char *table)
{
    if (d.u64() != balances.size())
        isim_fatal("checkpoint %s table size mismatch", table);
    std::fill(balances.begin(), balances.end(), std::int64_t{0});
    const std::uint64_t nonzero = d.u64();
    for (std::uint64_t n = 0; n < nonzero; ++n) {
        const std::uint64_t i = d.u64();
        if (i >= balances.size())
            isim_fatal("checkpoint corrupt: %s row %llu out of range",
                       table, static_cast<unsigned long long>(i));
        balances[i] = d.i64();
    }
}

} // namespace

void
TpcbDatabase::saveState(ckpt::Serializer &s) const
{
    saveBalances(s, accounts_);
    saveBalances(s, tellers_);
    saveBalances(s, branches_);
    s.u64(historyCount_);
    s.i64(historyDeltaSum_);
}

void
TpcbDatabase::restoreState(ckpt::Deserializer &d)
{
    restoreBalances(d, accounts_, "account");
    restoreBalances(d, tellers_, "teller");
    restoreBalances(d, branches_, "branch");
    historyCount_ = d.u64();
    historyDeltaSum_ = d.i64();
}

} // namespace isim
