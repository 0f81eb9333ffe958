/**
 * @file
 * The functional TPC-B database: account / teller / branch / history
 * tables with real balances, plus the mapping of every row onto
 * buffer-cache blocks. Transactions actually execute (balances move,
 * history grows), so the engine's correctness is testable through the
 * TPC-B consistency conditions: the sums of account, teller and branch
 * balances and the history deltas must all stay equal.
 */

#ifndef ISIM_OLTP_TABLES_HH
#define ISIM_OLTP_TABLES_HH

#include <cstdint>
#include <map>

#include "src/ckpt/fwd.hh"
#include "src/oltp/sga.hh"
#include "src/oltp/workload_params.hh"

namespace isim {

/** Where a row lives inside the block buffer. */
struct RowLocation
{
    std::uint64_t block = 0;
    std::uint32_t offset = 0; //!< byte offset within the block
};

/**
 * One balance column of a fixed row count, every row starting at zero.
 * Only rows with a nonzero balance are stored: a warm-up touches a
 * few hundred of the account table's millions of rows, so building,
 * summing, saving and restoring a table cost what its touched rows
 * cost, not what its capacity costs.
 */
class BalanceTable
{
  public:
    BalanceTable(const char *name, std::uint64_t rows)
        : name_(name), rows_(rows)
    {
    }

    std::int64_t balance(std::uint64_t row) const;
    void add(std::uint64_t row, std::int64_t delta);
    /** Sum of every row's balance. */
    std::int64_t sum() const;

    /**
     * The row count, the nonzero-row count, then each nonzero row as
     * (u64 row, i64 balance) in ascending row order. Restore rejects
     * anything save never writes: a count the section cannot hold,
     * rows out of range or out of order, and zero balances.
     */
    void saveState(ckpt::Serializer &s) const;
    void restoreState(ckpt::Deserializer &d);

  private:
    // ckpt: transient(name_): the table's label, for restore messages
    const char *name_;
    std::uint64_t rows_;
    /** Row -> balance, for exactly the rows whose balance is nonzero. */
    std::map<std::uint64_t, std::int64_t> nonzero_;
};

/** The functional database. */
class TpcbDatabase
{
  public:
    TpcbDatabase(const WorkloadParams &params, const Sga &sga);

    // ---- Row placement ----
    RowLocation branchRow(std::uint64_t branch) const;
    RowLocation tellerRow(std::uint64_t teller) const;
    RowLocation accountRow(std::uint64_t account) const;

    /** Root block of the account B-tree index. */
    std::uint64_t accountIndexRoot() const { return indexRootBlock_; }
    /** Leaf block covering the given account. */
    std::uint64_t accountIndexLeaf(std::uint64_t account) const;

    /** Append a history row; returns its location. */
    RowLocation appendHistory();
    /** Block currently receiving history inserts (hot, shared). */
    std::uint64_t historyInsertBlock() const;

    // ---- Functional execution ----
    /**
     * Execute the TPC-B profile: add `delta` to the account, its
     * teller, and its branch, and record a history row.
     */
    void applyTransaction(std::uint64_t account, std::uint64_t teller,
                          std::uint64_t branch, std::int64_t delta);

    std::int64_t accountBalance(std::uint64_t account) const;
    std::int64_t tellerBalance(std::uint64_t teller) const;
    std::int64_t branchBalance(std::uint64_t branch) const;
    std::uint64_t historyCount() const { return historyCount_; }

    /**
     * TPC-B consistency conditions: recomputes all table sums from the
     * rows and checks them against each other and the history deltas.
     */
    bool checkConsistency() const;

    /** Number of blocks occupied by the static tables + index. */
    std::uint64_t staticBlocks() const { return historyBase_; }

    /**
     * Checkpoint the balances and history accumulators. Balances are
     * written sparsely (BalanceTable::saveState) — a warmed TPC-B run
     * touches a small fraction of the account table.
     */
    void saveState(ckpt::Serializer &s) const;
    void restoreState(ckpt::Deserializer &d);

  private:
    // The table layout below is a pure function of the workload
    // parameters; the checkpoint serializes balances and the history
    // cursor only.
    // ckpt: transient(params_): construction parameter, identical by contract
    WorkloadParams params_;
    // ckpt: transient(rowsPerBlock_): derived from params_ at construction
    unsigned rowsPerBlock_;
    // ckpt: transient(branchBase_): layout derived from params_
    std::uint64_t branchBase_ = 0; //!< block index of first branch block
    // ckpt: transient(tellerBase_): layout derived from params_
    std::uint64_t tellerBase_;
    // ckpt: transient(accountBase_): layout derived from params_
    std::uint64_t accountBase_;
    // ckpt: transient(indexRootBlock_): layout derived from params_
    std::uint64_t indexRootBlock_;
    // ckpt: transient(indexLeafBase_): layout derived from params_
    std::uint64_t indexLeafBase_;
    // ckpt: transient(indexLeaves_): layout derived from params_
    std::uint64_t indexLeaves_;
    // ckpt: transient(historyBase_): layout derived from params_
    std::uint64_t historyBase_;
    // ckpt: transient(maxHistoryBlocks_): layout derived from params_
    std::uint64_t maxHistoryBlocks_;

    BalanceTable accounts_;
    BalanceTable tellers_;
    BalanceTable branches_;
    std::uint64_t historyCount_ = 0;
    std::int64_t historyDeltaSum_ = 0;

    static constexpr unsigned keysPerLeaf = 200;
    static constexpr unsigned historyRowBytes = 50;
};

} // namespace isim

#endif // ISIM_OLTP_TABLES_HH
