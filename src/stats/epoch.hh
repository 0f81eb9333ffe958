/**
 * @file
 * Epoch recorder: the simulated machine over time. Every N simulated
 * ticks it reads a fixed set of machine-wide counters and stores
 * their deltas as one row, turning the end-of-run breakdowns (miss
 * mix, TPS, latch traffic, kernel share) into a plottable series. The
 * timeline CSV and the stats manifest's "epochs" rows are two
 * renderings of the same rows, and both iterate epochColumns.
 *
 * Every column but one is a registry counter, resolved by name once
 * when the recorder is built; the context-switch count comes from the
 * scheduler, which keeps it whether or not events are traced.
 *
 * Epoch boundaries are anchored to the absolute tick grid (multiples
 * of the epoch length), so the first epoch of a run that starts
 * mid-grid and the last epoch at run end are *partial*: their rows
 * carry their true [start, end) extent, which is what a plotter needs
 * to normalize rates. A registry reset (the warm-up boundary, each
 * sampling window) rebases the recorder, so the epoch open at the
 * reset reports only what happened after it.
 */

#ifndef ISIM_STATS_EPOCH_HH
#define ISIM_STATS_EPOCH_HH

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/base/types.hh"
#include "src/stats/registry.hh"

namespace isim::stats {

/** One epoch-row column, named once for every rendering. */
struct EpochColumn
{
    const char *csv;      //!< timeline CSV header
    const char *manifest; //!< key in a manifest "epochs" row
    const char *stat;     //!< registry counter; nullptr = ctx switches
};

inline constexpr std::array<EpochColumn, 15> epochColumns{{
    {"commits", "committed_txns", "oltp.txn.committed"},
    {"instructions", "instructions", "cpu.instructions"},
    {"busy_ns", "busy", "cpu.busy"},
    {"idle_ns", "idle", "cpu.idle"},
    {"kernel_ns", "kernel_time", "cpu.kernel_time"},
    {"miss_instr_local", "miss_instr_local", "l2.miss.instr_local"},
    {"miss_instr_remote", "miss_instr_remote", "l2.miss.instr_remote"},
    {"miss_data_local", "miss_data_local", "l2.miss.local"},
    {"miss_data_2hop", "miss_data_remote_clean", "l2.miss.remote_clean"},
    {"miss_data_3hop", "miss_data_remote_dirty", "l2.miss.remote_dirty"},
    {"latch_acquires", "latch_acquires", "oltp.latch.acquires"},
    {"latch_contended", "latch_contended", "oltp.latch.contended"},
    {"ctx_switches", "ctx_switches", nullptr},
    {"noc_msgs", "noc_msgs", "noc.messages"},
    {"noc_bytes", "noc_bytes", "noc.bytes"},
}};

inline constexpr std::size_t numEpochColumns = epochColumns.size();

/** Index of the column fed by registry counter `stat`. */
constexpr std::size_t
epochColumnOf(std::string_view stat)
{
    for (std::size_t i = 0; i < numEpochColumns; ++i) {
        if (epochColumns[i].stat != nullptr && stat == epochColumns[i].stat)
            return i;
    }
    return numEpochColumns;
}

/** The columns the derived rates (tps, NoC bandwidth) divide. */
inline constexpr std::size_t commitsColumn =
    epochColumnOf("oltp.txn.committed");
inline constexpr std::size_t nocBytesColumn = epochColumnOf("noc.bytes");
static_assert(commitsColumn < numEpochColumns &&
              nocBytesColumn < numEpochColumns);

/** One row: the columns' deltas over [start, end). */
struct EpochRow
{
    std::uint64_t epoch = 0; //!< index on the absolute epoch grid
    Tick start = 0;
    Tick end = 0;
    std::array<std::uint64_t, numEpochColumns> delta{};

    /** Commits per simulated second over the row's extent. */
    double tps() const { return rate(commitsColumn, 1e9); }
    /** delta[column] * scale per simulated tick (0 if the row is empty). */
    double rate(std::size_t column, double scale = 1.0) const
    {
        return end > start ? static_cast<double>(delta[column]) * scale /
                                 static_cast<double>(end - start)
                           : 0.0;
    }
};

/** The recorder proper. */
class EpochRecorder
{
  public:
    /**
     * Resolve every registry column in `registry` (fatal when one is
     * missing); `ctx_switches` feeds the ctx_switches column.
     */
    EpochRecorder(Tick epoch_ticks, const Registry &registry,
                  Registry::CounterFn ctx_switches);

    /** Begin recording at `now` (takes the base reading). */
    void start(Tick now);

    /** Cheap boundary test for the simulation loop's hot path. */
    bool due(Tick now) const { return started_ && now >= next_; }

    /**
     * Advance to `now`, emitting one row per completed epoch (idle
     * gaps produce zero-delta rows, the honest shape of an idle
     * period).
     */
    void advance(Tick now);

    /** Close the final (partial) epoch at `now`. */
    void finish(Tick now);

    /** Re-take the base reading right after a registry reset. */
    void rebase();

    const std::vector<EpochRow> &rows() const { return rows_; }

  private:
    using Reading = std::array<std::uint64_t, numEpochColumns>;

    Reading read() const;
    void emitRow(Tick end);

    Tick epochTicks_;
    std::array<Registry::CounterFn, numEpochColumns> sources_;
    std::vector<EpochRow> rows_;
    Reading prev_{};
    Tick cur_ = 0;  //!< start of the open epoch
    Tick next_ = 0; //!< next boundary on the absolute grid
    bool started_ = false;
    bool finished_ = false;
};

} // namespace isim::stats

#endif // ISIM_STATS_EPOCH_HH
