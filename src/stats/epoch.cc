/**
 * @file
 * Epoch recorder implementation.
 */

#include "src/stats/epoch.hh"

#include "src/base/logging.hh"

namespace isim::stats {

EpochRecorder::EpochRecorder(Tick epoch_ticks, const Registry &registry,
                             Registry::CounterFn ctx_switches)
    : epochTicks_(epoch_ticks)
{
    isim_assert(epochTicks_ > 0, "epoch length must be positive");
    isim_assert(ctx_switches != nullptr);
    for (std::size_t i = 0; i < numEpochColumns; ++i) {
        const char *stat = epochColumns[i].stat;
        sources_[i] = stat != nullptr ? registry.counterSource(stat)
                                      : ctx_switches;
    }
}

EpochRecorder::Reading
EpochRecorder::read() const
{
    Reading r;
    for (std::size_t i = 0; i < numEpochColumns; ++i)
        r[i] = sources_[i]();
    return r;
}

void
EpochRecorder::start(Tick now)
{
    isim_assert(!started_, "epoch recorder started twice");
    started_ = true;
    cur_ = now;
    // First boundary: the next grid line strictly after `now`, so a
    // start mid-grid yields a partial first epoch.
    next_ = (now / epochTicks_ + 1) * epochTicks_;
    prev_ = read();
}

void
EpochRecorder::emitRow(Tick end)
{
    const Reading cur = read();
    EpochRow row;
    row.epoch = cur_ / epochTicks_;
    row.start = cur_;
    row.end = end;
    for (std::size_t i = 0; i < numEpochColumns; ++i) {
        // Counters only move backwards through a registry reset, and
        // every reset rebases the recorder.
        isim_assert(cur[i] >= prev_[i],
                    "epoch column '%s' went backwards without a rebase",
                    epochColumns[i].manifest);
        row.delta[i] = cur[i] - prev_[i];
    }
    rows_.push_back(row);
    prev_ = cur;
    cur_ = end;
}

void
EpochRecorder::advance(Tick now)
{
    if (!started_ || finished_)
        return;
    while (now >= next_) {
        emitRow(next_);
        next_ += epochTicks_;
    }
}

void
EpochRecorder::finish(Tick now)
{
    if (!started_ || finished_)
        return;
    advance(now);
    if (now > cur_)
        emitRow(now); // trailing partial epoch
    finished_ = true;
}

void
EpochRecorder::rebase()
{
    if (started_ && !finished_)
        prev_ = read();
}

} // namespace isim::stats
