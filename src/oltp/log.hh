/**
 * @file
 * Redo log model: the shared log buffer ring, the single redo
 * allocation latch guarding its cursor (a famous Oracle hot spot), and
 * the flush bookkeeping the log-writer daemon drives. The paper's
 * transaction path ends with a commit that waits for the log writer —
 * the I/O latency that motivates running 8 servers per processor.
 */

#ifndef ISIM_OLTP_LOG_HH
#define ISIM_OLTP_LOG_HH

#include <cstdint>

#include "src/ckpt/fwd.hh"
#include "src/oltp/latch.hh"
#include "src/oltp/sga.hh"
#include "src/os/vm.hh"
#include "src/trace/record.hh"

namespace isim {

/** The redo log buffer. */
class RedoLog
{
  public:
    explicit RedoLog(const Sga &sga) : sga_(sga) {}

    /**
     * Server side: allocate `slots` log slots and copy redo into them.
     * Emits the copy latch, the allocation latch + shared cursor
     * update, and the slot stores.
     */
    void emitRedoGeneration(unsigned copy_latch_hint, unsigned slots,
                            LatchTable &latches, VirtualMemory &vm,
                            NodeId node, RefQueue &out);

    /**
     * Log-writer side: read up to `max_slots` unflushed slots (the
     * device write itself is a timed block, not references). Returns
     * the number of slots flushed.
     */
    std::uint64_t emitFlush(std::uint64_t max_slots, VirtualMemory &vm,
                            NodeId node, RefQueue &out);

    std::uint64_t cursor() const { return cursor_; }
    std::uint64_t flushed() const { return flushed_; }
    std::uint64_t unflushed() const { return cursor_ - flushed_; }

    /** Checkpoint the cursor and flush horizon. */
    void saveState(ckpt::Serializer &s) const;
    void restoreState(ckpt::Deserializer &d);

  private:
    const Sga &sga_;
    std::uint64_t cursor_ = 0;
    std::uint64_t flushed_ = 0;
};

} // namespace isim

#endif // ISIM_OLTP_LOG_HH
