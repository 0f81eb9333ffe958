/**
 * @file
 * Redo log implementation.
 */

#include "src/oltp/log.hh"

#include <algorithm>

#include "src/ckpt/serializer.hh"

namespace isim {

void
RedoLog::emitRedoGeneration(unsigned copy_latch_hint, unsigned slots,
                            LatchTable &latches, VirtualMemory &vm,
                            NodeId node, RefQueue &out)
{
    latches.emitAcquire(sga_.redoCopyLatch(copy_latch_hint), vm, node,
                        out);
    latches.emitAcquire(sga_.redoAllocLatch(), vm, node, out);

    // Advance the shared cursor under the allocation latch.
    const Addr cursor_pa = vm.translate(sga_.logCursorAddr(), node);
    out.push_back(loadRef(cursor_pa));
    out.push_back(storeRef(cursor_pa, /*dep_dist=*/1));

    latches.emitRelease(sga_.redoAllocLatch(), vm, node, out);

    // Copy the redo records into the allocated slots.
    for (unsigned i = 0; i < slots; ++i) {
        const Addr slot_pa =
            vm.translate(sga_.logSlotAddr(cursor_ + i), node);
        out.push_back(storeRef(slot_pa));
    }
    cursor_ += slots;

    latches.emitRelease(sga_.redoCopyLatch(copy_latch_hint), vm, node,
                        out);
}

std::uint64_t
RedoLog::emitFlush(std::uint64_t max_slots, VirtualMemory &vm, NodeId node,
                   RefQueue &out)
{
    const std::uint64_t n = std::min(max_slots, unflushed());
    for (std::uint64_t i = 0; i < n; ++i) {
        const Addr slot_pa =
            vm.translate(sga_.logSlotAddr(flushed_ + i), node);
        out.push_back(loadRef(slot_pa));
    }
    flushed_ += n;
    return n;
}

void
RedoLog::saveState(ckpt::Serializer &s) const
{
    s.u64(cursor_);
    s.u64(flushed_);
}

void
RedoLog::restoreState(ckpt::Deserializer &d)
{
    cursor_ = d.u64();
    flushed_ = d.u64();
}

} // namespace isim
