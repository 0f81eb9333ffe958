/**
 * @file
 * Latch emission.
 */

#include "src/oltp/latch.hh"

#include "src/base/logging.hh"
#include "src/ckpt/serializer.hh"

namespace isim {

void
LatchTable::emitAcquire(unsigned latch, VirtualMemory &vm, NodeId node,
                        RefQueue &out)
{
    const Addr paddr = vm.translate(sga_.latchAddr(latch), node);
    out.push_back(loadRef(paddr));
    out.push_back(storeRef(paddr, /*dep_dist=*/1));
    ++acquires_;
    const NodeId prev = lastHolder_[latch];
    const bool contended = prev != invalidNode && prev != node;
    if (contended)
        ++contended_;
    lastHolder_[latch] = node;
    if (ISIM_OBS_ACTIVE(tracer_)) {
        tracer_->instant(contended ? obs::EventKind::LatchContend
                                   : obs::EventKind::LatchAcquire,
                         tracer_->now(),
                         static_cast<std::uint16_t>(node), 0, latch,
                         paddr);
    }
}

void
LatchTable::emitRelease(unsigned latch, VirtualMemory &vm, NodeId node,
                        RefQueue &out)
{
    const Addr paddr = vm.translate(sga_.latchAddr(latch), node);
    out.push_back(storeRef(paddr));
    if (ISIM_OBS_ACTIVE(tracer_)) {
        tracer_->instant(obs::EventKind::LatchRelease, tracer_->now(),
                         static_cast<std::uint16_t>(node), 0, latch,
                         paddr);
    }
}

void
LatchTable::saveState(ckpt::Serializer &s) const
{
    s.u64(acquires_);
    s.u64(contended_);
    s.u64(lastHolder_.size());
    for (NodeId holder : lastHolder_)
        s.u32(holder);
}

void
LatchTable::restoreState(ckpt::Deserializer &d)
{
    acquires_ = d.u64();
    contended_ = d.u64();
    if (d.u64() != lastHolder_.size())
        isim_fatal("checkpoint latch count mismatch");
    for (NodeId &holder : lastHolder_)
        holder = d.u32();
}

} // namespace isim
