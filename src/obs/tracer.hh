/**
 * @file
 * The event tracer: a ring of TraceEvents plus a runtime enable flag
 * and a "current simulated time" clock maintained by the simulation
 * loop, so emitters that do not carry a timestamp (latch emission,
 * process-level events) can still stamp events correctly.
 *
 * Cost discipline: every emission site in simulator code is guarded
 * by ISIM_OBS_ACTIVE(tracer), which compiles to `false` when the tree
 * is built with -DISIM_OBS=OFF and to a single `ptr != nullptr &&
 * enabled` check otherwise — the tracing-off hot path is one
 * predictable branch and no argument evaluation.
 */

#ifndef ISIM_OBS_TRACER_HH
#define ISIM_OBS_TRACER_HH

#include <array>

#include "src/obs/ring.hh"

namespace isim::obs {

/**
 * Emission guard. Use as `if (ISIM_OBS_ACTIVE(tracer_)) { ... }` so
 * the event-construction code inside the block is never executed (and
 * under ISIM_OBS=OFF builds, constant-folded away) when tracing is
 * off.
 */
#ifdef ISIM_OBS
#define ISIM_OBS_ACTIVE(tracer) \
    ((tracer) != nullptr && (tracer)->enabled())
#else
#define ISIM_OBS_ACTIVE(tracer) ((void)(tracer), false)
#endif

/** Records typed events into a bounded ring. */
class Tracer
{
  public:
    explicit Tracer(std::size_t ring_capacity) : ring_(ring_capacity)
    {
        counts_.fill(0);
    }

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    // ---- Clock (maintained by the simulation loop) ----
    void setClock(Tick now) { clockNow_ = now; }
    Tick now() const { return clockNow_; }

    // ---- Emission ----
    void record(EventKind kind, Tick tick, Tick dur, std::uint16_t cpu,
                std::uint8_t cls, std::uint32_t arg, Addr addr)
    {
        TraceEvent e;
        e.tick = tick;
        e.dur = dur;
        e.addr = addr;
        e.arg = arg;
        e.cpu = cpu;
        e.kind = kind;
        e.cls = cls;
        ring_.push(e);
        ++counts_[static_cast<std::size_t>(kind)];
    }

    /** Instant event at an explicit time. */
    void instant(EventKind kind, Tick tick, std::uint16_t cpu,
                 std::uint8_t cls = 0, std::uint32_t arg = 0,
                 Addr addr = 0)
    {
        record(kind, tick, 0, cpu, cls, arg, addr);
    }

    /** Span event [tick, tick + dur). */
    void span(EventKind kind, Tick tick, Tick dur, std::uint16_t cpu,
              std::uint8_t cls = 0, std::uint32_t arg = 0, Addr addr = 0)
    {
        record(kind, tick, dur, cpu, cls, arg, addr);
    }

    /** NoC message hop. */
    void nocHop(EventKind kind, Tick tick, NodeId src, NodeId dst,
                unsigned bytes, Addr addr)
    {
        record(kind, tick, 0, static_cast<std::uint16_t>(src),
               static_cast<std::uint8_t>(bytes), dst, addr);
    }

    // ---- Accounting ----
    const EventRing &ring() const { return ring_; }
    std::uint64_t count(EventKind kind) const
    {
        return counts_[static_cast<std::size_t>(kind)];
    }

    void clear()
    {
        ring_.clear();
        counts_.fill(0);
    }

  private:
    EventRing ring_;
    std::array<std::uint64_t, numEventKinds> counts_;
    Tick clockNow_ = 0;
    bool enabled_ = false;
};

} // namespace isim::obs

#endif // ISIM_OBS_TRACER_HH
