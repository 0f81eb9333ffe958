/**
 * @file
 * CpuStats registration with the metrics registry.
 */

#include "src/cpu/cpu_stats.hh"

#include "src/ckpt/serializer.hh"
#include "src/cpu/core.hh"
#include "src/stats/registry.hh"

namespace isim {

void
CpuStats::registerStats(stats::Registry &r, const std::string &prefix) const
{
    const CpuStats *s = this;
    r.counter(prefix + ".busy", "instruction issue time", "ticks",
              [s] { return s->busy; });
    r.counter(prefix + ".l2hit_stall",
              "stall on L1 misses that hit in the L2", "ticks",
              [s] { return s->l2HitStall; });
    r.counter(prefix + ".local_stall",
              "stall on local-memory misses (incl. RAC hits)", "ticks",
              [s] { return s->localStall; });
    r.counter(prefix + ".remote_stall", "stall on 2-hop remote misses",
              "ticks", [s] { return s->remoteStall; });
    r.counter(prefix + ".remote_dirty_stall",
              "stall on 3-hop remote-dirty misses", "ticks",
              [s] { return s->remoteDirtyStall; });
    r.counter(prefix + ".idle", "time with no runnable process", "ticks",
              [s] { return s->idle; });
    r.counter(prefix + ".kernel_time",
              "portion of non-idle time in kernel mode", "ticks",
              [s] { return s->kernelTime; });
    r.counter(prefix + ".instructions", "instructions executed", "insts",
              [s] { return s->instructions; });
    r.counter(prefix + ".loads", "load references", "refs",
              [s] { return s->loads; });
    r.counter(prefix + ".stores", "store references", "refs",
              [s] { return s->stores; });
    r.formula(prefix + ".exec_time",
              "non-idle execution time (the figures' y-axis)", "ticks",
              [s] { return static_cast<double>(s->nonIdle()); },
              /*extensive=*/true);
}

void
CpuCore::saveState(ckpt::Serializer &s) const
{
    s.u64(stats_.busy);
    s.u64(stats_.l2HitStall);
    s.u64(stats_.localStall);
    s.u64(stats_.remoteStall);
    s.u64(stats_.remoteDirtyStall);
    s.u64(stats_.idle);
    s.u64(stats_.kernelTime);
    s.u64(stats_.instructions);
    s.u64(stats_.loads);
    s.u64(stats_.stores);
}

void
CpuCore::restoreState(ckpt::Deserializer &d)
{
    stats_.busy = d.u64();
    stats_.l2HitStall = d.u64();
    stats_.localStall = d.u64();
    stats_.remoteStall = d.u64();
    stats_.remoteDirtyStall = d.u64();
    stats_.idle = d.u64();
    stats_.kernelTime = d.u64();
    stats_.instructions = d.u64();
    stats_.loads = d.u64();
    stats_.stores = d.u64();
}

} // namespace isim
