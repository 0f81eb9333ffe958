/**
 * @file
 * Scheduler implementation.
 */

#include "src/os/scheduler.hh"

#include "src/base/logging.hh"
#include "src/ckpt/serializer.hh"

namespace isim {

Scheduler::Scheduler(unsigned num_cpus) : cpus_(num_cpus)
{
    isim_assert(num_cpus >= 1);
}

Process &
Scheduler::add(std::unique_ptr<Process> process)
{
    Process &p = *process;
    isim_assert(p.cpu() < cpus_.size(), "process bound to unknown CPU");
    p.schedState = Process::SchedState::Ready;
    cpus_[p.cpu()].ready.push_back(&p);
    ++cpus_[p.cpu()].live;
    processes_.push_back(std::move(process));
    return p;
}

void
Scheduler::wakeExpired(NodeId cpu, Tick now)
{
    CpuQueues &q = cpus_[cpu];
    while (!q.sleepers.empty() && q.sleepers.top().at <= now) {
        Process *p = q.sleepers.top().process;
        q.sleepers.pop();
        isim_assert(p->schedState == Process::SchedState::Blocked);
        p->schedState = Process::SchedState::Ready;
        q.ready.push_back(p);
    }
}

Process *
Scheduler::pickNext(NodeId cpu, Tick now)
{
    CpuQueues &q = cpus_[cpu];
    isim_assert(q.running == nullptr,
                "pickNext while a process is running");
    wakeExpired(cpu, now);
    if (q.ready.empty())
        return nullptr;
    Process *p = q.ready.front();
    q.ready.pop_front();
    p->schedState = Process::SchedState::Running;
    q.running = p;
    ++switches_;
    return p;
}

Tick
Scheduler::nextWake(NodeId cpu) const
{
    const CpuQueues &q = cpus_[cpu];
    return q.sleepers.empty() ? maxTick : q.sleepers.top().at;
}

bool
Scheduler::hasWork(NodeId cpu) const
{
    return cpus_[cpu].live > 0;
}

void
Scheduler::blockCurrent(NodeId cpu, Tick wake_at)
{
    CpuQueues &q = cpus_[cpu];
    isim_assert(q.running != nullptr);
    Process *p = q.running;
    q.running = nullptr;
    p->schedState = Process::SchedState::Blocked;
    p->wakeTime = wake_at;
    if (wake_at != maxTick)
        q.sleepers.push(TimedWake{wake_at, p, wakeSeq_++});
}

void
Scheduler::yieldCurrent(NodeId cpu)
{
    CpuQueues &q = cpus_[cpu];
    isim_assert(q.running != nullptr);
    Process *p = q.running;
    q.running = nullptr;
    p->schedState = Process::SchedState::Ready;
    q.ready.push_back(p);
}

void
Scheduler::finishCurrent(NodeId cpu)
{
    CpuQueues &q = cpus_[cpu];
    isim_assert(q.running != nullptr);
    Process *p = q.running;
    q.running = nullptr;
    p->schedState = Process::SchedState::Done;
    isim_assert(q.live > 0);
    --q.live;
    ++finished_;
}

void
Scheduler::wake(Process &process, Tick at)
{
    isim_assert(process.schedState == Process::SchedState::Blocked,
                "wake of a process that is not blocked");
    isim_assert(process.wakeTime == maxTick,
                "wake of a timed sleeper (would double-queue)");
    process.wakeTime = at;
    cpus_[process.cpu()].sleepers.push(TimedWake{at, &process, wakeSeq_++});
    ++wakeups_;
}

Process *
Scheduler::processByPid(Pid pid) const
{
    for (const auto &p : processes_)
        if (p->pid() == pid)
            return p.get();
    return nullptr;
}

namespace {

constexpr Pid noPid = ~Pid{0};

Pid
pidOf(const Process *p)
{
    return p == nullptr ? noPid : p->pid();
}

} // namespace

void
Scheduler::saveState(ckpt::Serializer &s) const
{
    s.u64(finished_);
    s.u64(switches_);
    s.u64(processes_.size());
    for (const auto &p : processes_) {
        s.u32(p->pid());
        s.u8(static_cast<std::uint8_t>(p->schedState));
        s.u64(p->wakeTime);
        p->saveState(s);
    }
    s.u64(cpus_.size());
    for (const CpuQueues &q : cpus_) {
        s.u32(pidOf(q.running));
        s.u32(q.live);
        s.u64(q.ready.size());
        for (const Process *p : q.ready)
            s.u32(p->pid());
        // Drain a copy of the heap so sleepers are written in pop
        // order; restore re-pushes them with fresh ascending seqs,
        // which preserves their relative order exactly.
        auto sleepers = q.sleepers;
        s.u64(sleepers.size());
        while (!sleepers.empty()) {
            const TimedWake &w = sleepers.top();
            s.u64(w.at);
            s.u32(w.process->pid());
            sleepers.pop();
        }
    }
}

void
Scheduler::restoreState(ckpt::Deserializer &d)
{
    finished_ = d.u64();
    switches_ = d.u64();
    if (d.u64() != processes_.size())
        isim_fatal("checkpoint process count mismatch");
    for (const auto &p : processes_) {
        const Pid pid = d.u32();
        if (pid != p->pid())
            isim_fatal("checkpoint process order mismatch (pid %u vs "
                       "%u)",
                       pid, p->pid());
        const std::uint8_t state = d.u8();
        if (state > static_cast<std::uint8_t>(
                        Process::SchedState::Done))
            isim_fatal("checkpoint corrupt: sched state %u", state);
        p->schedState = static_cast<Process::SchedState>(state);
        p->wakeTime = d.u64();
        p->restoreState(d);
    }
    if (d.u64() != cpus_.size())
        isim_fatal("checkpoint scheduler CPU count mismatch");
    wakeSeq_ = 0;
    for (CpuQueues &q : cpus_) {
        q.ready.clear();
        q.sleepers = decltype(q.sleepers){};
        const Pid running = d.u32();
        q.running =
            running == noPid ? nullptr : processByPid(running);
        if (running != noPid && q.running == nullptr)
            isim_fatal("checkpoint corrupt: unknown running pid %u",
                       running);
        q.live = d.u32();
        const std::uint64_t nready = d.u64();
        for (std::uint64_t i = 0; i < nready; ++i) {
            const Pid pid = d.u32();
            Process *p = processByPid(pid);
            if (p == nullptr)
                isim_fatal("checkpoint corrupt: unknown ready pid %u",
                           pid);
            q.ready.push_back(p);
        }
        const std::uint64_t nsleep = d.u64();
        for (std::uint64_t i = 0; i < nsleep; ++i) {
            const Tick at = d.u64();
            const Pid pid = d.u32();
            Process *p = processByPid(pid);
            if (p == nullptr)
                isim_fatal("checkpoint corrupt: unknown sleeper pid "
                           "%u",
                           pid);
            q.sleepers.push(TimedWake{at, p, wakeSeq_++});
        }
    }
}

} // namespace isim
