/**
 * @file
 * Simulation loop implementation.
 */

#include "src/core/simulation.hh"

#include "src/base/logging.hh"
#include "src/ckpt/serializer.hh"
#include "src/coherence/protocol.hh"
#include "src/cpu/inorder.hh"
#include "src/cpu/ooo.hh"
#include "src/obs/tracer.hh"
#include "src/stats/epoch.hh"

namespace isim {

Simulation::Simulation(Scheduler &sched, KernelModel &kernel,
                       OltpEngine &engine,
                       std::vector<std::unique_ptr<CpuCore>> &cpus,
                       const SimOptions &options)
    : sched_(sched), kernel_(kernel), engine_(engine), cpus_(cpus),
      options_(options), tracer_(options.tracer), state_(cpus.size())
{
}

Tick
Simulation::wallTime() const
{
    Tick t = 0;
    for (const auto &cs : state_)
        t = std::max(t, cs.now);
    return t;
}

Tick
Simulation::consumeOn(CpuCore &core, const MemRef &ref, Tick now)
{
    // Both models are `final`: the casts turn the hottest call in the
    // simulator into a direct, inlinable one.
    if (options_.model == CpuModel::InOrder)
        return static_cast<InOrderCpu &>(core).consume(ref, now);
    return static_cast<OooCpu &>(core).consume(ref, now);
}

Tick
Simulation::drainOn(CpuCore &core, Tick now)
{
    if (options_.model == CpuModel::InOrder)
        return static_cast<InOrderCpu &>(core).drain(now);
    return static_cast<OooCpu &>(core).drain(now);
}

Tick
Simulation::nextEventTime(NodeId cpu) const
{
    const CpuState &cs = state_[cpu];
    if (!cs.injected.empty() || sched_.running(cpu) != nullptr ||
        sched_.hasReady(cpu)) {
        return cs.now;
    }
    const Tick wake = sched_.nextWake(cpu);
    return wake == maxTick ? maxTick : std::max(cs.now, wake);
}

void
Simulation::stepCpu(NodeId cpu)
{
    CpuState &cs = state_[cpu];
    CpuCore &core = *cpus_[cpu];

    // Keep the tracer's clock current so emitters without their own
    // timestamps (latches, transaction phases) stamp events correctly.
    if (ISIM_OBS_ACTIVE(tracer_))
        tracer_->setClock(cs.now);

    // Pending kernel path (context switch) runs before anything else.
    if (!cs.injected.empty()) {
        const MemRef ref = cs.injected.front();
        cs.injected.pop_front();
        cs.now = consumeOn(core, ref, cs.now);
        return;
    }

    Process *running = sched_.running(cpu);
    if (running == nullptr) {
        Process *next = sched_.pickNext(cpu, cs.now);
        if (next != nullptr) {
            kernel_.contextSwitch(cpu, cs.injected);
            cs.quantumStart = cs.now;
            if (ISIM_OBS_ACTIVE(tracer_)) {
                tracer_->instant(obs::EventKind::CtxSwitch, cs.now,
                                 static_cast<std::uint16_t>(cpu), 0,
                                 static_cast<std::uint32_t>(next->pid()));
            }
            return;
        }
        // Idle until the next timed wake.
        const Tick wake = sched_.nextWake(cpu);
        isim_assert(wake != maxTick, "stepCpu on a stalled CPU");
        if (wake > cs.now) {
            core.stats().idle += wake - cs.now;
            cs.now = wake;
        }
        return;
    }

    // Quantum preemption.
    if (options_.quantum > 0 &&
        cs.now - cs.quantumStart >= options_.quantum &&
        sched_.hasReady(cpu)) {
        cs.now = drainOn(core, cs.now);
        sched_.yieldCurrent(cpu);
        return;
    }

    const ProcessStep s = running->step(cs.now);
    switch (s.kind) {
      case StepKind::Ref:
        cs.now = consumeOn(core, s.ref, cs.now);
        return;
      case StepKind::BlockTimed:
        cs.now = drainOn(core, cs.now);
        sched_.blockCurrent(cpu, cs.now + s.delay);
        return;
      case StepKind::BlockEvent:
        cs.now = drainOn(core, cs.now);
        sched_.blockCurrent(cpu, maxTick);
        return;
      case StepKind::Yield:
        cs.now = drainOn(core, cs.now);
        sched_.yieldCurrent(cpu);
        return;
      case StepKind::Done:
        cs.now = drainOn(core, cs.now);
        sched_.finishCurrent(cpu);
        return;
    }
    isim_panic("unknown step kind");
}

void
Simulation::runUntilCommitted(std::uint64_t target)
{
    // Next-event cache: a step changes only the stepped CPU's clock and
    // queues, except through Scheduler::wake, which can queue a wake on
    // any CPU. So after a step only the stepped CPU's entry is stale,
    // unless the wake count moved, and then every entry is.
    const NodeId ncpus = static_cast<NodeId>(state_.size());
    std::vector<Tick> next(ncpus);
    for (NodeId cpu = 0; cpu < ncpus; ++cpu)
        next[cpu] = nextEventTime(cpu);
    std::uint64_t wakeups = sched_.wakeups();

    while (engine_.committedTransactions() < target) {
        NodeId best = invalidNode;
        Tick best_time = maxTick;
        for (NodeId cpu = 0; cpu < ncpus; ++cpu) {
            if (next[cpu] < best_time) {
                best_time = next[cpu];
                best = cpu;
            }
        }
        if (best == invalidNode) {
            // Nothing can run anywhere: either all processes exited or
            // every CPU is event-stalled (a workload deadlock).
            bool any_live = false;
            for (NodeId cpu = 0; cpu < state_.size(); ++cpu)
                any_live = any_live || sched_.hasWork(cpu);
            if (any_live)
                isim_panic("simulation deadlock: all CPUs event-stalled");
            break;
        }
        if (options_.epochs != nullptr && options_.epochs->due(best_time))
            options_.epochs->advance(best_time);
        stepCpu(best);
        ++steps_;
        if (sched_.wakeups() != wakeups) {
            wakeups = sched_.wakeups();
            for (NodeId cpu = 0; cpu < ncpus; ++cpu)
                next[cpu] = nextEventTime(cpu);
        } else {
            next[best] = nextEventTime(best);
        }
#ifdef ISIM_CHECK_INVARIANTS
        for (NodeId cpu = 0; cpu < ncpus; ++cpu) {
            isim_assert(next[cpu] == nextEventTime(cpu),
                        "stale next-event time for cpu %u", cpu);
        }
#endif
        if (options_.maxSteps != 0 && steps_ > options_.maxSteps)
            isim_fatal("step limit exceeded (runaway simulation?)");
    }
}

void
Simulation::runUntilWarmupDone()
{
    runUntilCommitted(engine_.params().warmupTransactions);
}

void
Simulation::runUntilMeasurementDone()
{
    runUntilCommitted(engine_.params().warmupTransactions +
                      engine_.params().transactions);
}

void
SimState::saveState(ckpt::Serializer &s) const
{
    s.u64(steps);
    s.u64(cpus.size());
    for (const Cpu &c : cpus) {
        s.u64(c.now);
        s.u64(c.quantumStart);
        s.u64(c.injected.size());
        for (const MemRef &ref : c.injected)
            s.memRef(ref);
    }
}

void
SimState::restoreState(ckpt::Deserializer &d, std::size_t machine_cpus)
{
    steps = d.u64();
    const std::uint64_t ncpus = d.u64();
    if (ncpus != machine_cpus)
        isim_fatal("checkpoint corrupt: SIMU section has %llu CPUs, "
                   "machine has %zu",
                   static_cast<unsigned long long>(ncpus), machine_cpus);
    cpus.assign(ncpus, Cpu{});
    for (Cpu &c : cpus) {
        c.now = d.u64();
        c.quantumStart = d.u64();
        const std::uint64_t ninjected = d.u64();
        for (std::uint64_t i = 0; i < ninjected; ++i)
            c.injected.push_back(d.memRef());
    }
}

SimState
Simulation::captureState() const
{
    SimState st;
    st.cpus = state_;
    st.steps = steps_;
    return st;
}

void
Simulation::restoreState(const SimState &state)
{
    if (state.cpus.size() != state_.size()) {
        isim_fatal("checkpoint CPU count mismatch: image has %zu, "
                   "machine has %zu",
                   state.cpus.size(), state_.size());
    }
    state_ = state.cpus;
    steps_ = state.steps;
}

} // namespace isim
