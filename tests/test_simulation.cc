/**
 * @file
 * Tests of the simulation loop: idle accounting, context switching,
 * wall-time bookkeeping, and the deadlock / exit / step-limit
 * backstops.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/base/logging.hh"
#include "src/core/machine.hh"
#include "src/core/simulation.hh"
#include "src/cpu/inorder.hh"

namespace isim {
namespace {

WorkloadParams
testWorkload(std::uint64_t txns)
{
    WorkloadParams p;
    p.branches = 8;
    p.accountsPerBranch = 10000;
    p.blockBufferBytes = 64 * mib;
    p.transactions = txns;
    p.warmupTransactions = txns / 3;
    return p;
}

MachineConfig
config(unsigned cpus, std::uint64_t txns = 60)
{
    MachineConfig cfg;
    cfg.name = "sim-test";
    cfg.numCpus = cpus;
    cfg.l2 = CacheGeometry{512 * kib, 2, 64};
    cfg.l2Impl = L2Impl::OffchipAssoc;
    cfg.workload = testWorkload(txns);
    return cfg;
}

TEST(Simulation, IdleAccountedWhenCpuStarves)
{
    setQuiet(true);
    // One server per CPU: during its commit wait (250us) and think
    // time nothing else can run, so the CPU must log idle time.
    MachineConfig cfg = config(1);
    cfg.workload.serversPerCpu = 1;
    Machine m(cfg);
    const RunResult r = m.run();
    EXPECT_GT(r.stat("cpu.idle"), 0u);
    // With 8 servers the same CPU should be busier (less idle per txn).
    MachineConfig cfg8 = config(1);
    Machine m8(cfg8);
    const RunResult r8 = m8.run();
    const double idle1 =
        r.stat("cpu.idle") / static_cast<double>(r.transactions);
    const double idle8 =
        r8.stat("cpu.idle") / static_cast<double>(r8.transactions);
    EXPECT_LT(idle8, idle1);
}

TEST(Simulation, ContextSwitchesHappen)
{
    setQuiet(true);
    Machine m(config(2));
    m.run();
    // At least one dispatch per committed transaction (commit blocks).
    EXPECT_GT(m.sched().contextSwitches(),
              m.engine().committedTransactions());
}

TEST(Simulation, MoreServersGiveMoreThroughput)
{
    setQuiet(true);
    MachineConfig one = config(1, 80);
    one.workload.serversPerCpu = 1;
    MachineConfig eight = config(1, 80);
    const RunResult r1 = Machine(one).run();
    const RunResult r8 = Machine(eight).run();
    // The paper runs 8 servers per CPU to hide I/O latency.
    EXPECT_GT(r8.tps(), r1.tps() * 2);
}

TEST(Simulation, WallTimeIsMaxOfCpuClocks)
{
    setQuiet(true);
    Machine m(config(4, 50));
    const RunResult r = m.run();
    EXPECT_GT(r.wallTime, 0u);
    // Wall time of the window cannot exceed summed non-idle + idle.
    EXPECT_LE(r.wallTime,
              r.stat("cpu.exec_time") + r.stat("cpu.idle") + 1);
}

/** A process that event-blocks forever; nothing will ever wake it. */
class StuckProcess : public Process
{
  public:
    StuckProcess() : Process("stuck", /*pid=*/900, /*cpu=*/0) {}
    ProcessStep step(Tick) override
    {
        ProcessStep s;
        s.kind = StepKind::BlockEvent;
        return s;
    }
};

TEST(Simulation, DeadlockPanicsInsteadOfSpinning)
{
    setQuiet(true);
    // Borrow a machine's kernel/engine/memory system but drive the
    // loop with a private scheduler whose only process event-blocks
    // with no waker: every CPU is stalled yet live work remains — a
    // workload deadlock, which must panic rather than spin or return.
    Machine m(config(1, 10));
    Scheduler sched(1);
    sched.add(std::make_unique<StuckProcess>());
    std::vector<std::unique_ptr<CpuCore>> cpus;
    cpus.push_back(std::make_unique<InOrderCpu>(0, m.memSys()));
    Simulation sim(sched, m.kernel(), m.engine(), cpus, SimOptions{});
    const ScopedPanicThrow guard;
    EXPECT_THROW(sim.runUntilMeasurementDone(), PanicError);
}

TEST(Simulation, AllProcessesExitingEndsTheLoopCleanly)
{
    setQuiet(true);
    // The other arm of the stalled-loop branch: the only process
    // retires, so the loop must simply return (no panic) even though
    // the workload never reaches its transaction target.
    class OneShotProcess : public Process
    {
      public:
        OneShotProcess() : Process("oneshot", /*pid=*/901, /*cpu=*/0) {}
        ProcessStep step(Tick) override
        {
            ProcessStep s;
            s.kind = StepKind::Done;
            return s;
        }
    };
    Machine m(config(1, 10));
    Scheduler sched(1);
    sched.add(std::make_unique<OneShotProcess>());
    std::vector<std::unique_ptr<CpuCore>> cpus;
    cpus.push_back(std::make_unique<InOrderCpu>(0, m.memSys()));
    Simulation sim(sched, m.kernel(), m.engine(), cpus, SimOptions{});
    sim.runUntilMeasurementDone();
    EXPECT_EQ(sched.finished(), 1u);
}

TEST(Simulation, MaxStepsBackstopFires)
{
    setQuiet(true);
    // 500 steps cannot complete the workload; the runaway backstop
    // must trip instead of letting the loop run unbounded.
    Machine m(config(1, 30));
    m.setMaxSteps(500);
    const ScopedPanicThrow guard;
    EXPECT_THROW(m.run(), PanicError);
}

} // namespace
} // namespace isim
