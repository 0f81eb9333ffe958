/**
 * @file
 * Unit tests for the per-CPU scheduler: dispatch order, timed sleeps,
 * event waits, yields, and retirement.
 */

#include <gtest/gtest.h>

#include "src/os/scheduler.hh"

namespace isim {
namespace {

/** Inert process for scheduler-only tests. */
class StubProcess : public Process
{
  public:
    StubProcess(Pid pid, NodeId cpu)
        : Process("stub" + std::to_string(pid), pid, cpu)
    {
    }
    ProcessStep
    step(Tick) override
    {
        ProcessStep s;
        s.kind = StepKind::Yield;
        return s;
    }
};

TEST(Scheduler, RoundRobinDispatch)
{
    Scheduler sched(1);
    Process &a = sched.add(std::make_unique<StubProcess>(0, 0));
    Process &b = sched.add(std::make_unique<StubProcess>(1, 0));

    EXPECT_EQ(sched.pickNext(0, 0), &a);
    sched.yieldCurrent(0);
    EXPECT_EQ(sched.pickNext(0, 0), &b);
    sched.yieldCurrent(0);
    EXPECT_EQ(sched.pickNext(0, 0), &a);
    EXPECT_EQ(sched.contextSwitches(), 3u);
}

TEST(Scheduler, TimedSleepWakesInOrder)
{
    Scheduler sched(1);
    Process &a = sched.add(std::make_unique<StubProcess>(0, 0));
    Process &b = sched.add(std::make_unique<StubProcess>(1, 0));

    ASSERT_EQ(sched.pickNext(0, 0), &a);
    sched.blockCurrent(0, 500);
    ASSERT_EQ(sched.pickNext(0, 0), &b);
    sched.blockCurrent(0, 200);

    EXPECT_EQ(sched.nextWake(0), 200u);
    EXPECT_EQ(sched.pickNext(0, 100), nullptr); // nothing ready yet
    EXPECT_EQ(sched.pickNext(0, 250), &b);      // b wakes first
    sched.blockCurrent(0, 1000);
    EXPECT_EQ(sched.pickNext(0, 600), &a);
}

TEST(Scheduler, EventWaitNeedsExplicitWake)
{
    Scheduler sched(1);
    Process &a = sched.add(std::make_unique<StubProcess>(0, 0));
    ASSERT_EQ(sched.pickNext(0, 0), &a);
    sched.blockCurrent(0, maxTick); // event wait
    EXPECT_EQ(sched.nextWake(0), maxTick);
    EXPECT_EQ(sched.pickNext(0, 1'000'000), nullptr);

    sched.wake(a, 2000);
    EXPECT_EQ(sched.nextWake(0), 2000u);
    EXPECT_EQ(sched.pickNext(0, 2000), &a);
}

TEST(Scheduler, CrossCpuWake)
{
    Scheduler sched(2);
    Process &a = sched.add(std::make_unique<StubProcess>(0, 1));
    ASSERT_EQ(sched.pickNext(1, 0), &a);
    sched.blockCurrent(1, maxTick);
    // "CPU 0" (any code) wakes the process on CPU 1.
    sched.wake(a, 10);
    EXPECT_TRUE(sched.hasWork(1));
    EXPECT_EQ(sched.pickNext(1, 10), &a);
}

TEST(Scheduler, WakeupsCountsWakeCallsOnly)
{
    // The simulation loop's next-event cache relies on this count
    // moving exactly when some CPU's queues changed behind its back.
    Scheduler sched(2);
    Process &a = sched.add(std::make_unique<StubProcess>(0, 0));
    Process &b = sched.add(std::make_unique<StubProcess>(1, 1));
    sched.add(std::make_unique<StubProcess>(2, 1));
    EXPECT_EQ(sched.wakeups(), 0u);

    // Dispatch, timed and event blocks, yield, timed wake-up, finish:
    // none of them is a wake().
    ASSERT_EQ(sched.pickNext(0, 0), &a);
    sched.blockCurrent(0, maxTick);
    ASSERT_EQ(sched.pickNext(1, 0), &b);
    sched.blockCurrent(1, 100);
    ASSERT_NE(sched.pickNext(1, 0), nullptr);
    sched.yieldCurrent(1);
    ASSERT_NE(sched.pickNext(1, 150), nullptr); // b's timed wake expires
    sched.finishCurrent(1);
    EXPECT_EQ(sched.nextWake(0), maxTick);
    EXPECT_EQ(sched.wakeups(), 0u);

    sched.wake(a, 200);
    EXPECT_EQ(sched.wakeups(), 1u);
    ASSERT_EQ(sched.pickNext(0, 200), &a);
    sched.blockCurrent(0, maxTick);
    sched.wake(a, 300);
    EXPECT_EQ(sched.wakeups(), 2u);
}

TEST(Scheduler, FinishRetiresProcess)
{
    Scheduler sched(1);
    sched.add(std::make_unique<StubProcess>(0, 0));
    EXPECT_TRUE(sched.hasWork(0));
    ASSERT_NE(sched.pickNext(0, 0), nullptr);
    sched.finishCurrent(0);
    EXPECT_FALSE(sched.hasWork(0));
    EXPECT_EQ(sched.finished(), 1u);
    EXPECT_EQ(sched.pickNext(0, 0), nullptr);
}

TEST(Scheduler, RunningAccessor)
{
    Scheduler sched(1);
    Process &a = sched.add(std::make_unique<StubProcess>(0, 0));
    EXPECT_EQ(sched.running(0), nullptr);
    sched.pickNext(0, 0);
    EXPECT_EQ(sched.running(0), &a);
    sched.yieldCurrent(0);
    EXPECT_EQ(sched.running(0), nullptr);
}

TEST(SchedulerDeathTest, WakeOfTimedSleeperRejected)
{
    Scheduler sched(1);
    Process &a = sched.add(std::make_unique<StubProcess>(0, 0));
    sched.pickNext(0, 0);
    sched.blockCurrent(0, 100); // timed
    EXPECT_DEATH(sched.wake(a, 50), "timed sleeper");
}

TEST(SchedulerDeathTest, PickWhileRunningRejected)
{
    Scheduler sched(1);
    sched.add(std::make_unique<StubProcess>(0, 0));
    sched.pickNext(0, 0);
    EXPECT_DEATH(sched.pickNext(0, 0), "while a process is running");
}

} // namespace
} // namespace isim
