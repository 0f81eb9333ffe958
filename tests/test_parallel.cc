/**
 * @file
 * Tests for the parallel experiment engine: bit-identical results at
 * any job count, isolation of concurrently running machines, worker
 * exception propagation, per-thread assertion text, and leases spread
 * over the executor's threads (per-thread CPU time).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/base/logging.hh"
#include "src/campaign/queue.hh"
#include "src/campaign/worker.hh"
#include "src/core/experiment.hh"
#include "src/core/figures.hh"
#include "src/core/report.hh"
#include "tests/host_meter.hh"

namespace isim {
namespace {

WorkloadParams
smallWorkload(std::uint64_t transactions = 40)
{
    WorkloadParams p;
    p.branches = 8;
    p.accountsPerBranch = 10000;
    p.blockBufferBytes = 64 * mib;
    p.transactions = transactions;
    p.warmupTransactions = 15;
    return p;
}

/** A four-bar figure (off-chip L2 associativity sweep). */
FigureSpec
fourBarSpec(std::uint64_t transactions = 40)
{
    FigureSpec spec;
    spec.id = "test-parallel";
    spec.title = "associativity";
    for (const unsigned assoc : {1u, 2u, 4u, 8u}) {
        FigureBar bar;
        bar.config = figures::offchip(1, 2 * mib, assoc);
        bar.config.workload = smallWorkload(transactions);
        spec.bars.push_back(bar);
    }
    return spec;
}

RunOptions
quietOptions(unsigned jobs)
{
    RunOptions opts;
    opts.verbose = false;
    opts.jobs = jobs;
    return opts;
}

/** Run one machine as a one-bar figure. */
RunResult
runMachine(const MachineConfig &config)
{
    FigureSpec spec;
    spec.bars.push_back({config, std::nullopt, std::nullopt});
    return runFigures({spec}, quietOptions(1)).front().runs.front();
}

TEST(Parallel, JobCountDoesNotChangeResults)
{
    setQuiet(true);
    const FigureSpec spec = fourBarSpec();
    const FigureResult seq = runFigures({spec}, quietOptions(1)).front();
    const FigureResult par = runFigures({spec}, quietOptions(4)).front();
    ASSERT_EQ(seq.runs.size(), par.runs.size());
    // The acceptance bar: the JSON artifacts are bit-identical.
    EXPECT_EQ(figureToJson(seq), figureToJson(par));
}

TEST(Parallel, ConcurrentMachinesShareNoMutableState)
{
    setQuiet(true);
    MachineConfig a = figures::offchip(1, 1 * mib, 1);
    a.workload = smallWorkload();
    MachineConfig b = figures::baseMachine(2);
    b.workload = smallWorkload();

    const RunResult refA = runMachine(a);
    const RunResult refB = runMachine(b);

    // Re-run both *concurrently* through runFigures; if it or the
    // machines shared any mutable state, results would diverge from
    // the sequential reference (and TSan would flag the race).
    RunResult conA, conB;
    std::thread ta([&] { conA = runMachine(a); });
    std::thread tb([&] { conB = runMachine(b); });
    ta.join();
    tb.join();

    EXPECT_EQ(conA.stat("cpu.exec_time"), refA.stat("cpu.exec_time"));
    EXPECT_EQ(conA.stat("l2.miss.total"), refA.stat("l2.miss.total"));
    EXPECT_EQ(conB.stat("cpu.exec_time"), refB.stat("cpu.exec_time"));
    EXPECT_EQ(conB.stat("l2.miss.total"), refB.stat("l2.miss.total"));
}

TEST(Parallel, WorkerExceptionsPropagateInSpecOrder)
{
    setQuiet(true);
    FigureSpec spec = fourBarSpec();
    // Corrupt bar 1: cores not divisible by cores/node is rejected
    // by the Machine constructor (on a worker thread).
    spec.bars[1].config.coresPerNode = 3;
    ScopedPanicThrow guard;
    EXPECT_THROW(runFigures({spec}, quietOptions(4)), PanicError);
}

/** Fail an isim_assert whose condition text names thread `t`. */
void
failAssertAs(int t)
{
#define ISIM_FAIL_AS(n)                                                     \
    case n:                                                                 \
        isim_assert(t != n);                                                \
        break
    switch (t) {
        ISIM_FAIL_AS(0);
        ISIM_FAIL_AS(1);
        ISIM_FAIL_AS(2);
        ISIM_FAIL_AS(3);
        ISIM_FAIL_AS(4);
        ISIM_FAIL_AS(5);
        ISIM_FAIL_AS(6);
        ISIM_FAIL_AS(7);
    }
#undef ISIM_FAIL_AS
}

TEST(Parallel, ConcurrentAssertsKeepTheirOwnCondition)
{
    // The condition text travels from assertNote to panicImpl; two
    // threads failing at once must not swap (or tear) each other's.
    ScopedPanicThrow guard;
    constexpr int threads = 8;
    std::atomic<int> wrong{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([t, &wrong] {
            const std::string own =
                "assertion 't != " + std::to_string(t) + "' failed";
            for (int i = 0; i < 1000; ++i) {
                try {
                    failAssertAs(t);
                    ++wrong; // did not throw at all
                } catch (const PanicError &e) {
                    if (std::string(e.what()).find(own) ==
                        std::string::npos) {
                        ++wrong;
                    }
                }
            }
        });
    }
    for (std::thread &thread : pool)
        thread.join();
    EXPECT_EQ(wrong.load(), 0);
}

TEST(Parallel, SpeedupOnMultiCoreHost)
{
    // The executor's leases must spread over its threads. Wall-clock
    // would also measure whatever else the host runs, so each lease
    // charges the CPU time of the thread that ran it: total over the
    // busiest thread is the speed-up ideal cores would give.
    setQuiet(true);
    // Big enough that per-bar runtime dwarfs pool overhead.
    const FigureSpec spec = fourBarSpec(/*transactions=*/250);
    const campaign::CampaignPlan plan =
        campaign::planFigures({spec}, quietOptions(4));
    campaign::CampaignQueue queue(plan, "");
    FigureResult par;
    par.spec = spec;
    par.runs.resize(plan.bars.size());
    std::mutex mu;
    std::map<std::thread::id, double> cpu;
    campaign::runLeases(queue, 4, -1, [&](const campaign::Lease &lease) {
        const double t0 = threadCpuSeconds();
        par.runs[lease.index] = campaign::runBar(plan, lease, "");
        const double spent = threadCpuSeconds() - t0;
        const std::lock_guard<std::mutex> lock(mu);
        cpu[std::this_thread::get_id()] += spent;
    });

    const FigureResult seq = runFigures({spec}, quietOptions(1)).front();
    EXPECT_EQ(figureToJson(seq), figureToJson(par));
    double total = 0.0, busiest = 0.0;
    for (const auto &[thread, seconds] : cpu) {
        total += seconds;
        busiest = std::max(busiest, seconds);
    }
    EXPECT_GE(cpu.size(), 2u) << "every lease ran on one thread";
    // Four comparable bars on four threads: ideal ~4x; 1.5x leaves
    // room for one thread that happens to draw two leases.
    EXPECT_GE(total / busiest, 1.5)
        << cpu.size() << " threads, " << total << " s CPU in total, "
        << busiest << " s on the busiest";
}

} // namespace
} // namespace isim
