/**
 * @file
 * OLTP engine implementation.
 */

#include "src/oltp/workload.hh"

#include <utility>

#include "src/base/logging.hh"
#include "src/ckpt/serializer.hh"
#include "src/oltp/daemons.hh"
#include "src/oltp/dss.hh"
#include "src/oltp/server.hh"
#include "src/os/layout.hh"
#include "src/stats/registry.hh"

namespace isim {

OltpEngine::OltpEngine(const WorkloadParams &params, VirtualMemory &vm,
                       KernelModel &kernel, unsigned num_cpus,
                       bool replicate_code)
    : params_(params), vm_(vm), kernel_(kernel), numCpus_(num_cpus),
      sga_(params_), db_(params_, sga_), bufferCache_(sga_),
      latches_(sga_), redo_(sga_),
      dbCode_([&] {
          CodeModelParams cp;
          cp.vbase = layout::dbText;
          cp.textBytes = params.dbTextBytes;
          cp.numFunctions = params.dbFunctions;
          cp.seed = mix64(params.seed ^ 0xdb7e47);
          return cp;
      }()),
      privateZipf_(params_.privateBytes / 64, params_.privateSkew),
      metadataZipf_(params_.hotMetadataBytes / 128, params_.metadataSkew),
      functionZipf_{ZipfTable(16, params_.functionSkew),
                    ZipfTable(32, params_.functionSkew),
                    ZipfTable(64, params_.functionSkew)},
      txnLatency_("txn-latency-us", 100, 200)
{
    // Placement: the SGA is striped across the machine (no data
    // placement is practical for OLTP — Section 3); private regions
    // and per-CPU kernel data are first-touch local; text is
    // replicated per node only when the Section 6 experiment asks.
    // SGA sub-regions are registered individually (same interleaved
    // placement) so VM profiling can attribute traffic per structure.
    const Addr sga_end = layout::sgaBase + sga_.totalBytes();
    auto sga_region = [&](Addr base, Addr next, const char *name) {
        isim_assert(next > base && next <= sga_end + 8 * kib);
        vm_.setPolicy(base, next - base, PlacePolicy::Interleave, name);
    };
    sga_region(sga_.blockAddr(0), sga_.headerAddr(0), "sga.blocks");
    sga_region(sga_.headerAddr(0), sga_.hashBucketAddr(0), "sga.headers");
    sga_region(sga_.hashBucketAddr(0), sga_.lruListAddr(0), "sga.hash");
    sga_region(sga_.lruListAddr(0), sga_.latchAddr(0), "sga.lru");
    sga_region(sga_.latchAddr(0), sga_.logSlotAddr(0), "sga.latches");
    sga_region(sga_.logSlotAddr(0), sga_.sharedMetadataAddr(0), "sga.log");
    sga_region(sga_.sharedMetadataAddr(0), sga_.warmMetadataAddr(0),
               "sga.hotmeta");
    sga_region(sga_.warmMetadataAddr(0), sga_end, "sga.warmmeta");

    vm_.setPolicy(layout::processPrivate,
                  layout::processPrivateStride *
                      (std::uint64_t{numCpus_} * params_.serversPerCpu +
                       8),
                  PlacePolicy::Local, "private");
    vm_.setPolicy(layout::kernelPerCpu,
                  layout::kernelPerCpuStride * numCpus_,
                  PlacePolicy::Local, "kernel.percpu");
    vm_.setPolicy(layout::kernelShared, 64 * mib,
                  PlacePolicy::Interleave, "kernel.shared");
    const PlacePolicy text_policy = replicate_code
                                        ? PlacePolicy::Replicate
                                        : PlacePolicy::Interleave;
    vm_.setPolicy(layout::dbText, 64 * mib, text_policy, "db.text");
    vm_.setPolicy(layout::kernelText, 64 * mib, text_policy,
                  "kernel.text");
}

const ZipfTable &
OltpEngine::functionZipf(unsigned group_len) const
{
    for (const ZipfTable &table : functionZipf_) {
        if (table.ranks() == group_len)
            return table;
    }
    isim_panic("no function pick table for a group of %u", group_len);
}

void
OltpEngine::createProcesses(Scheduler &sched)
{
    sched_ = &sched;
    Pid pid = 0;
    if (params_.kind == WorkloadKind::DssScan) {
        // Read-only query streams: no log writer needed (queries do
        // not commit), but the db writer stays for generality.
        for (NodeId cpu = 0; cpu < numCpus_; ++cpu) {
            for (unsigned s = 0; s < params_.dssStreamsPerCpu; ++s) {
                sched.add(std::make_unique<DssScanProcess>(
                    *this, pid, cpu,
                    mix64(params_.seed + 31 * pid + 5)));
                ++pid;
            }
        }
        sched.add(std::make_unique<DbWriterProcess>(
            *this, pid++, numCpus_ - 1, mix64(params_.seed ^ 0xdbdb)));
        return;
    }
    for (NodeId cpu = 0; cpu < numCpus_; ++cpu) {
        for (unsigned s = 0; s < params_.serversPerCpu; ++s) {
            sched.add(std::make_unique<ServerProcess>(
                *this, pid, cpu, mix64(params_.seed + 17 * pid + 3)));
            ++pid;
        }
    }
    // Daemons: log writer on CPU 0, database writer on the last CPU
    // (spreads daemon load a little on MP machines).
    sched.add(std::make_unique<LogWriterProcess>(*this, pid++, 0));
    sched.add(std::make_unique<DbWriterProcess>(
        *this, pid++, numCpus_ - 1, mix64(params_.seed ^ 0xdbdb)));
}

Scheduler &
OltpEngine::sched()
{
    isim_assert(sched_ != nullptr, "createProcesses() not called");
    return *sched_;
}

void
OltpEngine::requestCommit(Process &server, Tick now)
{
    commitWaiters_.push_back(&server);
    if (sleepingLogWriter_ != nullptr) {
        Process *lgwr = sleepingLogWriter_;
        sleepingLogWriter_ = nullptr;
        sched().wake(*lgwr, now);
    }
}

std::vector<Process *>
OltpEngine::takeCommitWaiters()
{
    return std::exchange(commitWaiters_, {});
}

void
OltpEngine::logWriterSleeping(Process &logwriter)
{
    sleepingLogWriter_ = &logwriter;
}

void
OltpEngine::noteCommit(Tick latency)
{
    ++committed_;
    txnLatency_.sample(latency / 1000); // to microseconds... (ticks=ns)
}

void
OltpEngine::skipTransactions(std::uint64_t n)
{
    // Seeded from (workload seed, committed count) only: the same skip
    // request at the same point in the run produces the same database
    // trajectory regardless of host, jobs or checkpoint resume.
    Rng rng(mix64(params_.seed ^
                  mix64(committed_ ^ 0x736b697074786eULL))); // "skiptxn"
    const WorkloadParams &p = params_;
    for (std::uint64_t i = 0; i < n; ++i) {
        // Same operand distribution ServerProcess::emitExecute draws:
        // uniform teller; its branch; the account is in the teller's
        // branch 85% of the time.
        const std::uint64_t teller = rng.below(p.totalTellers());
        const std::uint64_t branch = teller / p.tellersPerBranch;
        std::uint64_t account_branch = branch;
        if (!rng.chance(0.85))
            account_branch = rng.below(p.branches);
        const std::uint64_t account =
            account_branch * p.accountsPerBranch +
            rng.below(p.accountsPerBranch);
        const std::int64_t delta =
            static_cast<std::int64_t>(rng.range(1, 999999)) - 500000;
        db_.appendHistory();
        db_.applyTransaction(account, teller, branch, delta);
        ++committed_;
    }
}

void
OltpEngine::registerStats(stats::Registry &r)
{
    r.counter("oltp.txn.committed", "committed transactions", "txns",
              [this] { return measuredCommitted(); });
    r.distribution("oltp.txn.latency",
                   "commit-to-commit transaction latency", "us",
                   [this]() -> const Histogram & { return txnLatency_; });

    r.counter("oltp.latch.acquires", "latch acquisitions", "ops",
              [this] { return latches_.acquires(); });
    r.counter("oltp.latch.contended",
              "latch acquisitions whose previous holder was another node",
              "ops", [this] { return latches_.contended(); });
    r.formula("oltp.latch.contention_rate",
              "contended share of latch acquisitions", "ratio", [this] {
                  const std::uint64_t a = latches_.acquires();
                  return a ? static_cast<double>(latches_.contended()) / a
                           : 0.0;
              });

    r.counter("oltp.buffer_cache.lookups",
              "buffer-cache hash lookups (block pins)", "ops",
              [this] { return bufferCache_.lookups(); });
    r.gauge("oltp.buffer_cache.dirty_blocks",
            "blocks currently dirty (awaiting the database writer)",
            "blocks",
            [this] { return static_cast<double>(bufferCache_.dirtyCount()); });

    r.counter("oltp.redo.slots_generated", "redo log slots allocated",
              "slots", [this] { return redo_.cursor() - statBase_.cursor; });
    r.counter("oltp.redo.slots_flushed",
              "redo log slots flushed by the log writer", "slots",
              [this] { return redo_.flushed() - statBase_.flushed; });
    r.gauge("oltp.redo.unflushed", "redo slots awaiting flush", "slots",
            [this] { return static_cast<double>(redo_.unflushed()); });

    r.onReset([this] {
        statBase_.committed = committed_;
        statBase_.cursor = redo_.cursor();
        statBase_.flushed = redo_.flushed();
        latches_.resetCounters();
        bufferCache_.resetCounters();
        clearLatencyStats();
    });
}

namespace {

constexpr Pid noPid = ~Pid{0};

} // namespace

void
OltpEngine::saveState(ckpt::Serializer &s) const
{
    s.u64(committed_);
    s.u64(statBase_.committed);
    s.u64(statBase_.cursor);
    s.u64(statBase_.flushed);
    txnLatency_.saveState(s);
    db_.saveState(s);
    bufferCache_.saveState(s);
    latches_.saveState(s);
    redo_.saveState(s);
    // Commit coordination: processes referenced by pid.
    s.u64(commitWaiters_.size());
    for (const Process *p : commitWaiters_)
        s.u32(p->pid());
    s.u32(sleepingLogWriter_ ? sleepingLogWriter_->pid() : noPid);
}

void
OltpEngine::restoreState(ckpt::Deserializer &d)
{
    isim_assert(sched_ != nullptr,
                "restore before createProcesses");
    committed_ = d.u64();
    statBase_.committed = d.u64();
    statBase_.cursor = d.u64();
    statBase_.flushed = d.u64();
    txnLatency_.restoreState(d);
    db_.restoreState(d);
    bufferCache_.restoreState(d);
    latches_.restoreState(d);
    redo_.restoreState(d);
    commitWaiters_.clear();
    const std::uint64_t nwaiters = d.u64();
    for (std::uint64_t i = 0; i < nwaiters; ++i) {
        const Pid pid = d.u32();
        Process *p = sched_->processByPid(pid);
        if (p == nullptr)
            isim_fatal("checkpoint corrupt: unknown commit-waiter "
                       "pid %u",
                       pid);
        commitWaiters_.push_back(p);
    }
    const Pid lgwr = d.u32();
    if (lgwr == noPid) {
        sleepingLogWriter_ = nullptr;
    } else {
        sleepingLogWriter_ = sched_->processByPid(lgwr);
        if (sleepingLogWriter_ == nullptr)
            isim_fatal("checkpoint corrupt: unknown log-writer pid "
                       "%u",
                       lgwr);
    }
}

} // namespace isim
