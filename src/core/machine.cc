/**
 * @file
 * Machine assembly implementation.
 */

#include "src/core/machine.hh"

#include "src/base/logging.hh"
#include "src/config/fields.hh"
#include "src/core/simulation.hh"
#include "src/cpu/inorder.hh"
#include "src/obs/observability.hh"

namespace isim {

std::string
MachineConfig::label() const
{
    return name;
}

double
RunResult::stat(const std::string &stat_name) const
{
    const stats::Sample *s = stats::findSample(stats, stat_name);
    if (s == nullptr)
        isim_panic("run '%s' has no stat '%s'", name.c_str(),
                   stat_name.c_str());
    return s->number();
}

Machine::~Machine() = default;

namespace {

/** A cache the model builds: L1-sized lines, whole sets. */
void
checkGeometry(const CacheGeometry &g, const char *prefix)
{
    const unsigned line = MemSysConfig{}.lineBytes;
    if (g.lineBytes != line) {
        isim_fatal("config keys '%s.size', '%s.assoc': the cache has "
                   "%u-byte lines, but the model fixes every line at the "
                   "%u-byte L1 line",
                   prefix, prefix, g.lineBytes, line);
    }
    const std::uint64_t way_bytes =
        static_cast<std::uint64_t>(g.assoc) * line;
    if (way_bytes == 0 || g.sizeBytes == 0 || g.sizeBytes % way_bytes) {
        isim_fatal("config keys '%s.size' = %llu, '%s.assoc' = %u: the "
                   "size must be a nonzero multiple of assoc x %u-byte "
                   "lines",
                   prefix, static_cast<unsigned long long>(g.sizeBytes),
                   prefix, g.assoc, line);
    }
}

} // namespace

void
MachineConfig::validate() const
{
    for (const MachineField &f : machineFields()) {
        if (f.key != nullptr)
            checkFieldLimits(f, *this);
    }
    if (numCpus % coresPerNode != 0) {
        isim_fatal("config keys 'machine.cpus' = %u, "
                   "'machine.cores_per_node' = %u: the CPU count is not "
                   "divisible by the cores per node",
                   numCpus, coresPerNode);
    }
    if (numNodes() > 32) {
        isim_fatal("config keys 'machine.cpus' = %u, "
                   "'machine.cores_per_node' = %u: %u nodes: the model "
                   "supports 1..32 nodes (the directory's sharer mask is "
                   "32 bits)",
                   numCpus, coresPerNode, numNodes());
    }
    if (workload.rowBytes > workload.blockBytes) {
        isim_fatal("config keys 'workload.row_size' = %llu, "
                   "'workload.block_size' = %u: a block must hold a row",
                   static_cast<unsigned long long>(workload.rowBytes),
                   workload.blockBytes);
    }
    // Latch 0 is redo allocation, 1.. the redo copy latches, and
    // 16.. the hash-chain latches (src/oltp/sga.cc).
    if (workload.numHashLatches + 16ull > workload.numLatches) {
        isim_fatal("config keys 'workload.latches' = %u, "
                   "'workload.hash_latches' = %u: latches must be >= "
                   "hash_latches + 16",
                   workload.numLatches, workload.numHashLatches);
    }
    if (workload.redoCopyLatches >= workload.numLatches) {
        isim_fatal("config keys 'workload.latches' = %u, "
                   "'workload.redo_copy_latches' = %u: latches must be "
                   "> redo_copy_latches",
                   workload.numLatches, workload.redoCopyLatches);
    }
    if (workload.dbTextBytes / CodeModelParams{}.lineBytes <
        workload.dbFunctions) {
        isim_fatal("config keys 'workload.db_text' = %llu, "
                   "'workload.db_functions' = %u: the text must hold one "
                   "%u-byte line per function",
                   static_cast<unsigned long long>(workload.dbTextBytes),
                   workload.dbFunctions, CodeModelParams{}.lineBytes);
    }
    checkGeometry(l2, "machine.l2");
    if (rac)
        checkGeometry(racGeom, "machine.rac");
    if (!validCombination(level, l2Impl)) {
        isim_fatal("config keys 'machine.level', 'machine.l2.impl': %s "
                   "cannot use a %s L2 (machine '%s')",
                   integrationLevelName(level), l2ImplName(l2Impl),
                   name.c_str());
    }
}

Machine::Machine(const MachineConfig &config) : config_(config)
{
    config_.validate();

    // The memory system validates the model limits (node and core
    // counts), so build it before anything sized by them.
    MemSysConfig msc;
    msc.numNodes = config_.numNodes();
    msc.coresPerNode = config_.coresPerNode;
    msc.victimBufferEntries = config_.victimBufferEntries;
    msc.prefetchDegree = config_.prefetchDegree;
    msc.mcOccupancy = config_.mcOccupancy;
    msc.l2 = config_.l2;
    msc.racEnabled = config_.rac;
    msc.rac = config_.racGeom;
    msc.lat = config_.latencies();
    memSys_ = std::make_unique<MemorySystem>(msc);

    VmConfig vmc;
    vmc.homeMap = HomeMap{nodeWindowBits, config_.numNodes()};
    vmc.coresPerNode = config_.coresPerNode;
    vmc.pageColors = config_.pageColors;
    vmc.seed = mix64(config_.workload.seed ^ 0x5eed);
    vm_ = std::make_unique<VirtualMemory>(vmc);

    kernel_ = std::make_unique<KernelModel>(
        *vm_, config_.numCpus, KernelParams{},
        mix64(config_.workload.seed ^ 0x6e17));

    engine_ = std::make_unique<OltpEngine>(config_.workload, *vm_,
                                           *kernel_, config_.numCpus,
                                           config_.replicateCode);

    cpus_.reserve(config_.numCpus);
    for (NodeId n = 0; n < config_.numCpus; ++n) {
        if (config_.cpuModel == CpuModel::InOrder) {
            cpus_.push_back(std::make_unique<InOrderCpu>(n, *memSys_));
        } else {
            cpus_.push_back(std::make_unique<OooCpu>(n, *memSys_,
                                                     config_.oooParams));
        }
    }

    sched_ = std::make_unique<Scheduler>(config_.numCpus);
    engine_->createProcesses(*sched_);

    buildRegistry();
}

void
Machine::buildRegistry()
{
    // Per-CPU execution buckets plus machine-wide sums. The aggregate
    // lambdas walk cpus_ at dump time so they always match the per-CPU
    // values they summarize.
    for (NodeId c = 0; c < config_.numCpus; ++c) {
        cpus_[c]->stats().registerStats(registry_,
                                        "cpu" + std::to_string(c));
    }
    auto cpuSum = [this](Tick CpuStats::*field) {
        return [this, field] {
            Tick total = 0;
            for (const auto &core : cpus_)
                total += core->stats().*field;
            return total;
        };
    };
    auto cpuSumU = [this](std::uint64_t CpuStats::*field) {
        return [this, field] {
            std::uint64_t total = 0;
            for (const auto &core : cpus_)
                total += core->stats().*field;
            return total;
        };
    };
    registry_
        .counter("cpu.busy", "instruction issue time, all CPUs", "ticks",
                 cpuSum(&CpuStats::busy))
        .counter("cpu.l2hit_stall", "L2-hit stall, all CPUs", "ticks",
                 cpuSum(&CpuStats::l2HitStall))
        .counter("cpu.local_stall", "local-memory stall, all CPUs",
                 "ticks", cpuSum(&CpuStats::localStall))
        .counter("cpu.remote_stall", "2-hop remote stall, all CPUs",
                 "ticks", cpuSum(&CpuStats::remoteStall))
        .counter("cpu.remote_dirty_stall",
                 "3-hop remote-dirty stall, all CPUs", "ticks",
                 cpuSum(&CpuStats::remoteDirtyStall))
        .counter("cpu.idle", "idle time, all CPUs", "ticks",
                 cpuSum(&CpuStats::idle))
        .counter("cpu.kernel_time", "kernel-mode time, all CPUs",
                 "ticks", cpuSum(&CpuStats::kernelTime))
        .counter("cpu.instructions", "instructions, all CPUs", "insts",
                 cpuSumU(&CpuStats::instructions))
        .counter("cpu.loads", "load references, all CPUs", "refs",
                 cpuSumU(&CpuStats::loads))
        .counter("cpu.stores", "store references, all CPUs", "refs",
                 cpuSumU(&CpuStats::stores));

    auto allCpu = [this] {
        CpuStats total;
        for (const auto &core : cpus_)
            total += core->stats();
        return total;
    };
    registry_
        .formula("cpu.exec_time",
                 "non-idle execution time, all CPUs (figures' y-axis)",
                 "ticks",
                 [allCpu] { return static_cast<double>(allCpu().nonIdle()); },
                 /*extensive=*/true)
        .formula("cpu.cpi",
                 "cycles per instruction, all CPUs (non-idle / insts)",
                 "cpi",
                 [allCpu] {
                     const CpuStats t = allCpu();
                     return t.instructions
                                ? static_cast<double>(t.nonIdle()) /
                                      static_cast<double>(t.instructions)
                                : 0.0;
                 })
        .formula("cpu.kernel_frac", "kernel share of non-idle time",
                 "ratio", [allCpu] { return allCpu().kernelFraction(); })
        .formula("cpu.busy_frac", "busy share of non-idle time", "ratio",
                 [allCpu] { return allCpu().busyFraction(); });

    // Memory system: per-node protocol + cache counters, per-core L1s.
    const unsigned nodes = config_.numNodes();
    for (NodeId n = 0; n < nodes; ++n) {
        const std::string node = "node" + std::to_string(n);
        memSys_->nodeStats(n).registerStats(registry_, node + ".l2");
        memSys_->l2(n).counters().registerStats(registry_,
                                                node + ".l2.cache");
        if (memSys_->hasRac())
            memSys_->rac(n).counters().registerStats(registry_,
                                                     node + ".rac");
    }
    for (NodeId c = 0; c < config_.numCpus; ++c) {
        const std::string cpu = "cpu" + std::to_string(c);
        memSys_->l1i(c).counters().registerStats(registry_,
                                                 cpu + ".l1i");
        memSys_->l1d(c).counters().registerStats(registry_,
                                                 cpu + ".l1d");
    }
    // Machine-wide miss-class aggregates (what the figures plot).
    auto missSum = [this](std::uint64_t NodeProtocolStats::*field) {
        return [this, field] { return memSys_->aggregateStats().*field; };
    };
    registry_
        .counter("l2.miss.instr_local",
                 "instruction misses to the local home, all nodes",
                 "misses", missSum(&NodeProtocolStats::instrLocal))
        .counter("l2.miss.instr_remote",
                 "instruction misses to a remote home, all nodes",
                 "misses", missSum(&NodeProtocolStats::instrRemote))
        .counter("l2.miss.local",
                 "data misses satisfied locally, all nodes", "misses",
                 missSum(&NodeProtocolStats::dataLocal))
        .counter("l2.miss.remote_clean",
                 "2-hop data misses, all nodes", "misses",
                 missSum(&NodeProtocolStats::dataRemoteClean))
        .counter("l2.miss.remote_dirty",
                 "3-hop data misses, all nodes", "misses",
                 missSum(&NodeProtocolStats::dataRemoteDirty))
        .counter("l2.miss.total", "L2 misses, all nodes and classes",
                 "misses",
                 [this] {
                     return memSys_->aggregateStats().totalL2Misses();
                 })
        .counter("l2.store_refs", "store references, all nodes", "refs",
                 missSum(&NodeProtocolStats::storeRefs))
        .counter("l2.stores_causing_inval",
                 "stores invalidating at least one remote copy, "
                 "all nodes",
                 "refs", missSum(&NodeProtocolStats::storesCausingInval))
        .counter("l2.invals_sent",
                 "remote copies invalidated, all nodes", "ops",
                 missSum(&NodeProtocolStats::invalidationsSent))
        .counter("l2.upgrades", "ownership-only transactions, all nodes",
                 "ops", missSum(&NodeProtocolStats::upgrades));

    registry_.formula("l2.mpki", "L2 misses per kilo-instruction",
                      "misses/ki", [this] {
                          const std::uint64_t insts = [this] {
                              std::uint64_t total = 0;
                              for (const auto &core : cpus_)
                                  total += core->stats().instructions;
                              return total;
                          }();
                          const auto misses =
                              memSys_->aggregateStats().totalL2Misses();
                          return insts ? 1000.0 *
                                             static_cast<double>(misses) /
                                             static_cast<double>(insts)
                                       : 0.0;
                      });
    registry_.formula("l2.inval_per_store",
                      "remote invalidations per store reference", "ratio",
                      [this] {
                          const NodeProtocolStats m =
                              memSys_->aggregateStats();
                          return m.storeRefs
                                     ? static_cast<double>(
                                           m.invalidationsSent) /
                                           static_cast<double>(m.storeRefs)
                                     : 0.0;
                      });
    if (memSys_->hasRac()) {
        registry_.formula("rac.hit_rate",
                          "machine-wide RAC demand hit rate", "ratio",
                          [this] {
                              return memSys_->aggregateRacCounters()
                                  .hitRate();
                          });
    }

    // Interconnect traffic (always counted, tracer or not).
    memSys_->nocStats().registerStats(registry_, "noc");

    // OLTP engine: transactions, latches, buffer cache, redo log.
    engine_->registerStats(registry_);

    // Component resets. The registry owns the warm-up boundary: every
    // stat source above must be covered by exactly one hook here (the
    // engine hangs its own hook inside registerStats).
    registry_.onReset([this] {
        for (auto &core : cpus_)
            core->resetStats();
        memSys_->resetStats();
    });
}

void
Machine::resetStats()
{
    registry_.resetAll();
    if (epochs_ != nullptr)
        epochs_->rebase();
}

void
Machine::attachObservability(obs::Observability *o)
{
    obs_ = o;
    obs::Tracer *tracer = o != nullptr ? &o->tracer() : nullptr;
    memSys_->setTracer(tracer);
    engine_->setTracer(tracer);
}

void
Machine::recordEpochs(Tick epoch_ticks)
{
    isim_assert(sim_ == nullptr && !obsBegun_,
                "recordEpochs after the run started");
    epochs_ = std::make_unique<stats::EpochRecorder>(
        epoch_ticks, registry_,
        [this] { return sched_->contextSwitches(); });
}

void
Machine::beginObservation(Tick now)
{
    if (obsBegun_)
        return;
    obsBegun_ = true;
    if (obs_ != nullptr)
        obs_->beginRun();
    if (epochs_ != nullptr)
        epochs_->start(now);
}

void
Machine::endObservation(RunResult &r)
{
    if (obs_ != nullptr)
        obs_->endRun();
    if (epochs_ != nullptr) {
        epochs_->finish(sim_->wallTime());
        r.epochs = epochs_->rows();
    }
}

RunResult
Machine::snapshot() const
{
    RunResult r;
    r.name = config_.name;
    r.transactions = engine_->measuredCommitted();
    r.dbConsistent = engine_->db().checkConsistency();
    r.stats = registry_.snapshot();
    return r;
}

void
Machine::ensureSim()
{
    if (sim_ != nullptr)
        return;
    SimOptions opts;
    opts.quantum = config_.workload.quantum;
    opts.model = config_.cpuModel;
    opts.maxSteps = maxSteps_;
    opts.tracer = obs_ != nullptr ? &obs_->tracer() : nullptr;
    opts.epochs = epochs_.get();
    sim_ = std::make_unique<Simulation>(*sched_, *kernel_, *engine_,
                                        cpus_, opts);
    if (pendingSim_ != nullptr) {
        sim_->restoreState(*pendingSim_);
        pendingSim_.reset();
    }
}

void
Machine::runWarmup(ExecMode)
{
    isim_assert(!warmupRan_, "warm-up already ran (or was restored)");
    ensureSim();
    beginObservation(0);
    sim_->runUntilWarmupDone();
    warmEnd_ = sim_->wallTime();
    resetStats(); // rebases oltp.txn.committed via the registry hook
    warmupRan_ = true;
}

RunResult
Machine::runMeasurement()
{
    isim_assert(warmupRan_, "runMeasurement before warm-up");
    ensureSim();
    beginObservation(warmEnd_); // no-op unless restored from an image
    sim_->runUntilMeasurementDone();

    RunResult r = snapshot();
    r.wallTime = sim_->wallTime() - warmEnd_;
    endObservation(r);
    return r;
}

RunResult
Machine::run()
{
    if (!warmupRan_)
        runWarmup();
    return runMeasurement();
}

} // namespace isim
