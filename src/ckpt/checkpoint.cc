/**
 * @file
 * Machine-level checkpoint assembly: the MachineConfig echo and the
 * Machine entry points (declared on Machine in src/core/machine.hh).
 */

#include "src/ckpt/checkpoint.hh"

#include <fstream>

#include "src/base/logging.hh"
#include "src/core/machine.hh"
#include "src/core/simulation.hh"
#include "src/prof/profiler.hh"

namespace isim {

namespace ckpt {

namespace {

void
writeGeometry(Serializer &s, const CacheGeometry &g)
{
    s.u64(g.sizeBytes);
    s.u32(g.assoc);
    s.u32(g.lineBytes);
}

CacheGeometry
readGeometry(Deserializer &d)
{
    CacheGeometry g;
    g.sizeBytes = d.u64();
    g.assoc = d.u32();
    g.lineBytes = d.u32();
    return g;
}

/** Read a u8-encoded enum, rejecting values past `max`. */
template <typename Enum>
Enum
readEnum(Deserializer &d, Enum max, const char *what)
{
    const std::uint8_t v = d.u8();
    if (v > static_cast<std::uint8_t>(max))
        isim_fatal("checkpoint corrupt: %s value %u out of range", what,
                   v);
    return static_cast<Enum>(v);
}

void
writeWorkload(Serializer &s, const WorkloadParams &w)
{
    s.u8(static_cast<std::uint8_t>(w.kind));
    s.u32(w.branches);
    s.u32(w.tellersPerBranch);
    s.u32(w.accountsPerBranch);
    s.u32(w.serversPerCpu);
    s.u64(w.transactions);
    s.u64(w.warmupTransactions);
    s.u32(w.blockBytes);
    s.u64(w.rowBytes);
    s.u64(w.blockBufferBytes);
    s.u64(w.metadataSlackBytes);
    s.u32(w.hashBuckets);
    s.u32(w.numLatches);
    s.u32(w.latchStride);
    s.u32(w.numHashLatches);
    s.u32(w.redoCopyLatches);
    s.u64(w.logBufferBytes);
    s.u64(w.dbTextBytes);
    s.u32(w.dbFunctions);
    s.u32(w.parseInvocations);
    s.u32(w.executeInvocations);
    s.u32(w.commitInvocations);
    s.f64(w.functionSkew);
    s.f64(w.dataRefsPerLine);
    s.f64(w.privateFraction);
    s.f64(w.metadataFraction);
    s.f64(w.warmFraction);
    s.f64(w.mixerStoreFraction);
    s.f64(w.sharedMetadataStoreFraction);
    s.f64(w.dependentFraction);
    s.u64(w.privateBytes);
    s.f64(w.privateSkew);
    s.f64(w.metadataSkew);
    s.u32(w.blockLinesPerRowRead);
    s.u32(w.indexLevels);
    s.u32(w.coldHeaderScans);
    s.u64(w.hotMetadataBytes);
    s.u64(w.warmMetadataBytes);
    s.u32(w.dssStreamsPerCpu);
    s.u64(w.dssBlocksPerQuery);
    s.u64(w.logWriteLatency);
    s.u64(w.clientThinkTime);
    s.u64(w.dbWriterPeriod);
    s.u32(w.dbWriterBatch);
    s.u64(w.seed);
    s.u64(w.quantum);
}

WorkloadParams
readWorkload(Deserializer &d)
{
    WorkloadParams w;
    w.kind = readEnum(d, WorkloadKind::DssScan, "workload kind");
    w.branches = d.u32();
    w.tellersPerBranch = d.u32();
    w.accountsPerBranch = d.u32();
    w.serversPerCpu = d.u32();
    w.transactions = d.u64();
    w.warmupTransactions = d.u64();
    w.blockBytes = d.u32();
    w.rowBytes = d.u64();
    w.blockBufferBytes = d.u64();
    w.metadataSlackBytes = d.u64();
    w.hashBuckets = d.u32();
    w.numLatches = d.u32();
    w.latchStride = d.u32();
    w.numHashLatches = d.u32();
    w.redoCopyLatches = d.u32();
    w.logBufferBytes = d.u64();
    w.dbTextBytes = d.u64();
    w.dbFunctions = d.u32();
    w.parseInvocations = d.u32();
    w.executeInvocations = d.u32();
    w.commitInvocations = d.u32();
    w.functionSkew = d.f64();
    w.dataRefsPerLine = d.f64();
    w.privateFraction = d.f64();
    w.metadataFraction = d.f64();
    w.warmFraction = d.f64();
    w.mixerStoreFraction = d.f64();
    w.sharedMetadataStoreFraction = d.f64();
    w.dependentFraction = d.f64();
    w.privateBytes = d.u64();
    w.privateSkew = d.f64();
    w.metadataSkew = d.f64();
    w.blockLinesPerRowRead = d.u32();
    w.indexLevels = d.u32();
    w.coldHeaderScans = d.u32();
    w.hotMetadataBytes = d.u64();
    w.warmMetadataBytes = d.u64();
    w.dssStreamsPerCpu = d.u32();
    w.dssBlocksPerQuery = d.u64();
    w.logWriteLatency = d.u64();
    w.clientThinkTime = d.u64();
    w.dbWriterPeriod = d.u64();
    w.dbWriterBatch = d.u32();
    w.seed = d.u64();
    w.quantum = d.u64();
    return w;
}

} // namespace

void
writeConfig(Serializer &s, const MachineConfig &config)
{
    s.str(config.name);
    s.u32(config.numCpus);
    s.u32(config.coresPerNode);
    s.u8(static_cast<std::uint8_t>(config.cpuModel));
    s.u32(config.oooParams.width);
    s.u32(config.oooParams.window);
    s.u32(config.oooParams.lsPorts);
    s.u64(config.oooParams.frontendDepth);
    s.u64(config.oooParams.l1HitLatency);
    s.f64(config.oooParams.mispredictEveryInstrs);
    s.u8(static_cast<std::uint8_t>(config.level));
    s.u8(static_cast<std::uint8_t>(config.l2Impl));
    writeGeometry(s, config.l2);
    s.b(config.rac);
    writeGeometry(s, config.racGeom);
    s.u32(config.victimBufferEntries);
    s.u32(config.prefetchDegree);
    s.u64(config.mcOccupancy);
    s.b(config.replicateCode);
    s.u32(config.nodeShift);
    s.u32(config.pageColors);
    writeWorkload(s, config.workload);
}

MachineConfig
readConfig(Deserializer &d)
{
    MachineConfig c;
    c.name = d.str();
    c.numCpus = d.u32();
    c.coresPerNode = d.u32();
    c.cpuModel = readEnum(d, CpuModel::OutOfOrder, "CPU model");
    c.oooParams.width = d.u32();
    c.oooParams.window = d.u32();
    c.oooParams.lsPorts = d.u32();
    c.oooParams.frontendDepth = d.u64();
    c.oooParams.l1HitLatency = d.u64();
    c.oooParams.mispredictEveryInstrs = d.f64();
    c.level =
        readEnum(d, IntegrationLevel::FullInt, "integration level");
    c.l2Impl = readEnum(d, L2Impl::OnchipDram, "L2 implementation");
    c.l2 = readGeometry(d);
    c.rac = d.b();
    c.racGeom = readGeometry(d);
    c.victimBufferEntries = d.u32();
    c.prefetchDegree = d.u32();
    c.mcOccupancy = d.u64();
    c.replicateCode = d.b();
    c.nodeShift = d.u32();
    c.pageColors = d.u32();
    c.workload = readWorkload(d);
    return c;
}

MachineConfig
peekConfig(const std::vector<std::uint8_t> &bytes)
{
    Deserializer d(bytes);
    d.beginSection(tagConfig);
    MachineConfig c = readConfig(d);
    d.endSection();
    return c;
}

std::vector<std::uint8_t>
configBytes(const MachineConfig &config)
{
    Serializer s;
    s.beginSection(tagConfig);
    writeConfig(s, config);
    s.endSection();
    return s.bytes();
}

} // namespace ckpt

// ---- Machine entry points ----

std::vector<std::uint8_t>
Machine::checkpointBytes() const
{
    isim_assert(warmupRan_,
                "checkpoint of a cold machine (run the warm-up first)");

    ckpt::Serializer s;

    s.beginSection(ckpt::tagConfig);
    ckpt::writeConfig(s, config_);
    s.endSection();

    s.beginSection(ckpt::tagMeta);
    s.u64(warmEnd_);
    s.endSection();

    s.beginSection(ckpt::tagSimLoop);
    if (sim_ != nullptr) {
        sim_->captureState().saveState(s);
    } else {
        isim_assert(pendingSim_ != nullptr,
                    "warm machine with no loop state");
        pendingSim_->saveState(s);
    }
    s.endSection();

    s.beginSection(ckpt::tagCpus);
    s.u64(cpus_.size());
    for (const auto &core : cpus_)
        core->saveState(s);
    s.endSection();

    s.beginSection(ckpt::tagMemSys);
    memSys_->saveState(s);
    s.endSection();

    s.beginSection(ckpt::tagVm);
    vm_->saveState(s);
    s.endSection();

    s.beginSection(ckpt::tagKernel);
    kernel_->saveState(s);
    s.endSection();

    s.beginSection(ckpt::tagOltp);
    engine_->saveState(s);
    s.endSection();

    s.beginSection(ckpt::tagSched);
    sched_->saveState(s);
    s.endSection();

    return s.bytes();
}

void
Machine::saveCheckpoint(const std::string &path) const
{
    ISIM_PROF_SCOPE("ckpt/save");
    const std::vector<std::uint8_t> image = checkpointBytes();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        isim_fatal("cannot open checkpoint file '%s' for writing",
                   path.c_str());
    }
    out.write(reinterpret_cast<const char *>(image.data()),
              static_cast<std::streamsize>(image.size()));
    if (!out)
        isim_fatal("short write to checkpoint file '%s'", path.c_str());
}

std::uint64_t
Machine::stateDigest() const
{
    const std::vector<std::uint8_t> image = checkpointBytes();
    return ckpt::fnv1a64(image.data(), image.size());
}

void
Machine::restoreFromImage(ckpt::Deserializer &d)
{
    ISIM_PROF_SCOPE("ckpt/restore");
    d.beginSection(ckpt::tagMeta);
    warmEnd_ = d.u64();
    // Legacy, read-only field: images written while an atomic warm-up
    // existed carry a 9th META byte naming the warm-up mode (0 =
    // timing, 1 = atomic). Current images omit it.
    if (d.sectionRemaining() > 0) {
        const std::uint8_t mode = d.u8();
        if (mode == 1) {
            isim_fatal("checkpoint was warmed by the removed atomic "
                       "warm-up; rebuild the image");
        }
        if (mode > 1) {
            isim_fatal("checkpoint corrupt: warm-up exec mode value %u "
                       "out of range",
                       mode);
        }
    }
    d.endSection();

    d.beginSection(ckpt::tagSimLoop);
    pendingSim_ = std::make_unique<SimState>();
    pendingSim_->restoreState(d);
    d.endSection();
    if (pendingSim_->cpus.size() != cpus_.size()) {
        isim_fatal("checkpoint CPU count mismatch: image has %zu, "
                   "machine has %zu",
                   pendingSim_->cpus.size(), cpus_.size());
    }

    d.beginSection(ckpt::tagCpus);
    const std::uint64_t ncpus = d.u64();
    if (ncpus != cpus_.size()) {
        isim_fatal("checkpoint corrupt: CPUS section has %llu cores, "
                   "machine has %zu",
                   static_cast<unsigned long long>(ncpus), cpus_.size());
    }
    for (auto &core : cpus_)
        core->restoreState(d);
    d.endSection();

    d.beginSection(ckpt::tagMemSys);
    memSys_->restoreState(d);
    d.endSection();

    d.beginSection(ckpt::tagVm);
    vm_->restoreState(d);
    d.endSection();

    d.beginSection(ckpt::tagKernel);
    kernel_->restoreState(d);
    d.endSection();

    d.beginSection(ckpt::tagOltp);
    engine_->restoreState(d);
    d.endSection();

    d.beginSection(ckpt::tagSched);
    sched_->restoreState(d);
    d.endSection();

    d.finish();

    warmupRan_ = true;
    // obsBegun_ stays false: a restored machine opens its
    // observability window at the warm boundary (runMeasurement).
}

std::unique_ptr<Machine>
Machine::fromCheckpointBytes(const std::vector<std::uint8_t> &bytes)
{
    ckpt::Deserializer d(bytes);
    d.beginSection(ckpt::tagConfig);
    const MachineConfig config = ckpt::readConfig(d);
    d.endSection();

    auto machine = std::make_unique<Machine>(config);
    machine->restoreFromImage(d);
    return machine;
}

std::unique_ptr<Machine>
Machine::fromCheckpoint(const std::string &path)
{
    ckpt::Deserializer d = ckpt::Deserializer::fromFile(path);
    d.beginSection(ckpt::tagConfig);
    const MachineConfig config = ckpt::readConfig(d);
    d.endSection();

    auto machine = std::make_unique<Machine>(config);
    machine->restoreFromImage(d);
    return machine;
}

std::unique_ptr<Machine>
Machine::fromCheckpoint(const std::string &path, IntegrationLevel level,
                        L2Impl l2_impl)
{
    ckpt::Deserializer d = ckpt::Deserializer::fromFile(path);
    d.beginSection(ckpt::tagConfig);
    MachineConfig config = ckpt::readConfig(d);
    d.endSection();

    // Re-resolve the latency table only; cache geometry, workload and
    // seeds stay those of the image, so the warm state still matches.
    config.level = level;
    config.l2Impl = l2_impl;

    auto machine = std::make_unique<Machine>(config);
    machine->restoreFromImage(d);
    return machine;
}

} // namespace isim
