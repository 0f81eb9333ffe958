/**
 * @file
 * Machine-level checkpoint assembly: the MachineConfig echo and the
 * Machine entry points (declared on Machine in src/core/machine.hh).
 */

#include "src/ckpt/checkpoint.hh"

#include <fstream>
#include <tuple>
#include <type_traits>

#include "src/base/logging.hh"
#include "src/config/fields.hh"
#include "src/core/machine.hh"
#include "src/core/simulation.hh"

namespace isim {

namespace ckpt {

namespace {

template <typename T>
void
writeField(Serializer &s, const T &v)
{
    if constexpr (std::is_same_v<T, std::string>)
        s.str(v);
    else if constexpr (std::is_same_v<T, bool>)
        s.b(v);
    else if constexpr (std::is_same_v<T, double>)
        s.f64(v);
    else if constexpr (std::is_enum_v<T>)
        s.u8(static_cast<std::uint8_t>(v));
    else if constexpr (std::is_same_v<T, unsigned>)
        s.u32(v);
    else
        s.u64(v);
}

template <typename T>
void
readField(Deserializer &d, const MachineField &f, T &v)
{
    if constexpr (std::is_same_v<T, std::string>)
        v = d.str();
    else if constexpr (std::is_same_v<T, bool>)
        v = d.b();
    else if constexpr (std::is_same_v<T, double>)
        v = d.f64();
    else if constexpr (std::is_same_v<T, unsigned>)
        v = d.u32();
    else if constexpr (!std::is_enum_v<T>)
        v = d.u64();
    else if (const std::uint8_t e = d.u8(); e < enumNames<T>.names.size())
        v = static_cast<T>(e);
    else
        isim_fatal("checkpoint corrupt: config key '%s' = %u is out of "
                   "range",
                   f.key, e);
}

/** The CONF section: every field, in machineFields() order. */
void
writeConfig(Serializer &s, const MachineConfig &config)
{
    s.beginSection(tagConfig);
    for (const MachineField &f : machineFields()) {
        if (f.key == nullptr)
            s.u32(static_cast<std::uint32_t>(f.min));
        else
            std::visit([&](const auto *p) { writeField(s, *p); },
                       f.in(config));
    }
    s.endSection();
}

/** Mirror of writeConfig; a model constant must hold its value. */
MachineConfig
readConfig(Deserializer &d)
{
    MachineConfig c;
    d.beginSection(tagConfig);
    for (const MachineField &f : machineFields()) {
        if (f.key != nullptr)
            std::visit([&](auto *p) { readField(d, f, *p); }, f.ref(c));
        else if (const std::uint32_t v = d.u32(); v != f.min)
            isim_fatal("checkpoint corrupt: CONF slot %zu is %u, but the "
                       "model fixes it at %llu",
                       static_cast<std::size_t>(&f - machineFields().data()),
                       v, static_cast<unsigned long long>(f.min));
    }
    d.endSection();
    return c;
}

} // namespace

std::vector<std::uint8_t>
configBytes(const MachineConfig &config)
{
    Serializer s;
    writeConfig(s, config);
    return s.take();
}

} // namespace ckpt

// ---- Machine entry points ----

std::size_t
Machine::checkpointBytesBound() const
{
    // The fixed fields and the small sections (CONF, META, SIMU, CPUS,
    // KERN, OLTP, SCHD) take about 55 KiB on an 8-CPU TPC-B image,
    // most of it the scheduler's per-process state.
    constexpr std::size_t fixedBytes = 64 * kib;
    constexpr std::size_t perCpuBytes = 16 * kib;
    return fixedBytes + perCpuBytes * cpus_.size() +
           memSys_->savedRecordBytes() + vm_->savedRecordBytes();
}

std::vector<std::uint8_t>
Machine::checkpointBytes() const
{
    isim_assert(warmupRan_,
                "checkpoint of a cold machine (run the warm-up first)");

    ckpt::Serializer s(checkpointBytesBound());

    ckpt::writeConfig(s, config_);

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

    return s.take();
}

void
Machine::saveCheckpoint(const std::string &path) const
{
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
    pendingSim_->restoreState(d, cpus_.size());
    d.endSection();

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
Machine::fromImage(
    std::span<const std::uint8_t> image,
    std::optional<std::pair<IntegrationLevel, L2Impl>> latencies)
{
    ckpt::Deserializer d(image);
    MachineConfig config = ckpt::readConfig(d);
    // Re-resolve the latency table only; cache geometry, workload and
    // seeds stay those of the image, so the warm state still matches.
    if (latencies)
        std::tie(config.level, config.l2Impl) = *latencies;
    auto machine = std::make_unique<Machine>(config);
    machine->restoreFromImage(d);
    return machine;
}

std::unique_ptr<Machine>
Machine::fromCheckpointBytes(const std::vector<std::uint8_t> &bytes)
{
    return fromImage(bytes, std::nullopt);
}

std::unique_ptr<Machine>
Machine::fromCheckpoint(const std::string &path)
{
    const std::vector<std::uint8_t> image = ckpt::readCheckpointFile(path);
    return fromImage(image, std::nullopt);
}

std::unique_ptr<Machine>
Machine::fromCheckpoint(const std::string &path, IntegrationLevel level,
                        L2Impl l2_impl)
{
    const std::vector<std::uint8_t> image = ckpt::readCheckpointFile(path);
    return fromImage(image, std::pair{level, l2_impl});
}

} // namespace isim
