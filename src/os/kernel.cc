/**
 * @file
 * Kernel model implementation.
 */

#include "src/os/kernel.hh"

#include "src/base/intmath.hh"
#include "src/ckpt/serializer.hh"
#include "src/os/layout.hh"

namespace isim {

KernelModel::KernelModel(VirtualMemory &vm, unsigned num_cpus,
                         const KernelParams &params, std::uint64_t seed)
    : vm_(vm), params_(params),
      sharedZipf_(params_.sharedDataBytes / 64, params_.sharedSkew),
      perCpuZipf_(params_.perCpuDataBytes / 64, params_.sharedSkew),
      functionZipf_(params_.numFunctions, params_.sharedSkew)
{
    CodeModelParams cp;
    cp.vbase = layout::kernelText;
    cp.textBytes = params_.textBytes;
    cp.numFunctions = params_.numFunctions;
    cp.seed = seed;
    code_ = std::make_unique<CodeModel>(cp);

    rngs_.reserve(num_cpus);
    for (unsigned c = 0; c < num_cpus; ++c)
        rngs_.emplace_back(mix64(seed + 0x1000 + c));
}

namespace {

/** Interleaves kernel data references with kernel code lines. */
class KernelLineMixer : public LineDataEmitter
{
  public:
    KernelLineMixer(VirtualMemory &vm, const KernelParams &params,
                    const ZipfTable &shared_line,
                    const ZipfTable &per_cpu_line, NodeId cpu)
        : vm_(vm), params_(params), sharedLine_(shared_line),
          perCpuLine_(per_cpu_line), cpu_(cpu)
    {
    }

    void
    emitLineData(Rng &rng, RefQueue &out) override
    {
        double want = params_.dataRefsPerLine;
        while (want >= 1.0 || rng.chance(want)) {
            want -= 1.0;
            const bool shared = rng.chance(params_.lineSharedFraction);
            const bool store = rng.chance(params_.lineStoreFraction);
            Addr vaddr;
            if (shared) {
                vaddr = layout::kernelShared + sharedLine_(rng) * 64;
            } else {
                vaddr = layout::kernelPerCpu +
                        cpu_ * layout::kernelPerCpuStride +
                        perCpuLine_(rng) * 64;
            }
            const Addr paddr = vm_.translate(vaddr, cpu_);
            out.push_back(store ? storeRef(paddr, 0, true)
                                : loadRef(paddr, 0, true));
        }
    }

  private:
    VirtualMemory &vm_;
    const KernelParams &params_;
    const ZipfTable &sharedLine_;
    const ZipfTable &perCpuLine_;
    NodeId cpu_;
};

} // namespace

void
KernelModel::invokeFunctions(NodeId cpu, unsigned count, Rng &rng,
                             RefQueue &out)
{
    KernelLineMixer mixer(vm_, params_, sharedZipf_, perCpuZipf_, cpu);
    for (unsigned i = 0; i < count; ++i) {
        // Skewed choice: dispatch/scheduling routines dominate.
        const unsigned f = static_cast<unsigned>(functionZipf_(rng));
        instrs_ += code_->invoke(f, rng, vm_, cpu, /*kernel=*/true, out,
                                 &mixer);
    }
}

void
KernelModel::touchShared(NodeId cpu, unsigned refs, unsigned stores,
                         Rng &rng, RefQueue &out)
{
    for (unsigned i = 0; i < refs; ++i) {
        const std::uint64_t line = sharedZipf_(rng);
        const Addr paddr =
            vm_.translate(layout::kernelShared + line * 64, cpu);
        const bool store = i < stores;
        out.push_back(store ? storeRef(paddr, 0, true)
                            : loadRef(paddr, 0, true));
    }
}

void
KernelModel::touchPerCpu(NodeId cpu, unsigned refs, Rng &rng,
                         RefQueue &out)
{
    const Addr base =
        layout::kernelPerCpu + cpu * layout::kernelPerCpuStride;
    for (unsigned i = 0; i < refs; ++i) {
        const std::uint64_t line = perCpuZipf_(rng);
        const Addr paddr = vm_.translate(base + line * 64, cpu);
        // Context save/restore alternates loads and stores.
        out.push_back((i & 1) ? storeRef(paddr, 0, true)
                              : loadRef(paddr, 0, true));
    }
}

void
KernelModel::contextSwitch(NodeId cpu, RefQueue &out)
{
    Rng &rng = rngs_[cpu];
    invokeFunctions(cpu, params_.switchFunctions, rng, out);
    touchShared(cpu, params_.switchSharedRefs, params_.switchSharedStores,
                rng, out);
    touchPerCpu(cpu, params_.switchPrivateRefs, rng, out);
}

void
KernelModel::syscall(NodeId cpu, RefQueue &out,
                     std::uint64_t copy_bytes)
{
    Rng &rng = rngs_[cpu];
    invokeFunctions(cpu, params_.syscallFunctions, rng, out);
    touchShared(cpu, params_.syscallSharedRefs,
                params_.syscallSharedStores, rng, out);
    touchPerCpu(cpu, params_.syscallPrivateRefs, rng, out);

    if (copy_bytes > 0) {
        // Copy loop between a per-CPU kernel buffer and itself (the
        // user side is the caller's private memory; the caller emits
        // those references). One load + one store per line.
        const Addr base = layout::kernelPerCpu +
                          cpu * layout::kernelPerCpuStride +
                          params_.perCpuDataBytes;
        const std::uint64_t lines = divCeil(copy_bytes, 64);
        for (std::uint64_t i = 0; i < lines; ++i) {
            const Addr paddr = vm_.translate(base + (i % 64) * 64, cpu);
            out.push_back(loadRef(paddr, 0, true));
            out.push_back(storeRef(paddr, 0, true));
        }
    }
}

void
KernelModel::saveState(ckpt::Serializer &s) const
{
    s.u64(rngs_.size());
    for (const Rng &rng : rngs_)
        rng.saveState(s);
    s.u64(instrs_);
}

void
KernelModel::restoreState(ckpt::Deserializer &d)
{
    if (d.u64() != rngs_.size())
        isim_fatal("checkpoint kernel CPU count mismatch");
    for (Rng &rng : rngs_)
        rng.restoreState(d);
    instrs_ = d.u64();
}

} // namespace isim
