/**
 * @file
 * The kernel-activity model. Commercial workloads spend a large share
 * of their time in the operating system — the paper measures the
 * kernel at ~25% of total execution time for its OLTP runs and
 * stresses that full-system simulation (vs user-level traces) is
 * essential. This model supplies that activity: context-switch and
 * syscall paths with their own instruction footprint, per-CPU data,
 * and *shared* kernel structures whose updates produce communication
 * misses between nodes just like the SGA's.
 */

#ifndef ISIM_OS_KERNEL_HH
#define ISIM_OS_KERNEL_HH

#include <memory>
#include <vector>

#include "src/base/random.hh"
#include "src/ckpt/fwd.hh"
#include "src/oltp/code_model.hh"
#include "src/os/vm.hh"
#include "src/trace/record.hh"

namespace isim {

/** Footprint and path-length parameters of the kernel model. */
struct KernelParams
{
    std::uint64_t textBytes = 128 * kib;
    unsigned numFunctions = 48;
    std::uint64_t sharedDataBytes = 64 * kib;
    std::uint64_t perCpuDataBytes = 64 * kib;

    unsigned switchFunctions = 3;  //!< code paths per context switch
    unsigned switchSharedRefs = 10; //!< run-queue / proc-table touches
    unsigned switchSharedStores = 3;
    unsigned switchPrivateRefs = 24; //!< context save/restore
    unsigned syscallFunctions = 2;
    unsigned syscallSharedRefs = 4;
    unsigned syscallSharedStores = 1;
    unsigned syscallPrivateRefs = 8;
    unsigned copyLines = 4; //!< lines moved by a pipe read/write

    double sharedSkew = 0.85; //!< Zipf theta over shared kernel lines

    // Per-code-line data mix (see LineDataEmitter).
    double dataRefsPerLine = 1.5;
    double lineSharedFraction = 0.2; //!< of mixed refs: shared kernel data
    double lineStoreFraction = 0.3;
};

/**
 * Kernel path generator. One instance serves the whole machine; each
 * CPU has its own deterministic random stream.
 */
class KernelModel
{
  public:
    KernelModel(VirtualMemory &vm, unsigned num_cpus,
                const KernelParams &params, std::uint64_t seed);

    const CodeModel &code() const { return *code_; }
    const KernelParams &params() const { return params_; }

    /** Emit the scheduler/context-switch path for `cpu`. */
    void contextSwitch(NodeId cpu, RefQueue &out);

    /**
     * Emit a syscall path for `cpu` (pipe read/write, I/O submit).
     * `copy_bytes` adds a user/kernel copy loop of that size.
     */
    void syscall(NodeId cpu, RefQueue &out,
                 std::uint64_t copy_bytes = 0);

    /** Instructions emitted so far (for kernel-share calibration). */
    std::uint64_t instructionsEmitted() const { return instrs_; }

    /** Checkpoint the per-CPU RNG streams and instruction count. */
    void saveState(ckpt::Serializer &s) const;
    void restoreState(ckpt::Deserializer &d);

  private:
    void touchShared(NodeId cpu, unsigned refs, unsigned stores,
                     Rng &rng, RefQueue &out);
    void touchPerCpu(NodeId cpu, unsigned refs, Rng &rng,
                     RefQueue &out);
    void invokeFunctions(NodeId cpu, unsigned count, Rng &rng,
                         RefQueue &out);

    VirtualMemory &vm_;
    // ckpt: transient(params_): construction parameter, identical by contract
    KernelParams params_;
    // ckpt: transient(code_): stateless code-footprint model
    std::unique_ptr<CodeModel> code_;
    // ckpt: transient(sharedZipf_): derived from params_
    ZipfTable sharedZipf_;
    // ckpt: transient(perCpuZipf_): derived from params_
    ZipfTable perCpuZipf_;
    // ckpt: transient(functionZipf_): derived from params_
    ZipfTable functionZipf_;
    std::vector<Rng> rngs_;
    std::uint64_t instrs_ = 0;
};

} // namespace isim

#endif // ISIM_OS_KERNEL_HH
