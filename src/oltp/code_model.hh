/**
 * @file
 * Synthetic executable image: the instruction-footprint model.
 *
 * OLTP's defining memory-system property is a huge instruction
 * footprint (the Oracle server binary) that overwhelms a 64 KB L1I and
 * lives in the L2 — the paper's execution breakdowns show L2-hit time
 * as a dominant component for exactly this reason. This model carves a
 * text region into functions of varied sizes; invoking a function
 * emits instruction-chunk references walking the function's cache
 * lines in order (with per-invocation partial paths for branchiness).
 * Which functions are invoked — and with what skew — is decided by the
 * callers (transaction phases, kernel paths), giving a stable, highly
 * reused, Zipf-weighted line working set: the ingredients of realistic
 * conflict-miss behaviour in direct-mapped caches.
 */

#ifndef ISIM_OLTP_CODE_MODEL_HH
#define ISIM_OLTP_CODE_MODEL_HH

#include <cstdint>
#include <vector>

#include "src/base/random.hh"
#include "src/base/types.hh"
#include "src/os/vm.hh"
#include "src/trace/record.hh"

namespace isim {

/** Construction parameters of a code image. */
struct CodeModelParams
{
    Addr vbase = 0;
    std::uint64_t textBytes = 0;
    unsigned numFunctions = 0;
    unsigned lineBytes = 64;
    unsigned minInstrPerLine = 10; //!< per-line instruction counts are
    unsigned spanInstrPerLine = 7; //!< min + hash(line) % span
    double fullPathProbability = 0.6; //!< else a partial path
    std::uint64_t seed = 1;
};

/**
 * Hook invoked after each emitted code line so callers can interleave
 * the data references that the line's instructions would perform
 * (stack traffic, SGA metadata reads, block re-reads). This is what
 * gives the workload a realistic data-reference-per-instruction ratio.
 */
class LineDataEmitter
{
  public:
    virtual ~LineDataEmitter() = default;
    virtual void emitLineData(Rng &rng, RefQueue &out) = 0;
};

/** A synthetic executable image. */
class CodeModel
{
  public:
    explicit CodeModel(const CodeModelParams &params);

    Addr vbase() const { return params_.vbase; }
    std::uint64_t textBytes() const { return params_.textBytes; }
    unsigned numFunctions() const
    {
        return static_cast<unsigned>(funcs_.size());
    }
    std::uint64_t functionLines(unsigned f) const { return funcs_[f].lines; }

    /** Virtual address of the function's first line (for tests). */
    Addr functionVaddr(unsigned f) const;

    /**
     * Emit one invocation of function `f`: instruction chunks walking
     * its lines, translated through `vm` for the executing `node`.
     * Returns the number of instructions emitted.
     */
    std::uint64_t invoke(unsigned f, Rng &rng, VirtualMemory &vm,
                         NodeId node, bool kernel,
                         RefQueue &out,
                         LineDataEmitter *mixer = nullptr) const;

    /** Mean instructions per full execution of function `f`. */
    double meanInstrPerInvocation(unsigned f) const;

  private:
    struct Function
    {
        std::uint64_t startLine; //!< offset from vbase, in lines
        std::uint64_t lines;
    };

    std::uint16_t instrInLine(std::uint64_t line_index) const;

    CodeModelParams params_;
    std::vector<Function> funcs_;
};

} // namespace isim

#endif // ISIM_OLTP_CODE_MODEL_HH
