/**
 * @file
 * Code model implementation.
 */

#include "src/oltp/code_model.hh"

#include <algorithm>

#include "src/base/intmath.hh"
#include "src/base/logging.hh"

namespace isim {

CodeModel::CodeModel(const CodeModelParams &params) : params_(params)
{
    isim_assert(params_.textBytes > 0 && params_.numFunctions > 0);
    isim_assert(isPowerOf2(params_.lineBytes));
    const std::uint64_t total_lines =
        params_.textBytes / params_.lineBytes;
    isim_assert(total_lines >= params_.numFunctions);

    // Draw raw sizes with a skewed distribution (many small helpers, a
    // few large routines), then scale to exactly fill the text region.
    Rng rng(params_.seed);
    std::vector<double> raw(params_.numFunctions);
    double sum = 0.0;
    for (auto &r : raw) {
        // 2..6 lines base plus an occasionally-heavy tail.
        r = 2.0 + rng.uniform() * 4.0;
        if (rng.chance(0.15))
            r += rng.uniform() * 56.0;
        sum += r;
    }

    funcs_.resize(params_.numFunctions);
    std::uint64_t cursor = 0;
    for (unsigned f = 0; f < params_.numFunctions; ++f) {
        const std::uint64_t remaining_funcs = params_.numFunctions - f;
        const std::uint64_t remaining_lines = total_lines - cursor;
        std::uint64_t lines = static_cast<std::uint64_t>(
            raw[f] / sum * static_cast<double>(total_lines));
        lines = std::max<std::uint64_t>(lines, 1);
        // Never starve the remaining functions of their 1-line minimum.
        lines = std::min(lines, remaining_lines - (remaining_funcs - 1));
        funcs_[f] = Function{cursor, lines};
        cursor += lines;
    }
    // Give any rounding slack to the last function.
    funcs_.back().lines += total_lines - cursor;
}

Addr
CodeModel::functionVaddr(unsigned f) const
{
    return params_.vbase + funcs_[f].startLine * params_.lineBytes;
}

std::uint16_t
CodeModel::instrInLine(std::uint64_t line_index) const
{
    return static_cast<std::uint16_t>(
        params_.minInstrPerLine +
        mix64(line_index * 0x2545f491ULL + params_.seed) %
            params_.spanInstrPerLine);
}

std::uint64_t
CodeModel::invoke(unsigned f, Rng &rng, VirtualMemory &vm, NodeId node,
                  bool kernel, RefQueue &out,
                  LineDataEmitter *mixer) const
{
    isim_assert(f < funcs_.size());
    const Function &fn = funcs_[f];
    std::uint64_t path = fn.lines;
    if (!rng.chance(params_.fullPathProbability))
        path = 1 + rng.below(fn.lines);

    std::uint64_t instrs = 0;
    for (std::uint64_t i = 0; i < path; ++i) {
        const std::uint64_t line = fn.startLine + i;
        const Addr vaddr =
            params_.vbase + line * params_.lineBytes;
        const Addr paddr = vm.translate(vaddr, node);
        const std::uint16_t count = instrInLine(line);
        out.push_back(instrChunk(paddr, count, kernel));
        instrs += count;
        if (mixer != nullptr)
            mixer->emitLineData(rng, out);
    }
    return instrs;
}

double
CodeModel::meanInstrPerInvocation(unsigned f) const
{
    const Function &fn = funcs_[f];
    double full = 0.0;
    for (std::uint64_t i = 0; i < fn.lines; ++i)
        full += instrInLine(fn.startLine + i);
    // With probability p the full path runs; otherwise a uniform
    // partial prefix, whose expected length is (lines+1)/2.
    const double p = params_.fullPathProbability;
    const double partial_fraction =
        (static_cast<double>(fn.lines) + 1.0) /
        (2.0 * static_cast<double>(fn.lines));
    return full * (p + (1.0 - p) * partial_fraction);
}

} // namespace isim
