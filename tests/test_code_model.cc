/**
 * @file
 * Unit tests for the synthetic code-footprint model.
 */

#include <gtest/gtest.h>

#include <set>

#include "src/oltp/code_model.hh"

namespace isim {
namespace {

CodeModelParams
params()
{
    CodeModelParams p;
    p.vbase = 0x1000000;
    p.textBytes = 64 * kib;
    p.numFunctions = 16;
    p.seed = 99;
    return p;
}

VmConfig
vmConfig()
{
    VmConfig c;
    c.homeMap = HomeMap{31, 1};
    return c;
}

TEST(CodeModel, FunctionsTileTheTextExactly)
{
    CodeModel code(params());
    ASSERT_EQ(code.numFunctions(), 16u);
    std::uint64_t lines = 0;
    for (unsigned f = 0; f < code.numFunctions(); ++f) {
        EXPECT_GE(code.functionLines(f), 1u);
        lines += code.functionLines(f);
    }
    EXPECT_EQ(lines * 64, params().textBytes);
}

TEST(CodeModel, FunctionsAreContiguousAndOrdered)
{
    CodeModel code(params());
    Addr expected = params().vbase;
    for (unsigned f = 0; f < code.numFunctions(); ++f) {
        EXPECT_EQ(code.functionVaddr(f), expected);
        expected += code.functionLines(f) * 64;
    }
}

TEST(CodeModel, InvokeStaysInsideFunction)
{
    CodeModel code(params());
    VirtualMemory vm(vmConfig());
    Rng rng(5);
    for (unsigned f = 0; f < code.numFunctions(); ++f) {
        RefQueue out;
        const std::uint64_t instrs =
            code.invoke(f, rng, vm, 0, false, out);
        EXPECT_GT(instrs, 0u);
        ASSERT_FALSE(out.empty());
        EXPECT_LE(out.size(), code.functionLines(f));
        std::uint64_t sum = 0;
        for (const MemRef &r : out) {
            EXPECT_EQ(r.kind, RefKind::Instr);
            EXPECT_FALSE(r.kernel);
            sum += r.instrCount;
        }
        EXPECT_EQ(sum, instrs);
    }
}

TEST(CodeModel, LinesWalkSequentially)
{
    CodeModelParams p = params();
    p.fullPathProbability = 1.0; // always the full function
    CodeModel code(p);
    VirtualMemory vm(vmConfig());
    Rng rng(5);
    RefQueue out;
    code.invoke(3, rng, vm, 0, false, out);
    EXPECT_EQ(out.size(), code.functionLines(3));
    // Instruction chunk count per line is deterministic.
    RefQueue again;
    code.invoke(3, rng, vm, 0, false, again);
    ASSERT_EQ(again.size(), out.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i].instrCount, again[i].instrCount);
}

TEST(CodeModel, PartialPathsShortenInvocations)
{
    CodeModelParams p = params();
    p.fullPathProbability = 0.0;
    CodeModel code(p);
    VirtualMemory vm(vmConfig());
    Rng rng(5);
    // Find a function with more than 2 lines.
    unsigned f = 0;
    while (code.functionLines(f) < 3)
        ++f;
    std::set<std::size_t> lengths;
    for (int i = 0; i < 200; ++i) {
        RefQueue out;
        code.invoke(f, rng, vm, 0, false, out);
        lengths.insert(out.size());
        EXPECT_GE(out.size(), 1u);
        EXPECT_LE(out.size(), code.functionLines(f));
    }
    EXPECT_GT(lengths.size(), 1u);
}

TEST(CodeModel, MeanInstrPerInvocationBrackets)
{
    CodeModel code(params());
    VirtualMemory vm(vmConfig());
    Rng rng(5);
    const unsigned f = 2;
    double sum = 0.0;
    const int trials = 4000;
    for (int i = 0; i < trials; ++i) {
        RefQueue out;
        sum += static_cast<double>(
            code.invoke(f, rng, vm, 0, false, out));
    }
    EXPECT_NEAR(sum / trials, code.meanInstrPerInvocation(f),
                code.meanInstrPerInvocation(f) * 0.1);
}

/** Counting mixer used to verify the per-line hook. */
class CountingMixer : public LineDataEmitter
{
  public:
    void
    emitLineData(Rng &, RefQueue &out) override
    {
        ++calls;
        out.push_back(loadRef(0xdead000));
    }
    int calls = 0;
};

TEST(CodeModel, MixerCalledPerLine)
{
    CodeModelParams p = params();
    p.fullPathProbability = 1.0;
    CodeModel code(p);
    VirtualMemory vm(vmConfig());
    Rng rng(5);
    CountingMixer mixer;
    RefQueue out;
    code.invoke(4, rng, vm, 0, false, out, &mixer);
    EXPECT_EQ(mixer.calls,
              static_cast<int>(code.functionLines(4)));
    // Chunks and mixer refs interleave.
    EXPECT_EQ(out.size(), 2 * code.functionLines(4));
}

} // namespace
} // namespace isim
