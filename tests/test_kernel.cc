/**
 * @file
 * Unit tests for the kernel-activity model.
 */

#include <gtest/gtest.h>

#include <set>

#include "src/os/kernel.hh"
#include "src/os/layout.hh"

namespace isim {
namespace {

VmConfig
vmConfig(unsigned nodes)
{
    VmConfig c;
    c.homeMap = HomeMap{31, nodes};
    return c;
}

TEST(Kernel, ContextSwitchEmitsKernelRefs)
{
    VirtualMemory vm(vmConfig(2));
    KernelModel kernel(vm, 2, KernelParams{}, 42);
    RefQueue out;
    kernel.contextSwitch(0, out);
    ASSERT_FALSE(out.empty());
    bool saw_instr = false, saw_data = false, saw_store = false;
    for (const MemRef &r : out) {
        EXPECT_TRUE(r.kernel);
        saw_instr = saw_instr || r.kind == RefKind::Instr;
        saw_data = saw_data || r.kind != RefKind::Instr;
        saw_store = saw_store || r.kind == RefKind::Store;
    }
    EXPECT_TRUE(saw_instr);
    EXPECT_TRUE(saw_data);
    EXPECT_TRUE(saw_store);
    EXPECT_GT(kernel.instructionsEmitted(), 0u);
}

TEST(Kernel, SyscallCopyAddsTransferRefs)
{
    VirtualMemory vm(vmConfig(1));
    KernelModel kernel(vm, 1, KernelParams{}, 42);
    RefQueue without, with;
    kernel.syscall(0, without, 0);
    kernel.syscall(0, with, 1024);
    EXPECT_GT(with.size(), without.size());
}

TEST(Kernel, PerCpuStreamsAreIndependentAndDeterministic)
{
    VirtualMemory vm1(vmConfig(2)), vm2(vmConfig(2));
    KernelModel a(vm1, 2, KernelParams{}, 42);
    KernelModel b(vm2, 2, KernelParams{}, 42);
    RefQueue oa, ob;
    a.contextSwitch(0, oa);
    b.contextSwitch(0, ob);
    ASSERT_EQ(oa.size(), ob.size());
    for (std::size_t i = 0; i < oa.size(); ++i) {
        EXPECT_EQ(oa[i].paddr, ob[i].paddr);
        EXPECT_EQ(oa[i].kind, ob[i].kind);
    }
}

TEST(Kernel, InstructionFootprintIsBounded)
{
    VmConfig vc = vmConfig(1);
    VirtualMemory vm(vc);
    const KernelParams params;
    KernelModel kernel(vm, 1, params, 7);
    std::set<Addr> text_lines;
    RefQueue out;
    for (int i = 0; i < 200; ++i)
        kernel.contextSwitch(0, out);
    for (const MemRef &r : out) {
        if (r.kind == RefKind::Instr)
            text_lines.insert(r.paddr >> 6);
    }
    EXPECT_LE(text_lines.size() * 64, params.textBytes);
    EXPECT_GT(text_lines.size(), 16u);
}

TEST(Kernel, CodeComesFromKernelTextRegion)
{
    VirtualMemory vm(vmConfig(1));
    KernelModel kernel(vm, 1, KernelParams{}, 7);
    EXPECT_EQ(kernel.code().vbase(), layout::kernelText);
    EXPECT_EQ(kernel.code().textBytes(), KernelParams{}.textBytes);
}

} // namespace
} // namespace isim
