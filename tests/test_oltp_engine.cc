/**
 * @file
 * Unit tests for the OLTP engine's building blocks: SGA layout,
 * latches, buffer-cache metadata traffic, and the redo log.
 */

#include <gtest/gtest.h>

#include "src/oltp/buffer_cache.hh"
#include "src/oltp/latch.hh"
#include "src/oltp/log.hh"
#include "src/oltp/sga.hh"
#include "src/os/layout.hh"

namespace isim {
namespace {

VmConfig
vmConfig()
{
    VmConfig c;
    c.homeMap = HomeMap{31, 2};
    return c;
}

TEST(Sga, LayoutIsOrderedAndSized)
{
    const WorkloadParams p;
    Sga sga(p);
    EXPECT_EQ(sga.blockAddr(0), layout::sgaBase);
    EXPECT_LT(sga.blockAddr(sga.numBlocks() - 1), sga.headerAddr(0));
    EXPECT_LT(sga.headerAddr(sga.numBlocks() - 1),
              sga.hashBucketAddr(0));
    EXPECT_LT(sga.hashBucketAddr(p.hashBuckets - 1),
              sga.lruListAddr(0));
    EXPECT_LT(sga.lruListAddr(sga.numLruLists() - 1), sga.latchAddr(0));
    EXPECT_LT(sga.latchAddr(p.numLatches - 1), sga.logSlotAddr(0));
    EXPECT_LT(sga.logCursorAddr(), sga.sharedMetadataAddr(0));
    EXPECT_LT(sga.sharedMetadataAddr(0), sga.warmMetadataAddr(0));
    // The paper's SGA: over 900MB total with a 100MB+ metadata area...
    EXPECT_GT(sga.totalBytes(), 800 * mib);
    // ...our metadata area scales with the block count.
    EXPECT_GT(sga.metadataBytes(), 48 * mib);
}

TEST(Sga, LatchesShareLines)
{
    const WorkloadParams p;
    Sga sga(p);
    // latchStride 32: latches 0 and 1 share a 64B line (false sharing).
    EXPECT_EQ(sga.latchAddr(0) >> 6, sga.latchAddr(1) >> 6);
    EXPECT_NE(sga.latchAddr(0) >> 6, sga.latchAddr(2) >> 6);
}

TEST(Sga, HashAndLatchMapping)
{
    const WorkloadParams p;
    Sga sga(p);
    EXPECT_LT(sga.bucketOf(12345), p.hashBuckets);
    const unsigned latch = sga.hashLatchOf(77);
    EXPECT_GE(latch, 16u);
    EXPECT_LT(latch, 16u + p.numHashLatches);
    EXPECT_NE(sga.redoAllocLatch(), sga.redoCopyLatch(0));
}

TEST(Sga, LogRingWraps)
{
    const WorkloadParams p;
    Sga sga(p);
    EXPECT_EQ(sga.logSlotAddr(0), sga.logSlotAddr(sga.logSlots()));
    EXPECT_NE(sga.logSlotAddr(0), sga.logSlotAddr(1));
}

TEST(Latch, AcquireIsLoadThenDependentStore)
{
    const WorkloadParams p;
    Sga sga(p);
    VirtualMemory vm(vmConfig());
    LatchTable latches(sga);
    RefQueue out;
    latches.emitAcquire(3, vm, 0, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].kind, RefKind::Load);
    EXPECT_EQ(out[1].kind, RefKind::Store);
    EXPECT_EQ(out[0].paddr, out[1].paddr);
    EXPECT_EQ(out[1].depDist, 1);
    EXPECT_EQ(latches.acquires(), 1u);

    out.clear();
    latches.emitRelease(3, vm, 0, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].kind, RefKind::Store);
}

TEST(BufferCache, LookupWalksHashChain)
{
    const WorkloadParams p;
    Sga sga(p);
    VirtualMemory vm(vmConfig());
    BufferCache bc(sga);
    RefQueue out;
    bc.emitLookupAndPin(1234, vm, 0, out);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].kind, RefKind::Load);  // bucket
    EXPECT_EQ(out[1].kind, RefKind::Load);  // header (chained)
    EXPECT_EQ(out[1].depDist, 1);
    EXPECT_EQ(out[2].kind, RefKind::Store); // pin
    EXPECT_EQ(out[1].paddr, out[2].paddr);
    EXPECT_EQ(bc.lookups(), 1u);
}

TEST(BufferCache, DirtyTracking)
{
    const WorkloadParams p;
    Sga sga(p);
    BufferCache bc(sga);
    bc.markDirty(10);
    bc.markDirty(11);
    bc.markDirty(10); // duplicate
    EXPECT_EQ(bc.dirtyCount(), 2u);
    const auto taken = bc.takeDirty(1);
    EXPECT_EQ(taken.size(), 1u);
    EXPECT_EQ(bc.dirtyCount(), 1u);
    const auto rest = bc.takeDirty(10);
    EXPECT_EQ(rest.size(), 1u);
    EXPECT_EQ(bc.dirtyCount(), 0u);
}

TEST(RedoLog, GenerationAdvancesCursorUnderLatches)
{
    const WorkloadParams p;
    Sga sga(p);
    VirtualMemory vm(vmConfig());
    LatchTable latches(sga);
    RedoLog redo(sga);
    RefQueue out;
    redo.emitRedoGeneration(0, 4, latches, vm, 0, out);
    EXPECT_EQ(redo.cursor(), 4u);
    EXPECT_EQ(redo.unflushed(), 4u);
    EXPECT_EQ(latches.acquires(), 2u); // copy + alloc latch
    // The shared cursor word is read and written.
    const Addr cursor_pa = vm.translate(sga.logCursorAddr(), 0);
    int cursor_touches = 0;
    for (const MemRef &r : out)
        cursor_touches += r.paddr == cursor_pa;
    EXPECT_EQ(cursor_touches, 2);
}

TEST(RedoLog, FlushBounded)
{
    const WorkloadParams p;
    Sga sga(p);
    VirtualMemory vm(vmConfig());
    LatchTable latches(sga);
    RedoLog redo(sga);
    RefQueue out;
    redo.emitRedoGeneration(0, 10, latches, vm, 0, out);
    out.clear();
    EXPECT_EQ(redo.emitFlush(4, vm, 0, out), 4u);
    EXPECT_EQ(out.size(), 4u);
    EXPECT_EQ(redo.unflushed(), 6u);
    EXPECT_EQ(redo.emitFlush(100, vm, 0, out), 6u);
    EXPECT_EQ(redo.unflushed(), 0u);
    EXPECT_EQ(redo.emitFlush(100, vm, 0, out), 0u);
}

} // namespace
} // namespace isim
