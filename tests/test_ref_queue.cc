/**
 * @file
 * Unit tests for RefQueue, the reference FIFO between the reference
 * producers and the simulation loop. This binary links the counting
 * operator new (tests/host_meter.hh), so it can show that a queue
 * that is refilled only once drained reuses its storage.
 */

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "src/trace/record.hh"
#include "tests/host_meter.hh"

namespace isim {
namespace {

std::vector<Addr>
addrsOf(const RefQueue &q)
{
    std::vector<Addr> out;
    for (const MemRef &r : q)
        out.push_back(r.paddr);
    return out;
}

TEST(RefQueue, FifoOrderIndexAndIterationAfterPartialDrain)
{
    RefQueue q;
    EXPECT_TRUE(q.empty());
    for (Addr a = 1; a <= 5; ++a)
        q.push_back(loadRef(a));
    EXPECT_EQ(q.size(), 5u);
    EXPECT_EQ(q.front().paddr, 1u);

    q.pop_front();
    q.pop_front();
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.front().paddr, 3u);
    EXPECT_EQ(q[0].paddr, 3u);
    EXPECT_EQ(q[2].paddr, 5u);
    EXPECT_EQ(addrsOf(q), (std::vector<Addr>{3, 4, 5}));

    // Appending behind a partly drained queue keeps FIFO order.
    q.push_back(loadRef(6));
    EXPECT_EQ(addrsOf(q), (std::vector<Addr>{3, 4, 5, 6}));
    for (Addr want = 3; want <= 6; ++want) {
        ASSERT_FALSE(q.empty());
        EXPECT_EQ(q.front().paddr, want);
        q.pop_front();
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.begin(), q.end());

    // A drained queue starts over from the front.
    q.push_back(loadRef(7));
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q[0].paddr, 7u);

    q.push_back(loadRef(8));
    q.clear();
    EXPECT_TRUE(q.empty());
}

/** Heap allocations made by `cycles` fill/drain cycles of `batch` refs. */
template <typename Queue>
std::size_t
allocationsOfCycles(Queue &q, int cycles, unsigned batch)
{
    const std::size_t before = heapAllocations();
    for (int c = 0; c < cycles; ++c) {
        for (unsigned i = 0; i < batch; ++i)
            q.push_back(loadRef(i));
        while (!q.empty())
            q.pop_front();
    }
    return heapAllocations() - before;
}

TEST(RefQueue, RefillAfterDrainAllocatesNothingAfterTheFirstBatch)
{
    RefQueue q;
    EXPECT_GT(allocationsOfCycles(q, 1, 64), 0u);
    EXPECT_EQ(allocationsOfCycles(q, 1000, 64), 0u);

    // The counter is live: a deque frees and re-allocates its blocks
    // as the same traffic passes through it.
    std::deque<MemRef> d;
    allocationsOfCycles(d, 1, 64);
    EXPECT_GT(allocationsOfCycles(d, 1000, 64), 0u);
}

} // namespace
} // namespace isim
