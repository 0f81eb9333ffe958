/**
 * @file
 * Checkpoint/restore tests: round-trip digests, bit-identical
 * continued execution, byte-identical figure output from a warm
 * restore, latency-override restores, corrupt-input robustness
 * (truncation, bad magic, wrong version, flipped payload bytes,
 * forged directory and balance lists and forged SIMU and VMEM counts
 * must all fail with a clean PanicError, never undefined behaviour),
 * the read-only legacy META warm-up mode byte, the CRC-32 against a
 * bytewise reference and its folded path against its portable one,
 * the one-allocation bound on an image's size, a restore that reads
 * the image in place, and the warm-image pipeline's speed gate.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "src/base/logging.hh"
#include "src/base/random.hh"
#include "src/ckpt/checkpoint.hh"
#include "src/ckpt/serializer.hh"
#include "src/coherence/directory.hh"
#include "src/config/fields.hh"
#include "src/config/options.hh"
#include "src/core/experiment.hh"
#include "src/core/figures.hh"
#include "src/core/machine.hh"
#include "src/core/registry.hh"
#include "src/core/report.hh"
#include "src/cpu/core.hh"
#include "src/oltp/sga.hh"
#include "tests/host_meter.hh"

namespace isim {
namespace {

/** A small machine that still exercises commits, daemons and paging. */
MachineConfig
smallConfig(std::uint64_t seed, CpuModel model = CpuModel::InOrder,
            unsigned cpus = 2)
{
    MachineConfig cfg;
    cfg.name = "ckpt-test";
    cfg.numCpus = cpus;
    cfg.cpuModel = model;
    cfg.l2 = CacheGeometry{512 * kib, 2, 64};
    cfg.l2Impl = L2Impl::OffchipAssoc;
    cfg.workload.branches = 8;
    cfg.workload.accountsPerBranch = 10000;
    cfg.workload.blockBufferBytes = 64 * mib;
    cfg.workload.transactions = 30;
    cfg.workload.warmupTransactions = 12;
    cfg.workload.seed = seed;
    return cfg;
}

std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** Bit-exact snapshot equality (NaN quantiles compare by pattern). */
void
expectSameSnapshot(const stats::Snapshot &a, const stats::Snapshot &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].u, b[i].u) << a[i].name;
        EXPECT_EQ(doubleBits(a[i].d), doubleBits(b[i].d)) << a[i].name;
        EXPECT_EQ(a[i].dist.count, b[i].dist.count) << a[i].name;
        EXPECT_EQ(doubleBits(a[i].dist.sum), doubleBits(b[i].dist.sum))
            << a[i].name;
        EXPECT_EQ(doubleBits(a[i].dist.mean), doubleBits(b[i].dist.mean))
            << a[i].name;
        EXPECT_EQ(a[i].dist.min, b[i].dist.min) << a[i].name;
        EXPECT_EQ(a[i].dist.max, b[i].dist.max) << a[i].name;
        EXPECT_EQ(doubleBits(a[i].dist.p50), doubleBits(b[i].dist.p50))
            << a[i].name;
        EXPECT_EQ(doubleBits(a[i].dist.p95), doubleBits(b[i].dist.p95))
            << a[i].name;
        EXPECT_EQ(doubleBits(a[i].dist.p99), doubleBits(b[i].dist.p99))
            << a[i].name;
    }
}

TEST(Checkpoint, RoundTripDigestIdentical)
{
    setQuiet(true);
    // Property: restore(save(M)) encodes back to the same bytes, for
    // warm machines of both CPU models across several seeds.
    for (const CpuModel model :
         {CpuModel::InOrder, CpuModel::OutOfOrder}) {
        for (const std::uint64_t seed : {7ull, 1234ull, 0xdeadbeefull}) {
            Machine m(smallConfig(seed, model));
            m.runWarmup();
            const std::vector<std::uint8_t> image = m.checkpointBytes();
            const std::unique_ptr<Machine> restored =
                Machine::fromCheckpointBytes(image);
            EXPECT_EQ(m.stateDigest(), restored->stateDigest())
                << "model=" << cpuModelName(model) << " seed=" << seed;
            EXPECT_EQ(image, restored->checkpointBytes());
        }
    }
}

TEST(Checkpoint, ContinuedExecutionBitIdentical)
{
    setQuiet(true);
    // The core contract: measuring from a restored image must produce
    // exactly the run the cold machine produces after its warm-up.
    Machine cold(smallConfig(42));
    cold.runWarmup();
    const std::vector<std::uint8_t> image = cold.checkpointBytes();
    const RunResult a = cold.runMeasurement();

    const std::unique_ptr<Machine> warm =
        Machine::fromCheckpointBytes(image);
    const RunResult b = warm->runMeasurement();

    EXPECT_EQ(a.transactions, b.transactions);
    EXPECT_EQ(a.wallTime, b.wallTime);
    EXPECT_EQ(a.stat("cpu.busy"), b.stat("cpu.busy"));
    EXPECT_EQ(a.stat("cpu.idle"), b.stat("cpu.idle"));
    EXPECT_EQ(a.stat("cpu.kernel_time"), b.stat("cpu.kernel_time"));
    EXPECT_EQ(a.stat("cpu.instructions"), b.stat("cpu.instructions"));
    EXPECT_EQ(a.stat("l2.miss.total"), b.stat("l2.miss.total"));
    EXPECT_EQ(a.stat("l2.miss.remote_dirty"),
              b.stat("l2.miss.remote_dirty"));
    EXPECT_EQ(a.stat("l2.invals_sent"), b.stat("l2.invals_sent"));
    EXPECT_EQ(a.dbConsistent, b.dbConsistent);
    expectSameSnapshot(a.stats, b.stats);
}

TEST(Checkpoint, SaveFileRestoreAndDigest)
{
    setQuiet(true);
    const std::string path = ::testing::TempDir() + "/isim_ckpt_rt.ckpt";
    Machine m(smallConfig(99, CpuModel::OutOfOrder, 1));
    m.runWarmup();
    m.saveCheckpoint(path);
    const std::unique_ptr<Machine> restored =
        Machine::fromCheckpoint(path);
    EXPECT_EQ(m.stateDigest(), restored->stateDigest());
    EXPECT_TRUE(restored->isWarm());
    EXPECT_EQ(restored->warmupEndTime(), m.warmupEndTime());
    std::filesystem::remove(path);
}

TEST(Checkpoint, LatencyOverrideRestoreMeasuresFaster)
{
    setQuiet(true);
    // The SimOS use case: one warm image seeds measurement runs of
    // several latency configurations. The override changes only the
    // latency table, so the run completes and full integration beats
    // the base machine it was warmed as.
    const std::string path =
        ::testing::TempDir() + "/isim_ckpt_lat.ckpt";
    MachineConfig cfg = smallConfig(7, CpuModel::InOrder, 1);
    cfg.level = IntegrationLevel::Base;
    cfg.l2Impl = L2Impl::OffchipDirect;
    Machine m(cfg);
    m.runWarmup();
    m.saveCheckpoint(path);
    const RunResult base = m.runMeasurement();

    const std::unique_ptr<Machine> full = Machine::fromCheckpoint(
        path, IntegrationLevel::FullInt, L2Impl::OnchipSram);
    EXPECT_EQ(full->config().level, IntegrationLevel::FullInt);
    const RunResult fast = full->runMeasurement();
    EXPECT_EQ(base.transactions, fast.transactions);
    EXPECT_LT(fast.stat("cpu.exec_time"), base.stat("cpu.exec_time"));
    std::filesystem::remove(path);
}

TEST(Checkpoint, FigureRunsByteIdenticalFromWarmRestore)
{
    setQuiet(true);
    // Acceptance contract on two registry figures: --save-ckpt then
    // --from-ckpt produces byte-identical figure JSON and stats
    // manifests to the cold run that wrote the images.
    const std::string dir = ::testing::TempDir() + "/isim_ckpt_figs";
    std::filesystem::create_directories(dir);

    RunOptions base;
    base.txns = 40;
    base.warmup = 10;
    base.seed = 7;
    base.jobs = 1;
    base.verbose = false;

    for (const char *id : {"fig05", "fig07"}) {
        const FigureEntry *entry = FigureRegistry::instance().find(id);
        ASSERT_NE(entry, nullptr) << id;
        const FigureSpec spec = entry->make();

        RunOptions saveOpts = base;
        saveOpts.saveCkptDir = dir;
        const FigureResult cold = runFigures({spec}, saveOpts).front();

        RunOptions loadOpts = base;
        loadOpts.fromCkptDir = dir;
        const FigureResult warm = runFigures({spec}, loadOpts).front();

        EXPECT_EQ(figureToJson(cold), figureToJson(warm)) << id;
        EXPECT_EQ(figureStatsJson(cold), figureStatsJson(warm)) << id;
    }
    std::filesystem::remove_all(dir);
}

TEST(Checkpoint, RunnerRejectsMismatchedConfig)
{
    setQuiet(true);
    // Restoring an image under different workload knobs would compare
    // incomparable runs; the runner must refuse, not silently measure.
    const std::string dir = ::testing::TempDir() + "/isim_ckpt_mismatch";
    std::filesystem::create_directories(dir);
    const MachineConfig cfg = smallConfig(7, CpuModel::InOrder, 1);
    {
        Machine m(cfg);
        m.runWarmup();
        m.saveCheckpoint(checkpointPath(dir, cfg.name));
    }
    RunOptions opts;
    opts.verbose = false;
    opts.fromCkptDir = dir;
    opts.txns = 999; // differs from the image's transaction count
    const ScopedPanicThrow guard;
    FigureSpec spec;
    spec.bars.push_back({cfg, std::nullopt, std::nullopt});
    EXPECT_THROW(runFigures({spec}, opts), PanicError);
    std::filesystem::remove_all(dir);
}

class CheckpointCorruption : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        setQuiet(true);
        Machine m(smallConfig(3, CpuModel::InOrder, 1));
        m.runWarmup();
        image_ = m.checkpointBytes();
        ASSERT_GT(image_.size(), 64u);
    }

    std::vector<std::uint8_t> image_;
};

/** Little-endian field of `n` bytes at `at` (the image encoding). */
std::uint64_t
readLe(const std::vector<std::uint8_t> &b, std::size_t at, unsigned n)
{
    std::uint64_t v = 0;
    for (unsigned i = n; i-- > 0;)
        v = v << 8 | b[at + i];
    return v;
}

void
writeLe(std::vector<std::uint8_t> &b, std::size_t at, unsigned n,
        std::uint64_t v)
{
    for (unsigned i = 0; i < n; ++i)
        b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/** Offset of a section's header (tag, u64 length, u32 CRC). */
std::size_t
sectionHeaderAt(const std::vector<std::uint8_t> &image, std::uint32_t tag)
{
    std::size_t at = ckpt::magicBytes + 4; // magic + format version
    while (readLe(image, at, 4) != tag)
        at += 16 + readLe(image, at + 4, 8);
    return at;
}

/** Recompute the stored CRC of the section whose header is at `header`. */
void
reCrc(std::vector<std::uint8_t> &image, std::size_t header)
{
    writeLe(image, header + 12, 4,
            ckpt::crc32(image.data() + header + 16,
                        readLe(image, header + 4, 8)));
}

/**
 * The image with a 9th META byte appended, as images written while an
 * atomic warm-up existed carried (the producing warm-up mode).
 */
std::vector<std::uint8_t>
withMetaModeByte(std::vector<std::uint8_t> image, std::uint8_t mode)
{
    const std::size_t header = sectionHeaderAt(image, ckpt::tagMeta);
    const std::size_t payload = header + 16;
    const std::uint64_t len = readLe(image, header + 4, 8) + 1;
    image.insert(image.begin() +
                     static_cast<std::ptrdiff_t>(payload + len - 1),
                 mode);
    writeLe(image, header + 4, 8, len);
    reCrc(image, header);
    return image;
}

/** The isim_fatal message a restore of `image` raises ("" = none). */
std::string
restoreError(const std::vector<std::uint8_t> &image)
{
    try {
        Machine::fromCheckpointBytes(image);
    } catch (const PanicError &e) {
        return e.what();
    }
    return "";
}

TEST_F(CheckpointCorruption, EightByteMetaRestores)
{
    const ScopedPanicThrow guard;
    EXPECT_EQ(readLe(image_, sectionHeaderAt(image_, ckpt::tagMeta) + 4, 8),
              8u);
    const auto restored = Machine::fromCheckpointBytes(image_);
    EXPECT_EQ(restored->checkpointBytes(), image_);
}

TEST_F(CheckpointCorruption, LegacyMetaModeByteTimingRestores)
{
    const ScopedPanicThrow guard;
    const auto restored =
        Machine::fromCheckpointBytes(withMetaModeByte(image_, 0));
    // Re-saved without the legacy byte: the current image exactly.
    EXPECT_EQ(restored->checkpointBytes(), image_);
}

TEST_F(CheckpointCorruption, LegacyMetaModeByteAtomicIsRefused)
{
    const ScopedPanicThrow guard;
    const std::string err = restoreError(withMetaModeByte(image_, 1));
    EXPECT_NE(err.find("removed atomic warm-up; rebuild the image"),
              std::string::npos)
        << err;
}

TEST_F(CheckpointCorruption, LegacyMetaModeByteOutOfRangeIsCorrupt)
{
    const ScopedPanicThrow guard;
    const std::string err = restoreError(withMetaModeByte(image_, 2));
    EXPECT_NE(err.find("warm-up exec mode value 2 out of range"),
              std::string::npos)
        << err;
}

TEST_F(CheckpointCorruption, ModelConstantSlotOtherValueIsCorrupt)
{
    const ScopedPanicThrow guard;
    // The node-window slot is the last keyless CONF row; everything
    // after it is fixed width, so it sits a known distance before the
    // end of the CONF payload.
    const auto fields = machineFields();
    std::size_t row = fields.size();
    while (fields[--row].key != nullptr) {
    }
    ASSERT_EQ(fields[row].min, nodeWindowBits);
    std::size_t tail = 0;
    for (std::size_t i = row + 1; i < fields.size(); ++i) {
        tail += std::visit(
            [](const auto *p) -> std::size_t {
                using T = std::remove_cvref_t<decltype(*p)>;
                return std::is_same_v<T, unsigned> ? 4
                       : std::is_same_v<T, std::uint64_t> ||
                               std::is_same_v<T, double>
                           ? 8
                           : 1; // bool, enum
            },
            fields[i].in(MachineConfig{}));
    }
    std::vector<std::uint8_t> bad = image_;
    const std::size_t header = ckpt::magicBytes + 4; // CONF comes first
    const std::size_t payload = header + 16;
    const std::uint64_t len = readLe(bad, header + 4, 8);
    const std::size_t slot = payload + len - tail - 4;
    ASSERT_EQ(readLe(bad, slot, 4), nodeWindowBits);
    writeLe(bad, slot, 4, nodeWindowBits - 1);
    reCrc(bad, header);
    const std::string err = restoreError(bad);
    EXPECT_NE(err.find("checkpoint corrupt: CONF slot " +
                       std::to_string(row) +
                       " is 30, but the model fixes it at 31"),
              std::string::npos)
        << err;
}

/**
 * The MEMS section's directory list: offset of its u64 entry count
 * (entries of 17 bytes follow: u64 line, u8 state, u32 sharers, u32
 * owner). The list follows six NoC/transition counters and the
 * per-node memory-controller horizons.
 */
std::size_t
directoryCountAt(const std::vector<std::uint8_t> &image)
{
    const std::size_t payload =
        sectionHeaderAt(image, ckpt::tagMemSys) + 16;
    const std::uint64_t controllers = readLe(image, payload + 48, 8);
    return payload + 56 + 8 * controllers;
}

constexpr std::size_t kDirEntryBytes = 17;

TEST_F(CheckpointCorruption, DuplicateDirectoryEntryIsCorrupt)
{
    const ScopedPanicThrow guard;
    std::vector<std::uint8_t> bad = image_;
    const std::size_t count_at = directoryCountAt(bad);
    ASSERT_GE(readLe(bad, count_at, 8), 2u);
    const std::size_t first = count_at + 8;
    writeLe(bad, first + kDirEntryBytes, 8, readLe(bad, first, 8));
    reCrc(bad, sectionHeaderAt(bad, ckpt::tagMemSys));
    const std::string err = restoreError(bad);
    EXPECT_NE(err.find("checkpoint corrupt: directory line"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("increasing order"), std::string::npos) << err;
}

TEST_F(CheckpointCorruption, ForgedDirectoryCountIsCorrupt)
{
    const ScopedPanicThrow guard;
    std::vector<std::uint8_t> bad = image_;
    writeLe(bad, directoryCountAt(bad), 8, std::uint64_t{1} << 60);
    reCrc(bad, sectionHeaderAt(bad, ckpt::tagMemSys));
    const std::string err = restoreError(bad);
    EXPECT_NE(err.find("checkpoint corrupt: directory claims " +
                       std::to_string(std::uint64_t{1} << 60) +
                       " entries"),
              std::string::npos)
        << err;
}

TEST_F(CheckpointCorruption, DirectoryLineOutsideMemoryIsCorrupt)
{
    const ScopedPanicThrow guard;
    // One node: installed memory is one window of 64-byte lines.
    const Addr first_outside = (Addr{1} << nodeWindowBits) >> 6;
    for (const Addr line : {first_outside, ~Addr{0}}) {
        std::vector<std::uint8_t> bad = image_;
        const std::size_t count_at = directoryCountAt(bad);
        const std::uint64_t count = readLe(bad, count_at, 8);
        ASSERT_GE(count, 1u);
        // The last entry, so the list stays in increasing order.
        writeLe(bad, count_at + 8 + (count - 1) * kDirEntryBytes, 8, line);
        reCrc(bad, sectionHeaderAt(bad, ckpt::tagMemSys));
        const std::string err = restoreError(bad);
        EXPECT_NE(err.find("checkpoint corrupt: directory line"),
                  std::string::npos)
            << err;
        EXPECT_NE(err.find("outside installed memory (1 nodes)"),
                  std::string::npos)
            << err;
    }
}

/**
 * The OLTP section's account table: offset of its u64 nonzero-row
 * count (rows of 16 bytes follow: u64 row, i64 balance). The three
 * balance tables follow the engine's counters and latency histogram;
 * they are found as three consecutive runs of (u64 row count, u64
 * nonzero count, nonzero x 16 bytes) with the account, teller and
 * branch row counts.
 */
std::size_t
accountCountAt(const std::vector<std::uint8_t> &image)
{
    const WorkloadParams p = smallConfig(3, CpuModel::InOrder, 1).workload;
    const std::size_t header = sectionHeaderAt(image, ckpt::tagOltp);
    const std::size_t end = header + 16 + readLe(image, header + 4, 8);
    for (std::size_t at = header + 16; at + 16 <= end; ++at) {
        std::size_t next = at;
        bool tables = true;
        for (const std::uint64_t rows :
             {p.totalAccounts(), p.totalTellers(),
              std::uint64_t{p.branches}}) {
            tables = next + 16 <= end && readLe(image, next, 8) == rows &&
                     readLe(image, next + 8, 8) <= (end - next - 16) / 16;
            if (!tables)
                break;
            next += 16 + 16 * readLe(image, next + 8, 8);
        }
        if (tables)
            return at + 8;
    }
    ADD_FAILURE() << "no balance tables in the OLTP section";
    return 0;
}

TEST_F(CheckpointCorruption, ForgedAccountCountIsCorrupt)
{
    const ScopedPanicThrow guard;
    std::vector<std::uint8_t> bad = image_;
    writeLe(bad, accountCountAt(bad), 8, std::uint64_t{1} << 60);
    reCrc(bad, sectionHeaderAt(bad, ckpt::tagOltp));
    const std::string err = restoreError(bad);
    EXPECT_NE(err.find("checkpoint corrupt: account table claims " +
                       std::to_string(std::uint64_t{1} << 60) +
                       " nonzero rows"),
              std::string::npos)
        << err;
}

TEST_F(CheckpointCorruption, RepeatedAccountRowIsCorrupt)
{
    const ScopedPanicThrow guard;
    std::vector<std::uint8_t> bad = image_;
    const std::size_t count_at = accountCountAt(bad);
    ASSERT_GE(readLe(bad, count_at, 8), 2u);
    const std::uint64_t first = readLe(bad, count_at + 8, 8);
    writeLe(bad, count_at + 8 + 16, 8, first);
    reCrc(bad, sectionHeaderAt(bad, ckpt::tagOltp));
    const std::string err = restoreError(bad);
    const std::string row = std::to_string(first);
    EXPECT_NE(err.find("checkpoint corrupt: account row " + row +
                       " does not follow row " + row +
                       " in increasing order"),
              std::string::npos)
        << err;
}

TEST_F(CheckpointCorruption, ZeroAccountBalanceIsCorrupt)
{
    const ScopedPanicThrow guard;
    std::vector<std::uint8_t> bad = image_;
    const std::size_t count_at = accountCountAt(bad);
    ASSERT_GE(readLe(bad, count_at, 8), 1u);
    writeLe(bad, count_at + 8 + 8, 8, 0);
    reCrc(bad, sectionHeaderAt(bad, ckpt::tagOltp));
    const std::string err = restoreError(bad);
    EXPECT_NE(err.find("checkpoint corrupt: account row " +
                       std::to_string(readLe(bad, count_at + 8, 8)) +
                       " has a zero balance"),
              std::string::npos)
        << err;
}

TEST_F(CheckpointCorruption, ForgedSimLoopCpuCountIsCorrupt)
{
    const ScopedPanicThrow guard;
    std::vector<std::uint8_t> bad = image_;
    // SIMU: u64 step count, then the u64 CPU count.
    const std::size_t header = sectionHeaderAt(bad, ckpt::tagSimLoop);
    writeLe(bad, header + 16 + 8, 8, std::uint64_t{1} << 60);
    reCrc(bad, header);
    const std::string err = restoreError(bad);
    EXPECT_NE(err.find("checkpoint corrupt: SIMU section has " +
                       std::to_string(std::uint64_t{1} << 60) +
                       " CPUs, machine has 1"),
              std::string::npos)
        << err;
}

TEST_F(CheckpointCorruption, ForgedReplicatedCopyCountIsCorrupt)
{
    const ScopedPanicThrow guard;
    MachineConfig cfg = smallConfig(3);
    cfg.replicateCode = true; // two nodes, code pages replicated
    Machine m(cfg);
    m.runWarmup();
    std::vector<std::uint8_t> bad = m.checkpointBytes();
    // VMEM: the RNG's four words, the per-node allocation counts, the
    // page table (u64 count, 16-byte entries), then the replicated
    // pages: u64 count, and for each a u64 vpn and a u64 copy count.
    const std::size_t header = sectionHeaderAt(bad, ckpt::tagVm);
    const std::size_t nodes_at = header + 16 + 32;
    ASSERT_EQ(readLe(bad, nodes_at, 8), 2u);
    const std::size_t pages_at = nodes_at + 8 + 2 * 8;
    const std::size_t repl_at = pages_at + 8 + 16 * readLe(bad, pages_at, 8);
    ASSERT_GE(readLe(bad, repl_at, 8), 1u);
    ASSERT_EQ(readLe(bad, repl_at + 16, 8), 2u);
    writeLe(bad, repl_at + 16, 8, std::uint64_t{1} << 60);
    reCrc(bad, header);
    const std::string err = restoreError(bad);
    EXPECT_NE(err.find("checkpoint corrupt: VMEM replicated page"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find(" has " + std::to_string(std::uint64_t{1} << 60) +
                       " copies, machine has 2 nodes"),
              std::string::npos)
        << err;
}

/**
 * Offset of server 0's u64 lastBlockTouched_ in the SCHD section; its
 * u32 lastRowLine_ and u64 warmCursor_ follow. SCHD opens with three
 * u64 counters. Server 0 is the first process: u32 pid, u8 sched state,
 * u64 wake time, its queued references (u64 count, 13 bytes each), the
 * RNG's four words, u8 phase, u64 txns, u64 txn start, a bool, and the
 * four u64 transaction operands.
 */
std::size_t
serverCursorsAt(const std::vector<std::uint8_t> &image)
{
    const std::size_t process =
        sectionHeaderAt(image, ckpt::tagSched) + 16 + 24;
    EXPECT_EQ(readLe(image, process, 4), 0u); // pid 0
    const std::size_t pending_at = process + 4 + 1 + 8;
    return pending_at + 8 + 13 * readLe(image, pending_at, 8) + 32 + 1 +
           8 + 8 + 1 + 32;
}

/**
 * Forging server 0's field at `offset` (from serverCursorsAt, `bytes`
 * wide) to `bound` or above is an isim_fatal naming field and value.
 */
void
expectServerFieldRefused(const std::vector<std::uint8_t> &image,
                         const std::string &name, std::size_t offset,
                         unsigned bytes, std::uint64_t bound)
{
    const std::size_t at = serverCursorsAt(image) + offset;
    // The image's own value is in range, so the offset is right.
    ASSERT_LT(readLe(image, at, bytes), bound) << name;
    for (const std::uint64_t forged : {bound, std::uint64_t{0xffffffff}}) {
        std::vector<std::uint8_t> bad = image;
        writeLe(bad, at, bytes, forged);
        reCrc(bad, sectionHeaderAt(bad, ckpt::tagSched));
        const std::string err = restoreError(bad);
        EXPECT_NE(err.find("checkpoint corrupt: server 0 " + name + " " +
                           std::to_string(forged) + " is not below " +
                           std::to_string(bound)),
                  std::string::npos)
            << err;
    }
}

TEST_F(CheckpointCorruption, ServerLastBlockOutsideSgaIsCorrupt)
{
    const ScopedPanicThrow guard;
    const WorkloadParams p = smallConfig(3, CpuModel::InOrder, 1).workload;
    expectServerFieldRefused(image_, "lastBlockTouched", 0, 8,
                             Sga(p).numBlocks());
}

TEST_F(CheckpointCorruption, ServerRowLineOutsideBlockIsCorrupt)
{
    const ScopedPanicThrow guard;
    const WorkloadParams p = smallConfig(3, CpuModel::InOrder, 1).workload;
    expectServerFieldRefused(image_, "lastRowLine", 8, 4,
                             p.blockBytes / 64);
}

TEST_F(CheckpointCorruption, ServerWarmCursorOutsideBandIsCorrupt)
{
    const ScopedPanicThrow guard;
    const WorkloadParams p = smallConfig(3, CpuModel::InOrder, 1).workload;
    expectServerFieldRefused(image_, "warmCursor", 12, 8,
                             p.warmMetadataBytes / 64);
}

/** The textbook bytewise CRC-32, kept here as the reference. */
std::uint32_t
bytewiseCrc32(const std::uint8_t *data, std::size_t size)
{
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < size; ++i) {
        crc ^= data[i];
        for (int k = 0; k < 8; ++k)
            crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
    return crc ^ 0xffffffffu;
}

TEST(Crc32, KnownAnswerAndBytewiseReference)
{
    const std::string check = "123456789";
    EXPECT_EQ(ckpt::crc32(reinterpret_cast<const std::uint8_t *>(
                              check.data()),
                          check.size()),
              0xcbf43926u);

    Rng rng(20);
    std::vector<std::uint8_t> buf(std::size_t{1} << 20);
    for (std::uint8_t &byte : buf)
        byte = static_cast<std::uint8_t>(rng.next());
    // Every start alignment and every tail length of the word loop.
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t len = 0; len <= 64; ++len) {
            EXPECT_EQ(ckpt::crc32(buf.data() + offset, len),
                      bytewiseCrc32(buf.data() + offset, len))
                << "offset " << offset << ", length " << len;
        }
    }
    EXPECT_EQ(ckpt::crc32(buf.data(), buf.size()),
              bytewiseCrc32(buf.data(), buf.size()));
}

/** Random bytes from a fixed seed. */
std::vector<std::uint8_t>
randomBytes(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> buf(n);
    for (std::uint8_t &byte : buf)
        byte = static_cast<std::uint8_t>(rng.next());
    return buf;
}

// Both paths give the check value. Then the folded path against the
// portable one: every length up to 4 KiB (the fold's 64- and 16-byte
// steps and every tail) and an image-sized buffer, each from every
// start offset modulo 16.
TEST(Crc32, FoldedMatchesSliced)
{
    const std::string check = "123456789";
    const auto *digits = reinterpret_cast<const std::uint8_t *>(check.data());
    EXPECT_EQ(ckpt::detail::crc32Sliced(digits, check.size()), 0xcbf43926u);
    if (!ckpt::detail::crc32FoldSupported())
        GTEST_SKIP() << "host has no PCLMULQDQ";
    EXPECT_EQ(ckpt::detail::crc32Folded(digits, check.size()), 0xcbf43926u);

    const std::vector<std::uint8_t> small = randomBytes(4096 + 16, 21);
    for (std::size_t offset = 0; offset < 16; ++offset) {
        for (std::size_t len = 0; len <= 4096; ++len) {
            const std::uint8_t *p = small.data() + offset;
            ASSERT_EQ(ckpt::detail::crc32Folded(p, len),
                      ckpt::detail::crc32Sliced(p, len))
                << "offset " << offset << ", length " << len;
        }
    }
    const std::size_t image = (27 * mib) / 2; // 13.5 MiB
    const std::vector<std::uint8_t> large = randomBytes(image + 16, 22);
    for (std::size_t offset = 0; offset < 16; ++offset) {
        const std::uint8_t *p = large.data() + offset;
        EXPECT_EQ(ckpt::detail::crc32Folded(p, image),
                  ckpt::detail::crc32Sliced(p, image))
            << "offset " << offset;
    }
}

// checkpointBytes() sizes its buffer once: on the golden fixture and
// on the simbench workloads (simbench/replay.cc, seed 1) the image
// fits the bound, and the buffer it comes in is that one allocation.
TEST(CheckpointSize, ImageIsOneAllocationWithinItsBound)
{
    setQuiet(true);
    std::vector<std::pair<std::string, MachineConfig>> configs;
    configs.emplace_back("golden-tiny",
                         machineFromConfig(KvConfig::fromFile(
                             std::string(ISIM_SOURCE_DIR) +
                             "/tests/golden/tiny.cfg")));
    MachineConfig tpcb_mp8 =
        figures::offchip(figures::mpNodes, 1 * mib, 1);
    tpcb_mp8.workload.warmupTransactions = 400 + mix64(1) % 64;
    configs.emplace_back("tpcb-mp8", tpcb_mp8);
    MachineConfig tpcb_uni = figures::offchip(1, 1 * mib, 1);
    tpcb_uni.workload.warmupTransactions = 400 + mix64(1) % 64;
    configs.emplace_back("tpcb-uni", tpcb_uni);
    MachineConfig dss_mp8 = figures::baseMachine(figures::mpNodes);
    dss_mp8.workload.kind = WorkloadKind::DssScan;
    dss_mp8.workload.warmupTransactions = 32 + mix64(1) % 4;
    configs.emplace_back("dss-mp8", dss_mp8);

    for (const auto &[name, cfg] : configs) {
        Machine m(cfg);
        m.runWarmup();
        const std::size_t bound = m.checkpointBytesBound();
        const std::vector<std::uint8_t> image = m.checkpointBytes();
        EXPECT_LE(image.size(), bound) << name;
        EXPECT_EQ(image.capacity(), bound) << name << ": the buffer regrew";
    }
}

// A Deserializer reads the caller's image in place: a restore does
// not copy the image first (13.5 MiB on the simbench dss-mp8 set-up).
TEST(Deserializer, ReadsTheImageWithoutCopyingIt)
{
    ckpt::Serializer s;
    s.beginSection(ckpt::tagMeta);
    s.u64(42);
    s.endSection();
    const std::vector<std::uint8_t> image = s.take();

    const std::size_t before = heapAllocations();
    ckpt::Deserializer d(image);
    d.beginSection(ckpt::tagMeta);
    EXPECT_EQ(d.u64(), 42u);
    d.endSection();
    d.finish();
    EXPECT_EQ(heapAllocations(), before);
}

// The warm-image pipeline's payoff on a warm-up-dominated figure:
// fig05 at 500 warm-up and 25 measured transactions, measured from
// warm images, costs at most a third of the cold run's CPU time and
// gives the same results. One lease thread and process CPU time keep
// the tests ctest runs beside this one out of the ratio.
TEST(WarmRestore, Fig05RestoreBeatsColdThreeTimes)
{
    setQuiet(true);
    const FigureSpec spec =
        FigureRegistry::instance().find("fig05")->make();
    const std::string dir = ::testing::TempDir() + "/isim_warm_restore";
    std::filesystem::create_directories(dir);
    RunOptions cold;
    cold.txns = 25;
    cold.warmup = 500;
    cold.jobs = 1;
    cold.verbose = false;
    RunOptions build = cold;
    build.saveCkptDir = dir;
    RunOptions restore = cold;
    restore.fromCkptDir = dir;

    double start = processCpuSeconds();
    const FigureResult coldResult = runFigures({spec}, cold).front();
    const double coldSeconds = processCpuSeconds() - start;
    runFigures({spec}, build);
    start = processCpuSeconds();
    const FigureResult restored = runFigures({spec}, restore).front();
    const double restoreSeconds = processCpuSeconds() - start;
    std::filesystem::remove_all(dir);

    EXPECT_EQ(figureStatsJson(coldResult), figureStatsJson(restored));
    EXPECT_GE(coldSeconds / restoreSeconds, 3.0)
        << "CPU time: cold " << coldSeconds << " s, restored "
        << restoreSeconds << " s";
}

TEST_F(CheckpointCorruption, TruncatedFileFailsCleanly)
{
    const ScopedPanicThrow guard;
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{4}, std::size_t{11},
          image_.size() / 2, image_.size() - 1}) {
        std::vector<std::uint8_t> cut(image_.begin(),
                                      image_.begin() +
                                          static_cast<std::ptrdiff_t>(
                                              keep));
        EXPECT_THROW(Machine::fromCheckpointBytes(cut), PanicError)
            << "kept " << keep << " bytes";
    }
}

TEST_F(CheckpointCorruption, BadMagicFailsCleanly)
{
    const ScopedPanicThrow guard;
    std::vector<std::uint8_t> bad = image_;
    bad[0] ^= 0xff;
    EXPECT_THROW(Machine::fromCheckpointBytes(bad), PanicError);
}

TEST_F(CheckpointCorruption, WrongVersionFailsCleanly)
{
    const ScopedPanicThrow guard;
    std::vector<std::uint8_t> bad = image_;
    bad[ckpt::magicBytes] += 1; // version field follows the magic
    EXPECT_THROW(Machine::fromCheckpointBytes(bad), PanicError);
}

TEST_F(CheckpointCorruption, FlippedPayloadBytesFailCrcCleanly)
{
    const ScopedPanicThrow guard;
    // Flip bytes across the image; every flip must be caught (CRC,
    // tag, bounds or value validation), never crash or mis-restore
    // silently into a machine with a different digest.
    for (const std::size_t at :
         {ckpt::magicBytes + 4 + 16,     // first CONF payload byte
          image_.size() / 3, image_.size() / 2, image_.size() - 1}) {
        std::vector<std::uint8_t> bad = image_;
        bad[at] ^= 0x01;
        EXPECT_THROW(Machine::fromCheckpointBytes(bad), PanicError)
            << "flipped byte " << at;
    }
}

TEST_F(CheckpointCorruption, TrailingGarbageFailsCleanly)
{
    const ScopedPanicThrow guard;
    std::vector<std::uint8_t> bad = image_;
    bad.push_back(0xab);
    EXPECT_THROW(Machine::fromCheckpointBytes(bad), PanicError);
}

TEST_F(CheckpointCorruption, MissingFileFailsCleanly)
{
    const ScopedPanicThrow guard;
    EXPECT_THROW(
        Machine::fromCheckpoint("/nonexistent/isim-nowhere.ckpt"),
        PanicError);
}

} // namespace
} // namespace isim
