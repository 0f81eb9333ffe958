/**
 * @file
 * simbench-replay: host speed of the simulator on warm-image replays.
 *
 * One run of one workload, a fixed machine configuration running the
 * calibrated workload seed every figure uses; --seed picks how many
 * warm-up transactions precede the image, and so which transactions
 * the measured window replays:
 *
 *   set-up   build the warm image: construct the machine, run the
 *            warm-up transactions, serialize the checkpoint.
 *   check    run the measured transactions once on the first warm
 *            machine itself: the reference statistics.
 *   rounds   for --seconds (at least kMinRounds times): build the warm
 *            image again, which must agree with the first byte for
 *            byte, then replay it: restore a machine from the image
 *            and run the measured transactions. A replay is correct
 *            when its full statistics snapshot is identical to the
 *            reference, every measured transaction committed and the
 *            TPC-B database is consistent.
 *
 * The simulator is single-threaded, so its cost is this thread's CPU
 * time (CLOCK_THREAD_CPUTIME_ID, user + system), taken around the calls
 * into each layer: set-up, restore, measurement and, with --trace 1, a
 * statistics snapshot. On a shared host that time still swings by a
 * quarter and more for minutes at a time, as other machines' work
 * contends for caches, memory and cores. So right before each timed
 * set-up and replay the run times a fixed host probe (HostProbe: code
 * of its own, shaped like the simulator's inner loop) and scales the
 * span by kProbeRefS / probe time: every reported time is what it
 * would take on the host at the speed that gave kProbeRefS. The end-
 * to-end figures and the per-layer spans are medians over the run's
 * rounds. Simulated quantities come from the machine's stats registry.
 * The last line of stdout is
 *
 *   {"correct": b, "attempted": replays, "failed": bad replays,
 *    "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}
 *
 * holding the end-to-end metrics with --trace 0 and the per-layer
 * metrics (counts per transaction, layer spans, unit costs of the
 * memory-system / VM / RNG layers from timed loops, the raw probe time)
 * with --trace 1. Raw, unscaled figures go to stderr.
 *
 *   simbench-replay --workload tpcb-mp8 --seed 1 --seconds 10 --trace 0
 */

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/random.hh"
#include "src/coherence/protocol.hh"
#include "src/core/figures.hh"
#include "src/core/machine.hh"
#include "src/os/vm.hh"
#include "src/stats/registry.hh"

namespace {

using namespace isim;
using Clock = std::chrono::steady_clock;

/** Set-up + replay rounds made even when --seconds runs out first. */
constexpr std::size_t kMinRounds = 5;

/**
 * HostProbe::run's CPU time on the reference host (4-vCPU VM, GCC 12
 * Release build) in a quiet period: the speed every time is scaled to.
 */
constexpr double kProbeRefS = 0.050;

struct Workload
{
    const char *name;
    MachineConfig (*make)();
    /** --seed adds 0 .. warmupSpread-1 warm-up transactions. */
    std::uint64_t warmupSpread;
};

/** Figure 6's normalization bar: 8 CPUs, 1 MB direct-mapped L2s. */
MachineConfig
tpcbMp8()
{
    MachineConfig c = figures::offchip(figures::mpNodes, 1 * mib, 1);
    c.workload.warmupTransactions = 400;
    c.workload.transactions = 400;
    return c;
}

/** Figure 5's normalization bar: one CPU, 1 MB direct-mapped L2. */
MachineConfig
tpcbUni()
{
    MachineConfig c = figures::offchip(1, 1 * mib, 1);
    c.workload.warmupTransactions = 400;
    c.workload.transactions = 200;
    return c;
}

/** The DSS base bar of the OLTP-vs-DSS extension: 8 CPUs, scans. */
MachineConfig
dssMp8()
{
    MachineConfig c = figures::baseMachine(figures::mpNodes);
    c.workload.kind = WorkloadKind::DssScan;
    c.workload.warmupTransactions = 32;
    c.workload.transactions = 64;
    return c;
}

// Measured windows are sized so one replay takes roughly 0.1-0.5 s of
// host time: long enough to swamp timer and restore noise, short
// enough that a run makes dozens of rounds to take the median of.
// The warm-up spread varies the image and the measured transactions
// with --seed; DSS keeps it small because each extra scan query grows
// the image (and so the restore cost) by several percent.
const Workload kWorkloads[] = {
    {"tpcb-mp8", tpcbMp8, 64},
    {"tpcb-uni", tpcbUni, 64},
    {"dss-mp8", dssMp8, 4},
};

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** CPU time this thread has used, user + system, in seconds. */
double
cpuSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Keep `value` alive without the optimizer seeing through it. */
template <typename T>
inline void
keep(const T &value)
{
    asm volatile("" : : "r,m"(value) : "memory");
}

/** splitmix64's finalizer, kept here so the probe uses no isim code. */
inline std::uint64_t
probeMix(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * A fixed piece of work that shares no code with the simulator but
 * looks like its inner loop to the host: hash an address, load from a
 * 32 MiB table with the next address depending on the loaded value,
 * and look the line up in a 1 MiB two-way tag array. Its time moves
 * only with the host's speed, so it measures that speed.
 */
class HostProbe
{
  public:
    HostProbe() : data_(kDataWords), tags_(2 * kTagSets, ~0ULL)
    {
        for (std::size_t i = 0; i < data_.size(); ++i)
            data_[i] = probeMix(i);
    }

    /** CPU seconds of one pass. */
    double
    run()
    {
        const double start = cpuSeconds();
        std::uint64_t x = 1;
        std::uint64_t hits = 0;
        for (std::uint64_t i = 0; i < kSteps; ++i) {
            x = probeMix(x + i);
            // Three loads in four go to a hot 4 MiB region, which the
            // host's last-level cache holds unless others crowd it out.
            const std::uint64_t word =
                (x & 3) ? (x >> 2) % kHotWords : (x >> 2) % kDataWords;
            x ^= data_[word];
            const std::uint64_t line = word / 8;
            std::uint64_t *set = &tags_[2 * (line % kTagSets)];
            if (set[0] == line) {
                ++hits;
            } else if (set[1] == line) {
                std::swap(set[0], set[1]);
                ++hits;
            } else {
                set[1] = set[0];
                set[0] = line;
            }
        }
        keep(hits);
        keep(x);
        return cpuSeconds() - start;
    }

  private:
    static constexpr std::uint64_t kSteps = 400000;
    static constexpr std::uint64_t kDataWords = 4 * mib;
    static constexpr std::uint64_t kHotWords = 512 * kib;
    static constexpr std::uint64_t kTagSets = 64 * kib;

    std::vector<std::uint64_t> data_;
    std::vector<std::uint64_t> tags_;
};

/** FNV-1a over every field of every stat: replay identity check. */
std::uint64_t
digest(const stats::Snapshot &snap)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](const void *data, std::size_t n) {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    };
    auto mixDouble = [&mix](double d) {
        std::uint64_t bits;
        std::memcpy(&bits, &d, sizeof bits);
        mix(&bits, sizeof bits);
    };
    for (const stats::Sample &s : snap) {
        mix(s.name.data(), s.name.size());
        mix(&s.u, sizeof s.u);
        mixDouble(s.d);
        mix(&s.dist.count, sizeof s.dist.count);
        mixDouble(s.dist.sum);
        mix(&s.dist.min, sizeof s.dist.min);
        mix(&s.dist.max, sizeof s.dist.max);
        mixDouble(s.dist.p50);
        mixDouble(s.dist.p95);
        mixDouble(s.dist.p99);
    }
    return h;
}

/** Sum of the counters whose name ends in `suffix` (per-CPU stats). */
double
sumSuffix(const stats::Snapshot &snap, const std::string &suffix)
{
    double total = 0.0;
    for (const stats::Sample &s : snap) {
        if (s.name.size() >= suffix.size() &&
            s.name.compare(s.name.size() - suffix.size(), suffix.size(),
                           suffix) == 0)
            total += s.number();
    }
    return total;
}

double
stat(const stats::Snapshot &snap, const char *name)
{
    const stats::Sample *s = stats::findSample(snap, name);
    if (s == nullptr) {
        std::fprintf(stderr, "simbench-replay: no stat '%s'\n", name);
        std::exit(1);
    }
    return s->number();
}

/** Median host CPU ns per call of `op` over five timed loops. */
template <typename Op>
double
nsPerOp(std::uint64_t iters, Op op)
{
    std::vector<double> reps;
    for (int r = 0; r < 5; ++r) {
        const double start = cpuSeconds();
        for (std::uint64_t i = 0; i < iters; ++i)
            op();
        reps.push_back((cpuSeconds() - start) * 1e9 /
                       static_cast<double>(iters));
    }
    return median(reps);
}

/** Unit costs of single layers, from loops calling straight into them. */
struct UnitCosts
{
    double l1HitNs = 0.0; //!< MemorySystem access hitting in L1
    double missNs = 0.0;  //!< coherent access missing L1 and L2, 8 nodes
    double vmNs = 0.0;    //!< VirtualMemory::translate over 4 MB of lines
    double zipfNs = 0.0;  //!< one Rng::zipf draw (data-reference skew)
};

UnitCosts
measureUnitCosts()
{
    UnitCosts u;
    {
        MemSysConfig cfg;
        cfg.numNodes = 1;
        cfg.l2 = CacheGeometry{2 * mib, 8, 64};
        cfg.lat = figure3Latencies(IntegrationLevel::FullInt,
                                   L2Impl::OnchipSram);
        MemorySystem ms(cfg);
        ms.access(0, RefType::Load, 0x1000);
        u.l1HitNs = nsPerOp(2000000, [&ms] {
            keep(ms.access(0, RefType::Load, 0x1000));
        });
    }
    {
        MemSysConfig cfg;
        cfg.numNodes = figures::mpNodes;
        cfg.l2 = CacheGeometry{512 * kib, 2, 64};
        cfg.lat = figure3Latencies(IntegrationLevel::FullInt,
                                   L2Impl::OnchipSram);
        MemorySystem ms(cfg);
        Rng rng(7);
        u.missNs = nsPerOp(200000, [&ms, &rng] {
            const NodeId node = static_cast<NodeId>(rng.below(8));
            const Addr addr =
                (rng.below(8) << 31) | (rng.below(1 << 14) << 6);
            const RefType type =
                rng.chance(0.2) ? RefType::Store : RefType::Load;
            keep(ms.access(node, type, addr));
        });
    }
    {
        VmConfig vc;
        vc.homeMap = HomeMap{31, figures::mpNodes};
        VirtualMemory vm(vc);
        Rng rng(3);
        u.vmNs = nsPerOp(2000000, [&vm, &rng] {
            keep(vm.translate(rng.below(1 << 16) * 64, 0));
        });
    }
    {
        Rng rng(1);
        u.zipfNs = nsPerOp(2000000, [&rng] { keep(rng.zipf(4096, 0.8)); });
    }
    return u;
}

struct Metric
{
    const char *name;
    double value;
    const char *unit;
};

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name, metrics[i].value,
                    metrics[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: simbench-replay --workload NAME --seed N "
                 "--seconds S --trace 0|1\nworkloads:");
    for (const Workload &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 0;
    double seconds = -1.0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload") {
            for (const Workload &w : kWorkloads)
                if (std::strcmp(w.name, value) == 0)
                    workload = &w;
        } else if (flag == "--seed") {
            seed = std::strtoull(value, nullptr, 10);
        } else if (flag == "--seconds") {
            seconds = std::strtod(value, nullptr);
        } else if (flag == "--trace") {
            trace = std::atoi(value);
        } else {
            return usage();
        }
    }
    if (argc % 2 == 0 || workload == nullptr || seconds <= 0.0 ||
        (trace != 0 && trace != 1))
        return usage();

    MachineConfig config = workload->make();
    config.workload.warmupTransactions +=
        mix64(seed) % workload->warmupSpread;

    // Every timed span is scaled to the reference host speed by a probe
    // taken right before it.
    HostProbe probe;
    std::vector<double> probeS;
    auto hostScale = [&]() {
        probeS.push_back(probe.run());
        return kProbeRefS / probeS.back();
    };

    // Set-up: the warm image, built from scratch. The first build keeps
    // its image; every later one must reproduce it.
    std::vector<double> setupS, rawSetupS;
    std::vector<std::uint8_t> image;
    bool imagesAgree = true;
    auto setUp = [&]() {
        const double scale = hostScale();
        const double start = cpuSeconds();
        auto machine = std::make_unique<Machine>(config);
        machine->runWarmup(ExecMode::Timing);
        std::vector<std::uint8_t> bytes = machine->checkpointBytes();
        rawSetupS.push_back(cpuSeconds() - start);
        setupS.push_back(rawSetupS.back() * scale);
        if (image.empty())
            image = std::move(bytes);
        else
            imagesAgree = imagesAgree && bytes == image;
        return machine;
    };

    // The reference: the measured transactions run on the warm machine.
    const RunResult ref = setUp()->runMeasurement();
    const std::uint64_t refDigest = digest(ref.stats);
    const double txns = static_cast<double>(ref.transactions);
    const double refs = sumSuffix(ref.stats, ".l1i.accesses") +
                        sumSuffix(ref.stats, ".l1d.accesses");
    const bool refOk = ref.dbConsistent &&
                       ref.transactions == config.workload.transactions &&
                       refs > 0.0;

    // Rounds of set-up + replay, so that both are sampled over the
    // whole run rather than in one stretch of it.
    std::vector<double> restoreS, measureS, statsS, nsPerRef, rawNsPerRef;
    std::size_t failed = 0;
    const Clock::time_point runStart = Clock::now();
    while (restoreS.size() < kMinRounds ||
           secondsSince(runStart) < seconds) {
        setUp();
        const double scale = hostScale();
        const double t0 = cpuSeconds();
        std::unique_ptr<Machine> m = Machine::fromCheckpointBytes(image);
        const double t1 = cpuSeconds();
        const RunResult r = m->runMeasurement();
        const double t2 = cpuSeconds();
        if (trace) {
            // The stats/report layer on its own: one more snapshot of
            // the finished machine.
            keep(m->snapshot());
            statsS.push_back((cpuSeconds() - t2) * scale);
        }
        restoreS.push_back((t1 - t0) * scale);
        measureS.push_back((t2 - t1) * scale);
        rawNsPerRef.push_back((t2 - t1) * 1e9 / refs);
        nsPerRef.push_back(rawNsPerRef.back() * scale);
        if (digest(r.stats) != refDigest || r.wallTime != ref.wallTime ||
            r.transactions != ref.transactions || !r.dbConsistent)
            ++failed;
    }

    const bool correct = imagesAgree && refOk && failed == 0;
    std::vector<Metric> metrics;
    if (!trace) {
        metrics = {
            {"ns_per_ref", median(nsPerRef), "ns"},
            {"setup_s", median(setupS), "s"},
        };
    } else {
        const double l1Misses = refs - sumSuffix(ref.stats, ".l1i.hits") -
                                sumSuffix(ref.stats, ".l1d.hits");
        const double dataRefs = sumSuffix(ref.stats, ".l1d.accesses");
        const double scale = hostScale();
        UnitCosts u = measureUnitCosts();
        for (double *ns : {&u.l1HitNs, &u.missNs, &u.vmNs, &u.zipfNs})
            *ns *= scale;
        // Per-reference cost predicted from the unit costs: every
        // reference is translated and looked up in L1, L1 misses pay the
        // coherent-miss path, data references draw a zipf address.
        const double model = u.vmNs + u.l1HitNs +
                             (l1Misses / refs) * (u.missNs - u.l1HitNs) +
                             (dataRefs / refs) * u.zipfNs;
        metrics = {
            {"refs_per_txn", refs / txns, "count"},
            {"l1_miss_per_txn", l1Misses / txns, "count"},
            {"l2_miss_per_txn", stat(ref.stats, "l2.miss.total") / txns,
             "count"},
            {"image_mib", static_cast<double>(image.size()) / mib, "MiB"},
            {"span_restore_ms", 1e3 * median(restoreS), "ms"},
            {"span_measure_ms", 1e3 * median(measureS), "ms"},
            {"span_stats_ms", 1e3 * median(statsS), "ms"},
            {"traced_ns_per_ref", median(nsPerRef), "ns"},
            {"unit_l1_hit_ns", u.l1HitNs, "ns"},
            {"unit_miss_ns", u.missNs, "ns"},
            {"unit_vm_ns", u.vmNs, "ns"},
            {"unit_zipf_ns", u.zipfNs, "ns"},
            {"model_ns_per_ref", model, "ns"},
            {"host_probe_ms", 1e3 * median(probeS), "ms"},
        };
    }
    std::fprintf(stderr,
                 "simbench-replay: %s seed %llu: %zu rounds, %zu failed, "
                 "images %s, %.0f refs/replay; unscaled medians: "
                 "%.2f ns/ref, set-up %.4f s, probe %.3f ms\n",
                 workload->name, static_cast<unsigned long long>(seed),
                 restoreS.size(), failed,
                 imagesAgree ? "identical" : "DIFFER", refs,
                 median(rawNsPerRef), median(rawSetupS),
                 1e3 * median(probeS));
    printResult(correct, restoreS.size(), failed, metrics);
    return 0;
}
