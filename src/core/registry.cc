/**
 * @file
 * The figure/ablation/extension catalog. The paper figures delegate
 * to src/core/figures.cc; the ablations and extensions are assembled
 * here as explicit bar lists.
 */

#include "src/core/registry.hh"

#include <algorithm>

#include "src/base/logging.hh"
#include "src/core/figures.hh"

namespace isim {

namespace {

// ---- Ablations (paper-adjacent what-if experiments) ----

/** A1: associativity sweep at fixed 2 MB on-chip capacity. */
FigureSpec
ablationAssoc(unsigned cpus)
{
    FigureSpec spec;
    spec.id = "Ablation A1";
    spec.title =
        "Associativity sweep, 2MB on-chip L2 - " +
        std::string(cpus == 1 ? "uniprocessor" : "8 processors");
    spec.multiprocessor = cpus > 1;
    for (const unsigned assoc : {1u, 2u, 4u, 8u, 16u}) {
        FigureBar bar;
        bar.config = figures::onchip(cpus, 2 * mib, assoc,
                                     IntegrationLevel::L2Int);
        spec.bars.push_back(bar);
    }
    spec.normalizeTo = 0;
    return spec;
}

/** A3: OS page colouring vs direct-mapped conflicts. */
FigureSpec
ablationColoring()
{
    FigureSpec spec;
    spec.id = "Ablation A3";
    spec.title = "Page colouring vs direct-mapped conflicts - "
                 "uniprocessor";
    spec.multiprocessor = false;
    struct Geometry
    {
        const char *label;
        std::uint64_t bytes;
        unsigned assoc;
    };
    for (const bool colored : {false, true}) {
        for (const Geometry &g : {Geometry{"1M1w", 1 * mib, 1},
                                  Geometry{"8M1w", 8 * mib, 1},
                                  Geometry{"2M4w", 2 * mib, 4}}) {
            FigureBar bar;
            bar.config = figures::offchip(1, g.bytes, g.assoc);
            // One colour per page slot of the largest cache (8MB / 8KB).
            if (colored)
                bar.config.pageColors = 1024;
            bar.config.name =
                std::string(g.label) + (colored ? " colored" : " random");
            spec.bars.push_back(bar);
        }
    }
    spec.normalizeTo = 0;
    return spec;
}

/** A4: L2 victim buffers vs associativity. */
FigureSpec
ablationVictim()
{
    FigureSpec spec;
    spec.id = "Ablation A4";
    spec.title = "L2 victim buffers vs associativity - uniprocessor, "
                 "2MB on-chip L2";
    spec.multiprocessor = false;
    for (const unsigned entries : {0u, 8u, 32u, 128u}) {
        FigureBar bar;
        bar.config = figures::onchip(1, 2 * mib, 1,
                                     IntegrationLevel::L2Int);
        bar.config.victimBufferEntries = entries;
        bar.config.name = "2M1w vb" + std::to_string(entries);
        spec.bars.push_back(bar);
    }
    FigureBar assoc;
    assoc.config =
        figures::onchip(1, 2 * mib, 8, IntegrationLevel::L2Int);
    assoc.config.name = "2M8w vb0";
    spec.bars.push_back(assoc);
    spec.normalizeTo = 0;
    return spec;
}

/** A5: memory-controller occupancy sweep (machine x occupancy). */
FigureSpec
ablationBandwidth()
{
    FigureSpec spec;
    spec.id = "Ablation A5";
    spec.title = "Memory-controller occupancy sweep - 8 processors";
    spec.multiprocessor = true;
    // Base/All alternate within each occupancy step.
    for (const Cycles occ : {0u, 20u, 40u, 80u}) {
        for (const bool integrated : {false, true}) {
            FigureBar bar;
            bar.config = integrated
                             ? figures::onchip(8, 2 * mib, 8,
                                               IntegrationLevel::FullInt)
                             : figures::baseMachine(8);
            bar.config.mcOccupancy = occ;
            bar.config.name = std::string(integrated ? "All" : "Base") +
                              " mc" + std::to_string(occ);
            spec.bars.push_back(bar);
        }
    }
    spec.normalizeTo = 0;
    return spec;
}

// ---- Extensions (paper Section 8 directions) ----

/** E1: chip multiprocessing — 8 cores as chips x cores/chip. */
FigureSpec
extCmp()
{
    FigureSpec spec;
    spec.id = "Extension E1";
    spec.title = "Chip multiprocessing: 8 cores as chips x cores/chip "
                 "(full integration, 2MB 8-way shared L2)";
    spec.multiprocessor = true;
    for (const unsigned cores_per_node : {1u, 2u, 4u, 8u}) {
        FigureBar bar;
        bar.config = figures::onchip(8, 2 * mib, 8,
                                     IntegrationLevel::FullInt);
        bar.config.coresPerNode = cores_per_node;
        bar.config.name = std::to_string(8 / cores_per_node) +
                          " chips x " +
                          std::to_string(cores_per_node) + " cores";
        spec.bars.push_back(bar);
    }
    spec.normalizeTo = 0;
    return spec;
}

/** E2: the integration ladder under OLTP vs DSS. */
FigureSpec
extDss(WorkloadKind kind, const char *tag)
{
    FigureSpec spec;
    spec.id = std::string("Extension E2 (") + tag + ")";
    spec.title = std::string("Integration ladder under ") + tag +
                 " - 8 processors";
    spec.multiprocessor = true;

    FigureBar base;
    base.config = figures::baseMachine(8);
    spec.bars.push_back(base);
    FigureBar l2;
    l2.config = figures::onchip(8, 2 * mib, 8, IntegrationLevel::L2Int);
    spec.bars.push_back(l2);
    FigureBar full;
    full.config =
        figures::onchip(8, 2 * mib, 8, IntegrationLevel::FullInt);
    spec.bars.push_back(full);

    // Cache sensitivity probe: small off-chip L2.
    FigureBar small;
    small.config = figures::offchip(8, 1 * mib, 1);
    spec.bars.push_back(small);

    for (FigureBar &bar : spec.bars) {
        bar.config.workload.kind = kind;
        if (kind == WorkloadKind::DssScan) {
            // Queries are ~100x heavier than transactions; run fewer.
            bar.config.workload.transactions = 60;
            bar.config.workload.warmupTransactions = 20;
        }
        bar.config.name += std::string(" ") + tag;
    }
    spec.normalizeTo = 0;
    return spec;
}

/** E3: sequential L2 prefetching under OLTP vs DSS. */
FigureSpec
extPrefetch(WorkloadKind kind, const char *tag)
{
    FigureSpec spec;
    spec.id = std::string("Extension E3 (") + tag + ")";
    spec.title = std::string("Sequential L2 prefetch under ") + tag +
                 " - uniprocessor, 1MB 4-way";
    for (const unsigned degree : {0u, 1u, 2u, 4u}) {
        FigureBar bar;
        bar.config = figures::offchip(1, 1 * mib, 4);
        bar.config.prefetchDegree = degree;
        bar.config.workload.kind = kind;
        bar.config.name = std::string(tag) + " pf" +
                          std::to_string(degree);
        if (kind == WorkloadKind::DssScan) {
            bar.config.workload.transactions = 80;
            bar.config.workload.warmupTransactions = 25;
        }
        spec.bars.push_back(bar);
    }
    spec.normalizeTo = 0;
    return spec;
}

const char *const cmpNote =
    "Reading: intra-chip sharing converts 3-hop dirty misses into "
    "shared-L2 hits;\nthe capacity cost shows up as extra local/"
    "remote-clean misses when 8 cores\nshare one 2MB cache.\n";

const char *const dssNote =
    "Reading: OLTP gains ~1.4x from full integration; the DSS scan "
    "streams are\nnearly insensitive — their misses are streaming "
    "(no reuse for caches to\nexploit) and amortized over many "
    "instructions per data line. This is the\npaper's Section 1 "
    "justification for studying OLTP, quantified.\n";

const char *const coloringNote =
    "Reading: colouring tiles the hot footprint across cache sets, "
    "recovering much\nof the direct-mapped conflict volume — but "
    "OLTP's hot lines come from many\nindependent regions, so "
    "collisions within a colour remain and associativity\nstill "
    "wins.\n";

const char *const bandwidthNote =
    "Reading: a fixed per-miss occupancy costs the integrated design "
    "relatively\nmore — its miss latencies are short, so queueing is "
    "a larger fraction of\nthem. Keeping the integration gap "
    "therefore *requires* the higher\ncontroller bandwidth that "
    "integration makes available (Section 4): the\nlatency win is "
    "only safe if the bandwidth win comes with it.\n";

} // namespace

FigureRegistry::FigureRegistry()
{
    const auto add = [&](std::string id, std::string description,
                         std::function<FigureSpec()> make,
                         std::string note = "") {
        entries_.push_back({std::move(id), std::move(description),
                            std::move(note), std::move(make)});
    };

    // The paper's figures.
    add("fig05", "Figure 5: off-chip L2 sweep, uniprocessor",
        figures::figure5);
    add("fig06", "Figure 6: off-chip L2 sweep, 8 processors",
        figures::figure6);
    add("fig07", "Figure 7: integrated L2, uniprocessor",
        figures::figure7);
    add("fig08", "Figure 8: integrated L2, 8 processors",
        figures::figure8);
    add("fig10-uni", "Figure 10: successive integration, uniprocessor",
        figures::figure10Uni);
    add("fig10-mp", "Figure 10: successive integration, 8 processors",
        figures::figure10Mp);
    add("fig11", "Figure 11: RAC miss mix, with/without replication",
        figures::figure11);
    add("fig12", "Figure 12: RAC performance", figures::figure12);
    add("fig13-uni", "Figure 13: out-of-order cores, uniprocessor",
        figures::figure13Uni);
    add("fig13-mp", "Figure 13: out-of-order cores, 8 processors",
        figures::figure13Mp);

    // Ablations.
    add("ablation-assoc-uni",
        "A1: associativity sweep, 2MB on-chip L2, uniprocessor",
        [] { return ablationAssoc(1); });
    add("ablation-assoc-mp",
        "A1: associativity sweep, 2MB on-chip L2, 8 processors",
        [] { return ablationAssoc(figures::mpNodes); });
    add("ablation-coloring",
        "A3: OS page colouring vs direct-mapped conflicts",
        ablationColoring, coloringNote);
    add("ablation-victim", "A4: L2 victim buffers vs associativity",
        ablationVictim);
    add("ablation-bandwidth",
        "A5: memory-controller occupancy sweep, 8 processors",
        ablationBandwidth, bandwidthNote);

    // Extensions.
    add("ext-cmp", "E1: chip multiprocessing, 8 cores as chips x "
                   "cores/chip",
        extCmp, cmpNote);
    add("ext-dss-oltp", "E2: integration ladder under OLTP",
        [] { return extDss(WorkloadKind::TpcB, "OLTP"); });
    add("ext-dss-dss", "E2: integration ladder under DSS",
        [] { return extDss(WorkloadKind::DssScan, "DSS"); }, dssNote);
    add("ext-prefetch-oltp", "E3: sequential L2 prefetch under OLTP",
        [] { return extPrefetch(WorkloadKind::TpcB, "OLTP"); });
    add("ext-prefetch-dss", "E3: sequential L2 prefetch under DSS",
        [] { return extPrefetch(WorkloadKind::DssScan, "DSS"); });

    for (std::size_t i = 0; i < entries_.size(); ++i) {
        for (std::size_t j = i + 1; j < entries_.size(); ++j) {
            isim_assert(entries_[i].id != entries_[j].id,
                        "duplicate figure id '%s'",
                        entries_[i].id.c_str());
        }
    }
}

const FigureRegistry &
FigureRegistry::instance()
{
    static const FigureRegistry registry;
    return registry;
}

const FigureEntry *
FigureRegistry::find(const std::string &id) const
{
    const auto it =
        std::find_if(entries_.begin(), entries_.end(),
                     [&](const FigureEntry &e) { return e.id == id; });
    return it == entries_.end() ? nullptr : &*it;
}

std::vector<const FigureEntry *>
FigureRegistry::resolve(const std::string &id) const
{
    if (const FigureEntry *exact = find(id))
        return {exact};
    std::vector<const FigureEntry *> matches;
    if (id.empty())
        return matches;
    for (const FigureEntry &e : entries_) {
        if (e.id.compare(0, id.size(), id) == 0)
            matches.push_back(&e);
    }
    return matches;
}

} // namespace isim
