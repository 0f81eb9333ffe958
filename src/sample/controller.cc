/**
 * @file
 * SampleController implementation: the window loop and the
 * interval-batch aggregation.
 */

#include "src/sample/controller.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "src/base/logging.hh"
#include "src/base/random.hh"
#include "src/core/simulation.hh"
#include "src/sample/estimator.hh"

namespace isim {
namespace sample {

namespace {

std::uint64_t
scaled(std::uint64_t v, double e)
{
    return static_cast<std::uint64_t>(
        std::llround(e * static_cast<double>(v)));
}

} // namespace

SampleController::SampleController(Machine &machine,
                                   const SampleSpec &spec)
    : machine_(machine), spec_(spec)
{
}

RunResult
SampleController::run()
{
    Machine &m = machine_;
    isim_assert(m.warmupRan_,
                "sampled measurement before warm-up (or restore)");

    const std::uint64_t txns = m.config_.workload.transactions;
    const SamplePlan plan = derivePlan(spec_, txns);

    m.ensureSim();
    m.beginObservation(m.warmEnd_); // no-op unless restored

    OltpEngine &engine = *m.engine_;
    Simulation &sim = *m.sim_;
    const std::uint64_t seed = m.config_.workload.seed;

    std::vector<stats::Snapshot> windows;
    windows.reserve(plan.windows);
    // std::map: the pooled histograms are iterated into the final
    // snapshot, so the container must be ordered.
    std::map<std::string, Histogram> pooled;
    std::uint64_t covered = 0;
    Tick measuredWall = 0;

    for (std::uint64_t w = 0; w < plan.windows; ++w) {
        // Window placement. The offset derives from (seed, window
        // index) alone — never wall clock or shared iteration state —
        // so the schedule is bit-reproducible across --jobs and
        // checkpoint resume.
        std::uint64_t off = plan.ff;
        if (plan.mode == SampleMode::Random) {
            off = mix64(seed ^ mix64(w ^ 0x77696e646f77ULL)) %
                  (plan.ff + 1);
        }
        const std::uint64_t warm = std::min(plan.warm, off);

        // Functional skip, then re-warm up to the window.
        engine.skipTransactions(off - warm);
        if (warm > 0)
            sim.runUntilCommitted(engine.committedTransactions() + warm);

        // The measurement window: reset makes the window-end registry
        // snapshot the per-window observation.
        m.resetStats();
        const Tick wall0 = sim.wallTime();
        sim.runUntilCommitted(engine.committedTransactions() +
                              plan.measure);
        measuredWall += sim.wallTime() - wall0;
        covered += engine.measuredCommitted();
        windows.push_back(m.registry_.snapshot());
        m.registry_.forEachDistribution(
            [&pooled](const std::string &name, const Histogram &h) {
                const auto it = pooled.find(name);
                if (it == pooled.end())
                    pooled.emplace(name, h);
                else
                    it->second.merge(h);
            });

        // Skip the tail of the period.
        engine.skipTransactions(plan.ff - off);
    }

    // Trailing remainder: cover the run's full transaction count so
    // sampled and exact cells end at the same committed total.
    const std::uint64_t target =
        m.config_.workload.warmupTransactions + txns;
    if (engine.committedTransactions() < target) {
        engine.skipTransactions(target -
                                engine.committedTransactions());
    }
    // ---- Aggregate: expand window totals to run level. ----
    isim_assert(covered > 0, "sampled run measured no transactions");
    const double expand =
        static_cast<double>(txns) / static_cast<double>(covered);
    const std::uint64_t nwin = windows.size();

    RunResult r;
    r.name = m.config_.name;
    r.transactions = scaled(covered, expand);
    r.wallTime = scaled(measuredWall, expand);
    r.dbConsistent = engine.db().checkConsistency();
    m.endObservation(r);

    r.sampling.enabled = true;
    r.sampling.mode = plan.mode;
    r.sampling.ff = plan.ff;
    r.sampling.measure = plan.measure;
    r.sampling.warm = plan.warm;
    r.sampling.windows = nwin;
    r.sampling.covered = covered;

    // Final snapshot: per-stat interval-batch estimate over the
    // index-aligned window snapshots (same registry, same sorted
    // names in every window).
    stats::Snapshot &first = windows.front();
    stats::Snapshot out;
    out.reserve(first.size());
    std::vector<double> xs(nwin);
    for (std::size_t i = 0; i < first.size(); ++i) {
        stats::Sample s = first[i];
        switch (s.kind) {
          case stats::Kind::Counter: {
            for (std::uint64_t w = 0; w < nwin; ++w)
                xs[w] = static_cast<double>(windows[w][i].u);
            const MeanCi mc = meanCi(xs);
            s.u = static_cast<std::uint64_t>(std::llround(
                expand * mc.mean * static_cast<double>(mc.n)));
            const double total = expand * static_cast<double>(mc.n);
            r.sampling.stats.push_back(
                {s.name, total * mc.sem, total * mc.ci95});
            break;
          }
          case stats::Kind::Gauge:
          case stats::Kind::Formula: {
            for (std::uint64_t w = 0; w < nwin; ++w)
                xs[w] = windows[w][i].d;
            const MeanCi mc = meanCi(xs);
            if (s.extensive) {
                // Run-total formula (cpu.exec_time): expand like a
                // counter so ratios against counters stay consistent.
                const double total =
                    expand * static_cast<double>(mc.n);
                s.d = total * mc.mean;
                r.sampling.stats.push_back(
                    {s.name, total * mc.sem, total * mc.ci95});
            } else {
                s.d = mc.mean;
                r.sampling.stats.push_back({s.name, mc.sem, mc.ci95});
            }
            break;
          }
          case stats::Kind::Distribution: {
            const auto it = pooled.find(s.name);
            isim_assert(it != pooled.end(),
                        "distribution missing from pooled histograms");
            const Histogram &h = it->second;
            s.dist.count = scaled(h.count(), expand);
            s.dist.sum = expand * h.sum();
            s.dist.mean = h.mean();
            s.dist.min = h.minValue();
            s.dist.max = h.maxValue();
            s.dist.p50 = h.quantile(0.50);
            s.dist.p95 = h.quantile(0.95);
            s.dist.p99 = h.quantile(0.99);
            // Counter-like bounds for the expanded count and sum;
            // mean bounds over the nonempty windows' means.
            for (std::uint64_t w = 0; w < nwin; ++w)
                xs[w] = static_cast<double>(windows[w][i].dist.count);
            const MeanCi mcc = meanCi(xs);
            const double total =
                expand * static_cast<double>(mcc.n);
            r.sampling.stats.push_back({s.name + ".count",
                                        total * mcc.sem,
                                        total * mcc.ci95});
            for (std::uint64_t w = 0; w < nwin; ++w)
                xs[w] = windows[w][i].dist.sum;
            const MeanCi mcs = meanCi(xs);
            r.sampling.stats.push_back({s.name + ".sum",
                                        total * mcs.sem,
                                        total * mcs.ci95});
            for (std::uint64_t w = 0; w < nwin; ++w) {
                xs[w] = windows[w][i].dist.count
                            ? windows[w][i].dist.mean
                            : std::numeric_limits<double>::quiet_NaN();
            }
            const MeanCi mcm = meanCi(xs);
            r.sampling.stats.push_back(
                {s.name + ".mean", mcm.sem, mcm.ci95});
            break;
          }
        }
        out.push_back(std::move(s));
    }
    r.stats = std::move(out);
    std::sort(r.sampling.stats.begin(), r.sampling.stats.end(),
              [](const StatCi &a, const StatCi &b) {
                  return a.name < b.name;
              });
    return r;
}

} // namespace sample
} // namespace isim
