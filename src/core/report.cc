/**
 * @file
 * Report formatting implementation. Tables and figure JSON read their
 * numbers from the run's registry snapshot (RunResult::stats), so the
 * report can only show what the manifest also carries — a stat that is
 * wrong in one place is wrong in both, never silently different.
 */

#include "src/core/report.hh"

#include <cmath>
#include <ostream>
#include <sstream>

#include "src/base/json.hh"
#include "src/base/logging.hh"
#include "src/stats/registry.hh"

namespace isim {

namespace {

double
norm(double value, double reference)
{
    return reference > 0.0 ? 100.0 * value / reference : 0.0;
}

/** Lookup for stats that exist only in some configs (RAC). */
double
statOr(const RunResult &r, const std::string &name, double fallback)
{
    const stats::Sample *s = stats::findSample(r.stats, name);
    return s != nullptr ? s->number() : fallback;
}

/** Combined 2-hop + 3-hop remote stall, as plotted in Figures 6/8/10. */
double
remStall(const RunResult &r)
{
    return r.stat("cpu.remote_stall") + r.stat("cpu.remote_dirty_stall");
}

const stats::DistSummary &
txnLatency(const RunResult &r)
{
    const stats::Sample *s = stats::findSample(r.stats, "oltp.txn.latency");
    if (s == nullptr)
        isim_panic("run '%s' has no oltp.txn.latency distribution",
                   r.name.c_str());
    return s->dist;
}

} // namespace

Table
executionTable(const FigureResult &result)
{
    const FigureSpec &spec = result.spec;
    isim_assert(spec.normalizeTo < result.runs.size());
    const double ref = result.runs[spec.normalizeTo].stat("cpu.exec_time");

    Table t({"Config", "CPU", "L2Hit", "LocStall", "RemStall", "Total",
             "Paper"});
    for (std::size_t i = 0; i < result.runs.size(); ++i) {
        const RunResult &r = result.runs[i];
        t.row()
            .cell(r.name)
            .num(norm(r.stat("cpu.busy"), ref))
            .num(norm(r.stat("cpu.l2hit_stall"), ref))
            .num(norm(r.stat("cpu.local_stall"), ref))
            .num(norm(remStall(r), ref))
            .num(norm(r.stat("cpu.exec_time"), ref))
            .cell(spec.bars[i].paperExecTime
                      ? formatNum(*spec.bars[i].paperExecTime)
                      : "-");
    }
    return t;
}

Table
missTable(const FigureResult &result)
{
    const FigureSpec &spec = result.spec;
    const double ref = result.runs[spec.normalizeTo].stat("l2.miss.total");

    Table t({"Config", "I-Loc", "I-Rem", "D-Loc", "D-RemCl", "D-RemDrt",
             "Total", "Paper"});
    for (std::size_t i = 0; i < result.runs.size(); ++i) {
        const RunResult &r = result.runs[i];
        t.row()
            .cell(r.name)
            .num(norm(r.stat("l2.miss.instr_local"), ref))
            .num(norm(r.stat("l2.miss.instr_remote"), ref))
            .num(norm(r.stat("l2.miss.local"), ref))
            .num(norm(r.stat("l2.miss.remote_clean"), ref))
            .num(norm(r.stat("l2.miss.remote_dirty"), ref))
            .num(norm(r.stat("l2.miss.total"), ref))
            .cell(spec.bars[i].paperMisses
                      ? formatNum(*spec.bars[i].paperMisses)
                      : "-");
    }
    return t;
}

Table
detailTable(const FigureResult &result)
{
    Table t({"Config", "Instr(M)", "Miss/1kI", "TPS", "Lat-p50us",
             "Lat-p95us", "Lat-p99us", "Kernel%", "Busy%",
             "Inval/Store%", "RACHit%", "Consist"});
    for (const RunResult &r : result.runs) {
        const double stores = r.stat("l2.store_refs");
        const double inval_rate =
            stores > 0.0
                ? 100.0 * r.stat("l2.stores_causing_inval") / stores
                : 0.0;
        const stats::DistSummary &lat = txnLatency(r);
        t.row()
            .cell(r.name)
            .num(r.stat("cpu.instructions") / 1e6)
            .num(r.stat("l2.mpki"), 2)
            .num(r.tps(), 0)
            .num(lat.p50, 0)
            .num(lat.p95, 0)
            .num(lat.p99, 0)
            .num(100.0 * r.stat("cpu.kernel_frac"))
            .num(100.0 * r.stat("cpu.busy_frac"))
            .num(inval_rate, 2)
            .num(100.0 * statOr(r, "rac.hit_rate", 0.0))
            .cell(r.dbConsistent ? "ok" : "FAIL");
    }
    return t;
}

void
printFigureReport(std::ostream &os, const FigureResult &result)
{
    os << "== " << result.spec.id << ": " << result.spec.title
       << " ==\n\n";
    os << "Normalized execution time (bar " << result.spec.normalizeTo
       << " = 100):\n";
    executionTable(result).print(os);
    os << "\nNormalized L2 misses:\n";
    missTable(result).print(os);
    os << "\nRun details:\n";
    detailTable(result).print(os);
    os << "\n";
}

std::string
figureToJson(const FigureResult &result)
{
    const FigureSpec &spec = result.spec;
    const double ref = result.runs[spec.normalizeTo].stat("cpu.exec_time");
    const double ref_miss =
        result.runs[spec.normalizeTo].stat("l2.miss.total");

    std::ostringstream os;
    JsonWriter w(os, /*pretty_depth=*/2);
    w.beginObject();
    w.kv("id", spec.id);
    w.kv("title", spec.title);
    w.key("bars").beginArray();
    for (std::size_t i = 0; i < result.runs.size(); ++i) {
        const RunResult &r = result.runs[i];
        const stats::DistSummary &lat = txnLatency(r);
        w.beginObject();
        w.kv("name", r.name);
        w.kv("exec_norm", norm(r.stat("cpu.exec_time"), ref));
        w.kv("exec_cycles", r.stat("cpu.exec_time"));
        w.kv("busy", r.stat("cpu.busy"));
        w.kv("l2hit_stall", r.stat("cpu.l2hit_stall"));
        w.kv("local_stall", r.stat("cpu.local_stall"));
        w.kv("remote_stall", remStall(r));
        w.kv("misses_norm", norm(r.stat("l2.miss.total"), ref_miss));
        w.kv("miss_instr_local", r.stat("l2.miss.instr_local"));
        w.kv("miss_instr_remote", r.stat("l2.miss.instr_remote"));
        w.kv("miss_data_local", r.stat("l2.miss.local"));
        w.kv("miss_data_2hop", r.stat("l2.miss.remote_clean"));
        w.kv("miss_data_3hop", r.stat("l2.miss.remote_dirty"));
        w.kv("tps", r.tps());
        w.kv("txn_lat_mean_us", lat.mean);
        w.kv("txn_lat_p50_us", lat.p50); // null when unresolvable
        w.kv("txn_lat_p95_us", lat.p95);
        w.kv("txn_lat_p99_us", lat.p99);
        if (spec.bars[i].paperExecTime)
            w.kv("paper_exec", *spec.bars[i].paperExecTime);
        if (spec.bars[i].paperMisses)
            w.kv("paper_misses", *spec.bars[i].paperMisses);
        w.kv("consistent", r.dbConsistent ? 1 : 0);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
    return os.str();
}

std::string
figureStatsJson(const FigureResult &result)
{
    stats::Manifest m;
    m.figure = result.spec.id;
    m.title = result.spec.title;
    m.bars.reserve(result.runs.size());
    for (const RunResult &r : result.runs) {
        stats::ManifestBar &bar = m.bars.emplace_back();
        bar.name = r.name;
        if (!r.resultKey.empty()) {
            bar.meta.present = true;
            bar.meta.key = r.resultKey;
            bar.meta.configDigest = r.configDigest;
            bar.meta.seed = r.seed;
            bar.meta.simWallMs =
                static_cast<double>(r.wallTime) / 1e6; // sim ns -> ms
            if (r.sampling.enabled) {
                bar.meta.sampleMode =
                    sample::sampleModeName(r.sampling.mode);
                bar.meta.sampleFf = r.sampling.ff;
                bar.meta.sampleMeasure = r.sampling.measure;
                bar.meta.sampleWarm = r.sampling.warm;
                bar.meta.sampleWindows = r.sampling.windows;
            }
        }
        bar.stats = r.stats;
        bar.epochs = r.epochs;
        bar.sampling = r.sampling;
    }
    return manifestToJson(m);
}

std::string
summaryLine(const FigureResult &result)
{
    std::ostringstream os;
    const double ref =
        result.runs[result.spec.normalizeTo].stat("cpu.exec_time");
    os << result.spec.id << ":";
    for (const RunResult &r : result.runs) {
        os << " " << r.name << "="
           << formatNum(norm(r.stat("cpu.exec_time"), ref));
    }
    return os.str();
}

} // namespace isim
