/**
 * @file
 * RunOptions resolution from the command line.
 */

#include "src/config/run_options.hh"

#include <algorithm>
#include <cstring>
#include <thread>

#include "src/base/logging.hh"
#include "src/config/options.hh"
#include "src/verify/invariants.hh"

namespace isim {

RunOptions
RunOptions::fromCommandLine(int &argc, char **argv)
{
    RunOptions opts;

    // `--flag=value` or `--flag value`; consumed arguments are
    // dropped so the caller sees only what is left.
    int out = 1;
    std::string value;
    const auto matches = [&](int &i, const char *flag) {
        return flagValue(i, argc, argv, flag, value);
    };

    for (int i = 1; i < argc; ++i) {
        if (matches(i, "--txns")) {
            const std::uint64_t v = parseUintFlag("--txns", value);
            if (v == 0)
                isim_fatal("--txns must be positive");
            opts.txns = v;
        } else if (matches(i, "--warmup")) {
            opts.warmup = parseUintFlag("--warmup", value);
        } else if (matches(i, "--seed")) {
            opts.seed = parseUintFlag("--seed", value);
        } else if (matches(i, "--json-dir")) {
            opts.jsonDir = value;
        } else if (matches(i, "--jobs")) {
            opts.jobs =
                static_cast<unsigned>(parseUintFlag("--jobs", value));
        } else if (matches(i, "--procs")) {
            isim_fatal("--procs is gone: campaigns run their leases "
                       "on --jobs threads in one process");
        } else if (matches(i, "--audit-period")) {
            const std::uint64_t v =
                parseUintFlag("--audit-period", value);
            if (v == 0)
                isim_fatal("--audit-period must be >= 1");
            opts.auditPeriod = v;
        } else if (matches(i, "--stats-out")) {
            opts.statsOut = value;
        } else if (matches(i, "--stats-epoch")) {
            opts.statsEpochTicks =
                parseUintFlag("--stats-epoch", value);
        } else if (matches(i, "--save-ckpt")) {
            opts.saveCkptDir = value;
        } else if (matches(i, "--from-ckpt")) {
            opts.fromCkptDir = value;
        } else if (matches(i, "--sample-ff")) {
            opts.sample.ff = parseUintFlag("--sample-ff", value);
        } else if (matches(i, "--sample-measure")) {
            opts.sample.measure =
                parseUintFlag("--sample-measure", value);
        } else if (matches(i, "--sample-windows")) {
            opts.sample.windows =
                parseUintFlag("--sample-windows", value);
        } else if (matches(i, "--sample-warm")) {
            opts.sample.warm = parseUintFlag("--sample-warm", value);
        } else if (matches(i, "--sample-mode")) {
            const auto m = sample::sampleModeFromName(value);
            if (!m) {
                isim_fatal("--sample-mode: expected 'fixed' or "
                           "'random', got '%s'",
                           value.c_str());
            }
            opts.sample.mode = *m;
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            opts.verbose = false;
        } else {
            argv[out++] = argv[i]; // not ours: keep it
        }
    }
    argc = out;
    opts.obs = obsFromCommandLine(argc, argv);
    // Degenerate sampling configurations (measure without ff, a
    // single window, warm > ff) must fail at the command line, not
    // deep inside a half-finished run.
    opts.sample.validate();
    return opts;
}

void
RunOptions::applyTo(WorkloadParams &params) const
{
    if (txns)
        params.transactions = *txns;
    if (warmup)
        params.warmupTransactions = *warmup;
    if (seed)
        params.seed = *seed;
}

void
RunOptions::applyGlobal() const
{
    verify::setAuditPeriod(auditPeriod);
    // --quiet silences inform/warn status lines as well as the
    // runner's per-experiment progress output.
    setQuiet(!verbose);
}

unsigned
RunOptions::effectiveJobs(std::size_t items) const
{
    unsigned j = jobs;
    if (j == 0)
        j = std::max(1u, std::thread::hardware_concurrency());
    const std::size_t cap = std::max<std::size_t>(items, 1);
    return static_cast<unsigned>(
        std::min<std::size_t>(j, cap));
}

const char *
runOptionsHelp()
{
    return "  --txns=N             measured transactions per bar "
           "(default: the spec's)\n"
           "  --warmup=N           warm-up transactions per bar\n"
           "  --seed=N             workload seed for every bar\n"
           "  --json-dir=DIR       write the figure JSON into DIR\n"
           "  --jobs=N             run up to N bars (or campaign "
           "leases) concurrently\n"
           "                       (default: one per core)\n"
           "  --audit-period=N     invariant full-audit period\n"
           "  --stats-out=FILE     write the stats manifest to FILE "
           "(default: <json-dir>/<stem>.stats.json)\n"
           "  --stats-epoch=TICKS  embed per-epoch stat rows on this "
           "tick grid (`isim-stat timeline`)\n"
           "  --save-ckpt=DIR      save a warm checkpoint per bar "
           "into DIR after warm-up\n"
           "  --from-ckpt=DIR      restore warm checkpoints from DIR "
           "(skips warm-up)\n"
           "  --sample-ff=N        sampled run: fast-forward N txns "
           "per period (docs/SAMPLING.md)\n"
           "  --sample-measure=N   sampled run: measure N txns per "
           "window (enables sampling)\n"
           "  --sample-windows=N   sampled run: window count "
           "(default: derived from --txns)\n"
           "  --sample-warm=N      sampled run: warm-up txns "
           "before each window (default: min(ff, measure))\n"
           "  --sample-mode=MODE   sampled run: window placement, "
           "fixed or random\n"
           "  --quiet              suppress per-run progress lines\n";
}

} // namespace isim
