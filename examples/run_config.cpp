/**
 * @file
 * Run a machine described by a configuration file and print the
 * paper-style report — the no-C++-required front end.
 *
 * Usage: run_config <config-file> [more-config-files...] [options]
 *        run_config --dump          (print every config key with its default)
 *
 * With several files, all machines run (concurrently, see --jobs)
 * and the report is normalized to the first — so a file per bar
 * reproduces any figure. Options are the shared run flags
 * (--txns/--warmup/--seed/--jobs/--json-dir/--quiet), with the
 * ISIM_* environment variables as fallbacks.
 */

#include <cstring>
#include <fstream>
#include <iostream>

#include "src/base/json.hh"
#include "src/config/options.hh"
#include "src/config/run_options.hh"
#include "src/core/report.hh"

int
main(int argc, char **argv)
{
    using namespace isim;

    const RunOptions opts = RunOptions::fromCommandLine(argc, argv);
    if (argc < 2) {
        std::cerr << "usage: run_config <config-file>... [options] | "
                     "--dump\nOptions:\n"
                  << runOptionsHelp();
        return 2;
    }
    if (std::strcmp(argv[1], "--dump") == 0) {
        std::cout << machineToConfigText(MachineConfig{});
        return 0;
    }

    FigureSpec spec;
    spec.id = "run_config";
    spec.title = "machines from configuration files";
    for (int i = 1; i < argc; ++i) {
        FigureBar bar;
        bar.config = machineFromConfig(KvConfig::fromFile(argv[i]));
        spec.bars.push_back(bar);
    }
    spec.normalizeTo = 0;
    spec.multiprocessor = spec.bars[0].config.numCpus > 1;

    opts.applyGlobal();
    ExperimentRunner runner(opts);
    const FigureResult result = runner.run(spec);
    printFigureReport(std::cout, result);
    if (!opts.statsOut.empty()) {
        // Same contract as isim-fig: a validated stats manifest, so
        // config-file machines join the isim-stat / CI-diff workflow
        // (the golden-checkpoint regression restores a tiny machine
        // from a committed image and diffs this output).
        const std::string manifest = figureStatsJson(result);
        std::string err;
        if (!jsonValidate(manifest, &err))
            isim_panic("stats manifest does not validate: %s",
                       err.c_str());
        std::ofstream out(opts.statsOut);
        out << manifest;
        if (!out) {
            std::cerr << "cannot write " << opts.statsOut << "\n";
            return 1;
        }
        std::cout << "stats written to " << opts.statsOut << "\n";
    }
    return 0;
}
