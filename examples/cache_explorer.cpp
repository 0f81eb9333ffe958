/**
 * @file
 * Cache explorer: sweep arbitrary L2 sizes and associativities over
 * the OLTP workload and print the miss-rate surface — the tool for
 * reproducing the paper's "associativity vs capacity" analysis at
 * points the figures do not cover.
 *
 * Usage: cache_explorer [num_cpus] [transactions]
 */

#include <cstdlib>
#include <iostream>
#include <vector>

#include "src/core/figures.hh"
#include "src/core/machine.hh"
#include "src/stats/table.hh"

int
main(int argc, char **argv)
{
    using namespace isim;

    const unsigned cpus =
        argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 1;
    const std::uint64_t txns =
        argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2]))
                 : 400;

    const std::vector<std::uint64_t> sizes = {512 * kib, 1 * mib,
                                              2 * mib, 4 * mib,
                                              8 * mib};
    const std::vector<unsigned> assocs = {1, 2, 4, 8};

    std::cout << "L2 miss rate surface (misses per 1000 instructions), "
              << cpus << " cpu(s), " << txns << " transactions\n\n";

    Table t({"Size \\ Assoc", "1-way", "2-way", "4-way", "8-way"});
    for (const std::uint64_t size : sizes) {
        auto row = t.row();
        row.cell(CacheGeometry{size, 1, 64}.shortName().substr(
                     0, CacheGeometry{size, 1, 64}
                            .shortName()
                            .size() -
                         2));
        for (const unsigned assoc : assocs) {
            MachineConfig cfg = figures::offchip(cpus, size, assoc);
            cfg.workload.transactions = txns;
            cfg.workload.warmupTransactions = txns / 2;
            Machine m(cfg);
            const RunResult r = m.run();
            const double mpki = 1000.0 * r.stat("l2.miss.total") /
                                 r.stat("cpu.instructions");
            row.num(mpki, 2);
        }
    }
    t.print(std::cout);

    std::cout << "\nReading the surface: the paper's Section 3/6 "
                 "result is that the diagonal\nmatters — a small, "
                 "highly associative cache beats a large direct-mapped "
                 "one\nbecause much of OLTP's apparent capacity demand "
                 "is conflict misses.\n";
    return 0;
}
