/**
 * @file
 * Workload characterization: runs the OLTP workload on a machine with
 * VM region profiling enabled and prints, per memory region, the
 * access volume and the unique-line footprint — the numbers behind
 * the calibration story in DESIGN.md (hot head vs warm band vs cold
 * streams).
 *
 * Usage: workload_profile [num_cpus] [transactions]
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>

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
        argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 500;

    MachineConfig cfg = figures::baseMachine(cpus);
    if (argc > 4) {
        cfg = figures::offchip(
            cpus,
            static_cast<std::uint64_t>(std::atoi(argv[3])) * mib,
            static_cast<unsigned>(std::atoi(argv[4])));
    }
    cfg.workload.transactions = txns;
    cfg.workload.warmupTransactions = txns / 4;

    Machine machine(cfg);
    machine.vm().enableProfiling(true);
    std::vector<std::uint64_t> region_misses(64, 0);
    machine.memSys().setMissHook(
        [&](Addr paddr, RefType, MissClass) {
            const int idx = machine.vm().regionIndexOfPaddr(paddr);
            if (idx >= 0 &&
                idx < static_cast<int>(region_misses.size()))
                ++region_misses[idx];
        });
    const RunResult r = machine.run();

    std::cout << "profiled " << r.transactions << " transactions on "
              << cpus << " cpu(s); "
              << static_cast<std::uint64_t>(r.stat("cpu.instructions"))
              << " instructions\n\n";

    Table t({"Region", "Policy", "Size(KB)", "Accesses", "Acc/txn",
             "UniqLines", "Uniq(KB)", "Misses", "Miss/txn"});
    std::uint64_t total_lines = 0;
    std::size_t region_idx = 0;
    for (const auto &p : machine.vm().regionProfiles()) {
        const char *policy =
            p.policy == PlacePolicy::Interleave ? "stripe"
            : p.policy == PlacePolicy::Local    ? "local"
                                                : "repl";
        t.row()
            .cell(p.name)
            .cell(policy)
            .count(p.size / 1024)
            .count(p.accesses)
            .num(static_cast<double>(p.accesses) /
                 static_cast<double>(r.transactions ? r.transactions : 1))
            .count(p.uniqueLines)
            .count(p.uniqueLines * 64 / 1024)
            .count(region_misses[region_idx])
            .num(static_cast<double>(region_misses[region_idx]) /
                 static_cast<double>(r.transactions ? r.transactions
                                                    : 1));
        total_lines += p.uniqueLines;
        ++region_idx;
    }
    t.print(std::cout);
    std::cout << "\ntotal unique footprint: " << total_lines * 64 / 1024
              << " KB\n";
    return 0;
}
