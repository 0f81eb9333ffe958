/**
 * @file
 * Quickstart: build one machine, run the OLTP workload, print the
 * paper-style execution-time and miss breakdowns.
 *
 * Usage: quickstart [num_cpus] [transactions]
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>

#include "src/core/figures.hh"
#include "src/core/machine.hh"

int
main(int argc, char **argv)
{
    using namespace isim;

    const unsigned cpus =
        argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 1;
    const std::uint64_t txns =
        argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 500;

    // The paper's Base machine: 1 GHz CPU, 64 KB 2-way L1s, an 8 MB
    // direct-mapped off-chip L2, all memory-system modules off chip.
    MachineConfig cfg = figures::baseMachine(cpus);
    cfg.workload.transactions = txns;
    cfg.workload.warmupTransactions = txns / 4;

    std::cout << "Running " << cfg.name << " with " << cpus
              << " cpu(s), " << txns << " transactions...\n";

    // Warm the caches, then measure with the paper's timing model.
    Machine machine(cfg);
    const RunResult r = machine.run();

    // Every number below is a named stat of the run (docs/METRICS.md).
    auto count = [&r](const char *stat) {
        return static_cast<std::uint64_t>(r.stat(stat));
    };
    const double exec = r.stat("cpu.exec_time");
    std::cout << "\ntransactions: " << r.transactions
              << "  (throughput " << r.tps() << " tps)\n";
    std::cout << "TPC-B consistency: "
              << (r.dbConsistent ? "ok" : "FAILED") << "\n";
    std::cout << "instructions: " << count("cpu.instructions") << "\n";
    std::cout << "execution time breakdown (% of non-idle):\n";
    auto pct = [&](double t) { return exec > 0 ? 100.0 * t / exec : 0.0; };
    std::cout << "  CPU busy:   " << pct(r.stat("cpu.busy")) << "\n";
    std::cout << "  L2 hit:     " << pct(r.stat("cpu.l2hit_stall")) << "\n";
    std::cout << "  local mem:  " << pct(r.stat("cpu.local_stall")) << "\n";
    std::cout << "  remote mem: "
              << pct(r.stat("cpu.remote_stall") +
                     r.stat("cpu.remote_dirty_stall"))
              << "\n";
    std::cout << "kernel share: " << 100.0 * r.stat("cpu.kernel_frac")
              << "%\n";
    std::cout << "L2 misses: total " << count("l2.miss.total")
              << "  (I-loc " << count("l2.miss.instr_local") << ", I-rem "
              << count("l2.miss.instr_remote") << ", D-loc "
              << count("l2.miss.local") << ", D-2hop "
              << count("l2.miss.remote_clean") << ", D-3hop "
              << count("l2.miss.remote_dirty") << ")\n";
    return 0;
}
