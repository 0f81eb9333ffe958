/**
 * @file
 * Quickstart: build one machine, run the OLTP workload, print the
 * paper-style execution-time and miss breakdowns.
 *
 * Usage: quickstart [num_cpus] [transactions]
 */

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

    const double exec = static_cast<double>(r.execTime());
    std::cout << "\ntransactions: " << r.transactions
              << "  (throughput " << r.tps() << " tps)\n";
    std::cout << "TPC-B consistency: "
              << (r.dbConsistent ? "ok" : "FAILED") << "\n";
    std::cout << "instructions: " << r.cpu.instructions << "\n";
    std::cout << "execution time breakdown (% of non-idle):\n";
    auto pct = [&](Tick t) {
        return exec > 0 ? 100.0 * static_cast<double>(t) / exec : 0.0;
    };
    std::cout << "  CPU busy:   " << pct(r.cpu.busy) << "\n";
    std::cout << "  L2 hit:     " << pct(r.cpu.l2HitStall) << "\n";
    std::cout << "  local mem:  " << pct(r.cpu.localStall) << "\n";
    std::cout << "  remote mem: " << pct(r.cpu.remStall()) << "\n";
    std::cout << "kernel share: " << 100.0 * r.cpu.kernelFraction()
              << "%\n";
    std::cout << "L2 misses: total " << r.misses.totalL2Misses()
              << "  (I-loc " << r.misses.instrLocal << ", I-rem "
              << r.misses.instrRemote << ", D-loc " << r.misses.dataLocal
              << ", D-2hop " << r.misses.dataRemoteClean << ", D-3hop "
              << r.misses.dataRemoteDirty << ")\n";
    return 0;
}
