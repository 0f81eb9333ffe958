/**
 * @file
 * TPC-B demo: runs the OLTP engine on an Alpha-21364-class fully
 * integrated machine and reports database-level results — throughput,
 * transaction latency distribution, consistency check, daemon
 * activity — the view a database administrator (rather than an
 * architect) would want.
 *
 * Usage: tpcb_demo [num_cpus] [transactions]
 */

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
        argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 8;
    const std::uint64_t txns =
        argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2]))
                 : 1000;

    MachineConfig cfg =
        figures::onchip(cpus, 2 * mib, 8, IntegrationLevel::FullInt);
    cfg.workload.transactions = txns;
    cfg.workload.warmupTransactions = txns / 4;

    std::cout << "TPC-B on a fully integrated " << cpus
              << "-processor machine (" << cfg.workload.branches
              << " branches, " << cfg.workload.totalAccounts()
              << " accounts, " << cfg.workload.serversPerCpu
              << " servers/cpu)\n\n";

    Machine machine(cfg);
    const RunResult r = machine.run();
    OltpEngine &engine = machine.engine();

    Table t({"Metric", "Value"});
    t.row().cell("Committed transactions").count(r.transactions);
    t.row().cell("Throughput (tps)").num(r.tps(), 0);
    t.row().cell("Wall time (ms)").num(r.wallTime / 1e6, 2);
    t.row().cell("TPC-B consistency").cell(r.dbConsistent ? "ok"
                                                          : "FAILED");
    const Histogram &lat = engine.txnLatency();
    t.row().cell("Txn latency mean (us)").num(lat.mean(), 0);
    t.row().cell("Txn latency p50 (us)").num(lat.quantile(0.5), 0);
    t.row().cell("Txn latency p95 (us)").num(lat.quantile(0.95), 0);
    t.row().cell("Latch acquires").count(engine.latches().acquires());
    t.row().cell("Buffer-cache lookups")
        .count(engine.bufferCache().lookups());
    t.row().cell("Redo slots written").count(engine.redo().cursor());
    t.row().cell("Context switches")
        .count(machine.sched().contextSwitches());
    t.row().cell("Kernel share of time (%)")
        .num(100.0 * r.stat("cpu.kernel_frac"));
    t.print(std::cout);

    std::cout << "\nSample balances (accounts really moved):\n";
    const TpcbDatabase &db = engine.db();
    for (std::uint64_t b = 0; b < 4; ++b) {
        std::cout << "  branch " << b << ": balance "
                  << db.branchBalance(b) << "\n";
    }
    return r.dbConsistent ? 0 : 1;
}
