/**
 * @file
 * The isim-fig table catalog: Figure 2 (Base system parameters),
 * Figure 3 (memory latencies, cross-checked against the component
 * latency model) and ablation A2 (interconnect sensitivity).
 */

#include "tools/isim-fig/tables.hh"

#include <string>
#include <vector>

#include "src/coherence/protocol.hh"
#include "src/core/figures.hh"
#include "src/noc/network.hh"
#include "src/stats/table.hh"
#include "src/timing/component_model.hh"

namespace isim::fig {

namespace {

/** Row and column label of a node: "n3". */
std::string
nodeLabel(unsigned node)
{
    std::string label = "n";
    label += std::to_string(node);
    return label;
}

/** Figure 2: the Base system parameters. */
void
printFigure2(std::ostream &out)
{
    const MachineConfig cfg = figures::baseMachine(figures::mpNodes);
    // The L1 geometry every Machine builds (both L1I and L1D).
    const MemSysConfig mem;
    const std::string l1Size = std::to_string(mem.l1Size / kib) + " KB";
    const std::string l1Assoc = std::to_string(mem.l1Assoc) + "-way";

    Table t({"Base System Parameter", "Value"});
    t.row().cell("Processor speed").cell("1 GHz");
    t.row().cell("Cache line size").cell(
        std::to_string(cfg.l2.lineBytes) + " bytes");
    t.row().cell("L1 data cache size (on-chip)").cell(l1Size);
    t.row().cell("L1 data cache associativity").cell(l1Assoc);
    t.row().cell("L1 instruction cache size (on-chip)").cell(l1Size);
    t.row().cell("L1 instruction cache associativity").cell(l1Assoc);
    t.row().cell("L2 cache size (off-chip)").cell(
        std::to_string(cfg.l2.sizeBytes / mib) + " MB");
    t.row().cell("L2 cache associativity").cell(
        std::to_string(cfg.l2.assoc) + "-way");
    t.row().cell("Multiprocessor configuration").cell(
        std::to_string(cfg.numCpus) + " processors");

    out << "== Figure 2: Parameters for the Base system ==\n\n";
    t.print(out);

    out << "\nWorkload (paper Section 2.1):\n";
    Table w({"Workload Parameter", "Value"});
    const WorkloadParams &p = cfg.workload;
    w.row().cell("TPC-B branches").count(p.branches);
    w.row().cell("Tellers").count(p.totalTellers());
    w.row().cell("Accounts").count(p.totalAccounts());
    w.row().cell("Server processes per CPU").count(p.serversPerCpu);
    w.row().cell("Measured transactions").count(p.transactions);
    w.row().cell("Warm-up transactions").count(p.warmupTransactions);
    w.print(out);
}

/**
 * Figure 3: memory latencies per configuration, cross-checked
 * against the component-level latency model (derived values, their
 * worst relative error, and the path decomposition of each class).
 */
void
printFigure3(std::ostream &out)
{
    struct Row
    {
        IntegrationLevel level;
        L2Impl impl;
        const char *name;
    };
    const Row rows[] = {
        {IntegrationLevel::ConservativeBase, L2Impl::OffchipAssoc,
         "Conservative Base"},
        {IntegrationLevel::Base, L2Impl::OffchipDirect,
         "Base (1-way L2)"},
        {IntegrationLevel::Base, L2Impl::OffchipAssoc,
         "Base (n-way L2)"},
        {IntegrationLevel::L2Int, L2Impl::OnchipSram,
         "L2 integrated (SRAM)"},
        {IntegrationLevel::L2Int, L2Impl::OnchipDram,
         "L2 integrated (DRAM)"},
        {IntegrationLevel::L2McInt, L2Impl::OnchipSram,
         "L2, MC integrated"},
        {IntegrationLevel::FullInt, L2Impl::OnchipSram,
         "L2, MC, CC/NR integrated"},
    };

    out << "== Figure 3: Memory latencies (cycles @1GHz == ns) ==\n\n";
    Table t({"Configuration", "L2 Hit", "Local", "Remote",
             "Remote Dirty"});
    for (const Row &row : rows) {
        const LatencyTable lat = figure3Latencies(row.level, row.impl);
        t.row()
            .cell(row.name)
            .count(lat.l2Hit)
            .count(lat.local)
            .count(lat.remote)
            .count(lat.remoteDirty);
    }
    t.print(out);

    const ReductionVsBase red = fullIntegrationReduction();
    out << "\nFull integration vs Base (paper Section 2.3: "
           "1.67x / 1.33x / 1.17x / 1.38x):\n  L2 hit "
        << formatNum(red.l2Hit, 2) << "x, local "
        << formatNum(red.local, 2) << "x, remote "
        << formatNum(red.remote, 2) << "x, dirty "
        << formatNum(red.remoteDirty, 2) << "x\n";

    const ComponentLatencyModel model(ComponentParams{}, 8);
    out << "\n== Component-model derivation (8-node torus) ==\n\n";
    Table d({"Configuration", "L2 Hit", "Local", "Remote", "Dirty",
             "WorstErr%"});
    for (const Row &row : rows) {
        const LatencyTable lat = model.derive(row.level, row.impl);
        d.row()
            .cell(row.name)
            .count(lat.l2Hit)
            .count(lat.local)
            .count(lat.remote)
            .count(lat.remoteDirty)
            .num(100.0 * model.worstRelativeError(row.level, row.impl));
    }
    d.print(out);

    out << "\nPath decompositions (full integration):\n";
    out << "  l2 hit : "
        << model.l2HitPath(IntegrationLevel::FullInt, L2Impl::OnchipSram)
               .describe()
        << "\n";
    out << "  local  : "
        << model.localPath(IntegrationLevel::FullInt).describe() << "\n";
    out << "  remote : "
        << model.remotePath(IntegrationLevel::FullInt).describe() << "\n";
    out << "  dirty  : "
        << model.remoteDirtyPath(IntegrationLevel::FullInt,
                                 L2Impl::OnchipSram)
               .describe()
        << "\n";
}

/**
 * Ablation A2: interconnect sensitivity. Sweeps the per-hop router
 * cost and the machine size through the component latency model,
 * showing how the 2-hop / 3-hop latencies (and hence everything
 * Figures 6-13 measure about multiprocessors) depend on the network
 * the 21364-style design integrates on chip; then, for the base
 * 8-node torus, the hops and message latency of every node pair.
 */
void
printAblationNoc(std::ostream &out)
{
    out << "== Ablation A2: router hop cost vs remote latencies "
           "(full integration, 8-node torus) ==\n\n";
    Table t({"RouterDelay", "LinkFlight", "Remote", "RemoteDirty",
             "Dirty/Remote"});
    for (Cycles hop : {2u, 5u, 10u, 20u, 40u}) {
        ComponentParams params;
        params.link.routerDelay = hop;
        const ComponentLatencyModel model(params, 8);
        const LatencyTable lat =
            model.derive(IntegrationLevel::FullInt, L2Impl::OnchipSram);
        t.row()
            .count(hop)
            .count(params.link.linkFlight)
            .count(lat.remote)
            .count(lat.remoteDirty)
            .num(static_cast<double>(lat.remoteDirty) /
                     static_cast<double>(lat.remote),
                 2);
    }
    t.print(out);

    out << "\n== Machine-size scaling (average hops grow with "
           "the torus) ==\n\n";
    Table s({"Nodes", "Torus", "AvgHops", "Diameter", "Remote",
             "RemoteDirty"});
    for (unsigned nodes : {2u, 4u, 8u, 16u, 32u, 64u}) {
        const ComponentLatencyModel model(ComponentParams{}, nodes);
        const TorusTopology &topo = model.network().topology();
        const LatencyTable lat =
            model.derive(IntegrationLevel::FullInt, L2Impl::OnchipSram);
        s.row()
            .count(nodes)
            .cell(std::to_string(topo.width()) + "x" +
                  std::to_string(topo.height()))
            .num(topo.averageHops(), 2)
            .count(topo.diameter())
            .count(lat.remote)
            .count(lat.remoteDirty);
    }
    s.print(out);

    out << "\n== Link bandwidth vs serialization (64B line) ==\n\n";
    Table b({"GB/s", "Serialization", "Remote"});
    for (double gbs : {1.0, 2.0, 4.0, 8.0}) {
        ComponentParams params;
        params.link.bandwidthGBs = gbs;
        const ComponentLatencyModel model(params, 8);
        b.row()
            .num(gbs, 0)
            .count(model.network().serialization(64))
            .count(model.derive(IntegrationLevel::FullInt,
                                L2Impl::OnchipSram)
                       .remote);
    }
    b.print(out);

    // Where the remote latencies come from, physically: the base
    // 8-node torus pair by pair.
    const unsigned nodes = 8;
    const TorusTopology topo(nodes);
    const Network net(topo, LinkParams{});
    out << "\n== " << nodes << "-node torus: " << topo.width() << "x"
        << topo.height() << ", diameter " << topo.diameter()
        << ", average hops " << formatNum(topo.averageHops(), 2)
        << " ==\n\n";
    std::vector<std::string> headers = {"hops"};
    for (NodeId node = 0; node < nodes; ++node)
        headers.push_back(nodeLabel(node));
    const auto matrix = [&](auto cell) {
        Table m(headers);
        for (NodeId from = 0; from < nodes; ++from) {
            auto row = m.row();
            row.cell(nodeLabel(from));
            for (NodeId to = 0; to < nodes; ++to)
                row.count(cell(from, to));
        }
        m.print(out);
    };
    matrix([&](NodeId from, NodeId to) { return topo.hops(from, to); });
    out << "\nOne-way latency for a 64-byte data message "
           "(cycles @1GHz):\n\n";
    matrix([&](NodeId from, NodeId to) { return net.oneWay(from, to, 64); });

    out << "\nControl message (8B): average one-way "
        << net.oneWayAverage(8) << " cycles; data (64B): "
        << net.oneWayAverage(64) << " cycles.\n";
}

const TableEntry kTables[] = {
    {"fig02", "Figure 2: Base system and workload parameters (table)",
     printFigure2},
    {"fig03", "Figure 3: memory latencies vs the component model (table)",
     printFigure3},
    {"ablation-noc",
     "A2: router hop cost, torus size and link bandwidth (table)",
     printAblationNoc},
};

} // namespace

std::span<const TableEntry>
tableEntries()
{
    return kTables;
}

} // namespace isim::fig
