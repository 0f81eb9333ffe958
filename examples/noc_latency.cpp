/**
 * @file
 * NoC latency explorer: prints the 21364-style torus hop matrix and
 * the end-to-end message latencies between every pair of nodes —
 * where the Figure 3 remote latencies come from, physically.
 *
 * Usage: noc_latency [num_nodes]
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "src/noc/network.hh"
#include "src/stats/table.hh"

namespace {

/** Row and column label of a node: "n3". */
std::string
nodeLabel(unsigned node)
{
    std::string label = "n";
    label += std::to_string(node);
    return label;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace isim;

    const unsigned nodes =
        argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 8;

    const TorusTopology topo(nodes);
    const Network net(topo, LinkParams{});

    std::cout << nodes << "-node torus: " << topo.width() << "x"
              << topo.height() << ", diameter " << topo.diameter()
              << ", average hops " << formatNum(topo.averageHops(), 2)
              << "\n\n";

    std::vector<std::string> headers = {"hops"};
    for (NodeId b = 0; b < nodes; ++b)
        headers.push_back(nodeLabel(b));
    Table t(headers);
    for (NodeId a = 0; a < nodes; ++a) {
        auto row = t.row();
        row.cell(nodeLabel(a));
        for (NodeId b = 0; b < nodes; ++b)
            row.count(topo.hops(a, b));
    }
    t.print(std::cout);

    std::cout << "\nOne-way latency for a 64-byte data message "
                 "(cycles @1GHz):\n\n";
    Table l(headers);
    for (NodeId a = 0; a < nodes; ++a) {
        auto row = l.row();
        row.cell(nodeLabel(a));
        for (NodeId b = 0; b < nodes; ++b)
            row.count(net.oneWay(a, b, 64));
    }
    l.print(std::cout);

    std::cout << "\nControl message (8B): average one-way "
              << net.oneWayAverage(8) << " cycles; data (64B): "
              << net.oneWayAverage(64) << " cycles.\n";
    return 0;
}
