#include "topo/tree.hh"

#include <algorithm>
#include <cassert>

#include "otn/registers.hh" // kNull
#include "vlsi/bitmath.hh"

namespace ot::topo {

using otn::kNull;

TreeMachine::TreeMachine(const MachineSpec &spec)
    : Machine(spec),
      _tree(vlsi::nextPow2(spec.n ? spec.n : 1), cost().word().bits() + 2)
{
}

std::uint64_t
TreeMachine::area() const
{
    std::uint64_t width = leaves() * _tree.pitch();
    std::uint64_t height = _tree.pitch() + vlsi::logCeilAtLeast1(leaves());
    return width * height;
}

ModelTime
TreeMachine::exchangeStepCost(std::size_t dist) const
{
    // Every exchange serializes through the one root: leaf -> root ->
    // leaf, whatever the distance.
    (void)dist;
    return 2 * broadcastCost() + cost().bitSerialOp();
}

ModelTime
TreeMachine::broadcastCost() const
{
    return cost().wordAlongPath(_tree.pathEdges());
}

ModelTime
TreeMachine::reduceCost() const
{
    return cost().reducePath(_tree.pathEdges());
}

SortRun
TreeMachine::runSort(const std::vector<std::uint64_t> &values)
{
    assert(values.size() <= leaves());
    const ModelTime start = now();

    std::vector<std::uint64_t> data(leaves(), kNull);
    std::copy(values.begin(), values.end(), data.begin());
    // Input load: N words through the root, pipelined.
    charge(vlsi::CostModel::pipelineTotal(broadcastCost(), leaves(),
                                          cost().wordSeparation()));

    SortRun r;
    r.sorted.reserve(values.size());
    for (std::size_t round = 0; round < values.size(); ++round) {
        // MIN-reduce to the root, emit.
        auto min = std::min_element(data.begin(), data.end());
        charge(reduceCost());
        r.sorted.push_back(*min);
        // Disable exactly one instance of the minimum (a root-to-leaf
        // acknowledge selects the leftmost match).
        charge(broadcastCost());
        *min = kNull;
    }
    r.time = now() - start;
    return r;
}

} // namespace ot::topo
