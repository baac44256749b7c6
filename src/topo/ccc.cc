#include "topo/ccc.hh"

#include <algorithm>
#include <cassert>

#include "otn/registers.hh" // kNull
#include "vlsi/bitmath.hh"

namespace ot::topo {

using otn::kNull;

CccMachine::CccMachine(const MachineSpec &spec)
    : Machine(spec),
      _elements(vlsi::nextPow2(spec.n ? spec.n : 2)),
      _dims(vlsi::ilog2Ceil(_elements)),
      _layout(_elements, cost().word().bits())
{
}

ModelTime
CccMachine::cubeStepCost() const
{
    return cost().edgeDelay(_layout.cubeLinkLength()) + 1;
}

ModelTime
CccMachine::cycleStepCost() const
{
    return cost().edgeDelay(_layout.cycleLinkLength()) + 1;
}

ModelTime
CccMachine::exchangeStepCost(std::size_t dist) const
{
    // One DESCEND step: a cube wire plus a cycle rotation.
    (void)dist;
    return cubeStepCost() + cycleStepCost();
}

ModelTime
CccMachine::broadcastCost() const
{
    return _dims * (cubeStepCost() + cycleStepCost());
}

ModelTime
CccMachine::reduceCost() const
{
    return broadcastCost();
}

SortRun
CccMachine::runSort(const std::vector<std::uint64_t> &values)
{
    const std::size_t n = _elements;
    const unsigned m = _dims;
    assert(values.size() <= n);

    const ModelTime start = now();
    sim::ScopedPhase phase(_acct, "ccc-sort");

    std::vector<std::uint64_t> a(n, kNull);
    std::copy(values.begin(), values.end(), a.begin());

    bitonicSort(a, [&](std::size_t size, std::size_t d) {
        // One DESCEND pass per merge size: dimensions log(size)-1 down
        // to 0.  The cycle first rotates the highest needed dimension
        // into place (up to m cycle steps, pipelined), then performs
        // one cube step per dimension.
        if (d == size / 2)
            for (unsigned r = 0; r < m - vlsi::ilog2Ceil(size) + 1; ++r)
                charge(cycleStepCost());
        charge(cubeStepCost());
    });
    // Final word drain.
    charge(cost().wordSeparation());

    SortRun out;
    out.sorted.assign(a.begin(), a.begin() + static_cast<long>(values.size()));
    out.time = now() - start;
    return out;
}

} // namespace ot::topo
