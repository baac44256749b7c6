#include "topo/psn.hh"

#include <algorithm>
#include <cassert>

#include "otn/registers.hh" // kNull
#include "vlsi/bitmath.hh"

namespace ot::topo {

using otn::kNull;

PsnMachine::PsnMachine(const MachineSpec &spec)
    : Machine(spec),
      _layout(spec.n, cost().word().bits()),
      _bits(vlsi::ilog2Ceil(_layout.nodes()))
{
}

ModelTime
PsnMachine::shuffleStepCost() const
{
    // Bit-streamed across the worst shuffle wire: successive machine
    // steps overlap bit-serially, so a step's marginal cost is the
    // wire's first-bit latency plus one bit interval.
    return cost().edgeDelay(_layout.shuffleLinkLength()) + 1;
}

ModelTime
PsnMachine::compareExchangeCost() const
{
    return cost().edgeDelay(_layout.exchangeLinkLength()) + 1;
}

ModelTime
PsnMachine::exchangeStepCost(std::size_t dist) const
{
    // Stone's realization: shuffle until the distance bit reaches the
    // LSB (log N shuffles in the worst case), then exchange.
    (void)dist;
    return _bits * shuffleStepCost() + compareExchangeCost();
}

ModelTime
PsnMachine::broadcastCost() const
{
    // Recursive doubling over the shuffle-exchange pair.
    return _bits * (shuffleStepCost() + compareExchangeCost());
}

ModelTime
PsnMachine::reduceCost() const
{
    return broadcastCost();
}

SortRun
PsnMachine::runSort(const std::vector<std::uint64_t> &values)
{
    const std::size_t n = _layout.nodes();
    const unsigned m = _bits;
    assert(values.size() <= n);

    const ModelTime start = now();
    sim::ScopedPhase phase(_acct, "psn-sort");

    std::vector<std::uint64_t> a(n, kNull);
    std::copy(values.begin(), values.end(), a.begin());

    // r = number of shuffles performed so far, mod m.  Logical pair
    // (x, x ^ 2^j) are exchange neighbours when r = (m - j) mod m.
    unsigned r = 0;
    auto shuffle_to = [&](unsigned target) {
        for (unsigned s = (target + m - r) % m; s > 0; --s)
            charge(shuffleStepCost());
        r = target;
    };

    bitonicSort(a, [&](std::size_t, std::size_t d) {
        shuffle_to((m - vlsi::ilog2Floor(d)) % m);
        // MSB-first comparison streams with the bits, so the marginal
        // cost of the compare-exchange is one step, not a full word
        // time (the drain is charged once at the end).
        charge(compareExchangeCost());
    });
    // Unshuffle back to the identity placement and drain the words.
    shuffle_to(0);
    charge(cost().wordSeparation());

    SortRun out;
    out.sorted.assign(a.begin(), a.begin() + static_cast<long>(values.size()));
    out.time = now() - start;
    return out;
}

} // namespace ot::topo
