#include "otc/sort.hh"

#include <algorithm>
#include <cassert>
#include <cstddef>

#include "vlsi/bitmath.hh"

namespace ot::otc {

SortOtcResult
sortOtc(OtcNetwork &net, const std::vector<std::uint64_t> &values)
{
    const std::size_t k = net.k();
    const unsigned l = net.cycleLen();
    const std::size_t capacity = k * l;
    assert(values.size() <= capacity);

    ModelTime start = net.now();
    sim::ScopedPhase phase(net.acct(), "sort-otc");

    // Feed the input streams: port i carries values [i*L, (i+1)*L),
    // word g = i*L + q of the padded input x.
    thread_local std::vector<std::uint64_t> x;
    thread_local std::vector<std::uint64_t> rank;
    x.resize(capacity);
    rank.resize(capacity);
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t q = 0; q < l; ++q) {
            std::size_t g = i * l + q;
            std::uint64_t v = g < values.size() ? values[g] : kNull;
            assert(net.fitsWord(v));
            net.rowStream(i)[q] = v;
            x[g] = v;
        }
    }

    // Every rank, all pairs compared as the machine does: the rank of
    // x(g) counts the x(h) below it, or equal to it with h < g (the
    // paper's duplicate tie-break of SORT-OTN's step 3).  kNull is the
    // largest word, so padding ranks last.  Steps 1-4 leave exactly
    // these ranks in R; computing them from the inputs writes no
    // register plane, and the steps' accounting is replayed below as
    // the machine runs them.
    net.kernelTable().enumRank(rank.data(), x.data(), capacity);

    // Step 1: A = own group in every cycle of the row.
    net.parallelFor(k, [&](std::size_t i) {
        net.rootToCycleAccount(Axis::Row, i);
    });

    // Step 2: B = the column's group (from the diagonal cycle).
    net.parallelFor(k, [&](std::size_t i) {
        net.cycleToCycleAccount(Axis::Col, i);
    });

    // Step 3: the C := 0 sweep, then L compare-and-circulate rounds,
    // each one baseOp and a pardo of the K row VECTORCIRCULATEs.
    const ModelTime op_cost = net.cost().bitSerialOp();
    net.baseOpAccount(op_cost);
    for (unsigned p = 0; p < l; ++p) {
        net.baseOpAccount(op_cost);
        net.parallelFor(k, [&](std::size_t i) {
            net.vectorCirculateAccount(Axis::Row, i);
        });
    }

    // Step 4: global ranks to every cycle of the row.
    net.parallelFor(k, [&](std::size_t i) {
        net.sumCycleToCycleAccount(Axis::Row, i);
    });

    // Step 5: L pipelined output beats; at beat p, port j emits the
    // value of rank p*K + j.  The ranks are a permutation of [0, K*L)
    // (ties are broken by global index, padding included), so every
    // beat of every column is filled exactly once.
    const unsigned k_log = vlsi::ilog2Floor(k); // K is a power of two
    thread_local std::vector<std::uint8_t> filled;
    filled.assign(capacity, 0);
    for (std::size_t g = 0; g < capacity; ++g) {
        const std::uint64_t r = rank[g];
        assert(r < capacity && "SORT-OTC rank out of range");
        assert(!filled[r] && "SORT-OTC ranks must be unique");
        filled[r] = 1;
        net.colStream(r & (k - 1))[r >> k_log] = x[g];
    }
    assert(std::count(filled.begin(), filled.end(), 1) ==
               static_cast<std::ptrdiff_t>(capacity) &&
           "every output beat needs exactly one rank");
    net.parallelFor(k, [&](std::size_t) {
        // One stream through the column tree, with the in-cycle
        // selection (move-to-D(0)) overlapped beat by beat.
        net.charge(net.streamCost() + (l - 1) * net.circulateCost());
    });

    SortOtcResult result;
    result.sorted.resize(values.size());
    for (std::size_t g = 0; g < values.size(); ++g)
        result.sorted[g] = net.colStream(g % k)[g / k];
    result.time = net.now() - start;
    return result;
}

SortOtcResult
sortOtc(const std::vector<std::uint64_t> &values,
        const vlsi::CostModel &cost)
{
    std::size_t n = values.size() ? values.size() : 1;
    unsigned l = vlsi::logCeilAtLeast1(n);
    std::size_t k = vlsi::nextPow2(vlsi::ceilDiv(n, l));
    OtcNetwork net(k, l, cost);
    return sortOtc(net, values);
}

} // namespace ot::otc
