#include "otc/sort.hh"

#include <cassert>
#include <iterator>

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

    // Feed the input streams: port i carries values [i*L, (i+1)*L).
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t q = 0; q < l; ++q) {
            std::size_t g = i * l + q;
            std::uint64_t v = g < values.size() ? values[g] : kNull;
            assert(net.fitsWord(v));
            net.rowStream(i)[q] = v;
        }
    }

    // Step 1: A = own group in every cycle of the row.
    net.parallelFor(k, [&](std::size_t i) {
        net.rootToCycle(Axis::Row, i, CSel::all(), Reg::A);
    });

    // Step 2: B = the column's group (from the diagonal cycle).
    net.parallelFor(k, [&](std::size_t i) {
        net.cycleToCycle(Axis::Col, i, CSel::rowIs(i), Reg::A, CSel::all(),
                         Reg::B);
    });

    // Step 3: L compare-and-circulate rounds.  After p circulations,
    // B(q) of cycle (i, j) holds group element b_j((q + p) mod L), so
    // its global index is j*L + (q+p) mod L — the tie-break for
    // duplicates (the paper's modified step 3 of SORT-OTN): C counts
    // A > B, or A == B with A's index i*L + q above B's.
    //
    // Data first, on the register planes.  A round's compare sweep
    // and its VECTORCIRCULATE of row i touch only row i's K cycles, so
    // all L rounds of a row run back to back while its words are in
    // cache; after L circulations B is back where it started, so the
    // registers end as in round-major order.  Each compare is a few
    // kernel calls over contiguous spans of the row (cycles j = 0..K-1,
    // L words each) whose tie bit is constant: tie = 1 on every cycle
    // j < i, tie = 0 on every j > i, and on the diagonal
    // q > (q+p) mod L exactly when q >= L - p (p > 0).
    const simd::KernelTable &kern = net.kernelTable();
    const std::size_t row_words = k * l;
    const std::uint64_t *plane_a = net.regPlane(Reg::A);
    std::uint64_t *plane_b = net.regPlane(Reg::B);
    std::uint64_t *plane_c = net.regPlane(Reg::C);
    for (std::size_t i = 0; i < k; ++i) {
        const std::size_t row = i * row_words;
        const std::size_t diag = i * l;
        kern.fill(plane_c + row, row_words, 0);
        for (unsigned p = 0; p < l; ++p) {
            // Spans [cuts[s], cuts[s+1]) of the row, tie = 1 at even s.
            const std::size_t cuts[] = {0, diag, diag + l - p, diag + l,
                                        row_words};
            for (std::size_t s = 0; s + 1 < std::size(cuts); ++s)
                kern.cmpRankAccum(plane_c + row + cuts[s],
                                  plane_a + row + cuts[s],
                                  plane_b + row + cuts[s],
                                  cuts[s + 1] - cuts[s], s % 2 == 0);
            kern.rotateCycles(plane_b + row, k, l, l);
        }
    }
    // Then the accounting, round by round as the machine runs it: the
    // C := 0 sweep, and per round one baseOp and a pardo of the K row
    // VECTORCIRCULATEs.
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
        net.sumCycleToCycle(Axis::Row, i, CSel::all(), Reg::C, CSel::all(),
                            Reg::R);
    });

    // Step 5: L pipelined output beats; at beat p, port j emits the
    // value of rank p*K + j.  The ranks are a permutation of [0, K*L)
    // (ties are broken by global index, padding included), so column
    // j's copies of the groups hold exactly L of them with r mod K == j
    // — one scatter over its K*L words fills every beat exactly once.
    const std::uint64_t *plane_r = net.regPlane(Reg::R);
    const unsigned k_log = vlsi::ilog2Floor(k); // K is a power of two
    net.parallelFor(k, [&](std::size_t j) {
        std::vector<std::uint64_t> &out = net.colStream(j);
        std::vector<bool> filled(l, false);
        [[maybe_unused]] std::size_t matches = 0;
        for (std::size_t i = 0; i < k; ++i) {
            const std::size_t off = (i * k + j) * l;
            for (std::size_t q = 0; q < l; ++q) {
                const std::uint64_t rank = plane_r[off + q];
                assert(rank < capacity && "SORT-OTC rank out of range");
                if ((rank & (k - 1)) != j)
                    continue;
                const std::size_t beat = rank >> k_log;
                assert(!filled[beat] && "SORT-OTC ranks must be unique");
                filled[beat] = true;
                out[beat] = plane_a[off + q];
                ++matches;
            }
        }
        assert(matches == l && "every output beat needs exactly one rank");
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
