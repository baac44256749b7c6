#include "otn/mst.hh"

#include <algorithm>
#include <set>

#include "otn/patterns.hh"
#include "vlsi/bitmath.hh"

namespace ot::otn {

namespace {

/*
 * Register allocation (mirrors connected_components.cc):
 *   A  edge weights (kNull = no edge)
 *   D  component label on the diagonal
 *   B  D along rows, C  D down columns (fanned once per iteration)
 *   T  packed candidate edges in the base
 *   E  per-vertex best edge along rows
 *   H  per-component best edge down columns
 *   G  newC on the diagonal
 *   X  hook key (far endpoint of the chosen edge), fanned along rows
 *   R  newC down columns (the relabel values)
 *   Y  gather outputs on the diagonal
 */

/** Pack (w, u, v) so that numeric order is (w, u, v) lexicographic. */
std::uint64_t
packEdge(std::uint64_t w, std::uint64_t u, std::uint64_t v, unsigned idx_bits)
{
    return (w << (2 * idx_bits)) | (u << idx_bits) | v;
}

std::uint64_t
packedV(std::uint64_t packed, unsigned idx_bits)
{
    return packed & ((std::uint64_t{1} << idx_bits) - 1);
}

std::uint64_t
packedU(std::uint64_t packed, unsigned idx_bits)
{
    return (packed >> idx_bits) & ((std::uint64_t{1} << idx_bits) - 1);
}

std::uint64_t
packedW(std::uint64_t packed, unsigned idx_bits)
{
    return packed >> (2 * idx_bits);
}

} // namespace

vlsi::WordFormat
mstWordFormat(std::size_t n, std::uint64_t max_weight)
{
    unsigned idx_bits = vlsi::logCeilAtLeast1(vlsi::nextPow2(n ? n : 1));
    unsigned w_bits = vlsi::logCeilAtLeast1(max_weight + 1) + 1;
    // One spare bit keeps every packed word strictly below kNull.
    return vlsi::WordFormat(2 * idx_bits + w_bits + 1);
}

MstResult
mstOtn(OrthogonalTreesNetwork &net, const graph::WeightedGraph &g,
       bool charge_load)
{
    const std::size_t n = net.n();
    assert(g.vertices() <= n);
    const unsigned log_n = vlsi::logCeilAtLeast1(n);
    const unsigned idx_bits = log_n;

    ModelTime start = net.now();
    sim::ScopedPhase phase(net.acct(), "mst-otn");

    // Load the weight matrix (kNull marks absent edges).
    {
        linalg::IntMatrix w(n, n, 0);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                w(i, j) = (i < g.vertices() && j < g.vertices() &&
                           g.hasEdge(i, j))
                              ? g.weight(i, j)
                              : kNull;
        // Check the packed form fits the machine word.
        for (std::size_t i = 0; i < g.vertices(); ++i)
            for (std::size_t j = 0; j < g.vertices(); ++j)
                if (g.hasEdge(i, j))
                    assert(net.fitsWord(
                        packEdge(g.weight(i, j), i, j, idx_bits)));
        net.loadBase(Reg::A, w, charge_load);
    }

    // Register planes, taken once (see connected_components.cc).
    const auto &cnet = net;
    const std::uint64_t *a = cnet.regPlane(Reg::A);
    const std::uint64_t *b = cnet.regPlane(Reg::B);
    const std::uint64_t *c = cnet.regPlane(Reg::C);
    const std::uint64_t *h = cnet.regPlane(Reg::H);
    const std::uint64_t *y = cnet.regPlane(Reg::Y);
    std::uint64_t *d = net.regPlane(Reg::D);
    std::uint64_t *newc = net.regPlane(Reg::G);
    std::uint64_t *t = net.regPlane(Reg::T);
    std::uint64_t *x = net.regPlane(Reg::X);
    const ModelTime op = net.cost().bitSerialOp();
    auto at = [n](std::size_t i, std::size_t j) { return i * n + j; };

    net.baseOpDiag(op, [&](std::size_t i) { d[at(i, i)] = i; });

    std::set<std::pair<std::size_t, std::size_t>> chosen;
    const unsigned iterations = log_n + 1;

    for (unsigned iter = 0; iter < iterations; ++iter) {
        diagToRows(net, Reg::D, Reg::B);
        diagToCols(net, Reg::D, Reg::C);

        // Candidate outgoing edges, packed (w, u, v).
        net.baseOp(op, [&](std::size_t i, std::size_t j) {
            const std::size_t k = at(i, j);
            t[k] = (a[k] != kNull && b[k] != c[k])
                       ? packEdge(a[k], i, j, idx_bits)
                       : kNull;
        });

        // Per-vertex minimum edge, fanned along the row.
        net.batchMinRowsToLeaves(Reg::T, Reg::E);

        // Per-component minimum edge (members have B(i, j) == j),
        // latched on the diagonal.
        net.batchMinColsByKeyToDiag(Reg::B, Reg::E, Reg::H);

        // Record chosen edges (the roots output them) and derive the
        // hook key: the far endpoint v of the chosen edge.
        net.baseOpDiag(op, [&](std::size_t j) {
            std::uint64_t best = h[at(j, j)];
            if (best == kNull) {
                x[at(j, j)] = kNull;
                return;
            }
            auto u = packedU(best, idx_bits);
            auto v = packedV(best, idx_bits);
            assert(packedW(best, idx_bits) == g.weight(u, v));
            chosen.insert({std::min(u, v), std::max(u, v)});
            x[at(j, j)] = v;
        });

        // newC(r) = D(v): label of the component at the far end.
        diagToRows(net, Reg::X, Reg::X); // fan the key along rows
        gatherAtIndex(net, Reg::X, Reg::C, Reg::Y);
        net.baseOpDiag(op, [&](std::size_t j) {
            std::uint64_t target = y[at(j, j)];
            newc[at(j, j)] = target == kNull ? j : target;
        });

        // 2-cycle fix: mutual hooks keep the smaller label.
        net.batchGatherDiag(Reg::G, Reg::G, Reg::Y);
        net.baseOpDiag(op, [&](std::size_t j) {
            std::uint64_t label = newc[at(j, j)];
            if (y[at(j, j)] == j && label != j && j < label)
                newc[at(j, j)] = j;
        });

        // Relabel all vertices: D(i) := newC(D(i)).
        diagToCols(net, Reg::G, Reg::R);
        gatherAtIndex(net, Reg::B, Reg::R, Reg::Y);
        net.baseOpDiag(op,
                       [&](std::size_t i) { d[at(i, i)] = y[at(i, i)]; });

        // Pointer jumping to a star.
        for (unsigned jump = 0; jump < log_n; ++jump) {
            net.batchGatherDiag(Reg::D, Reg::D, Reg::Y);
            net.baseOpDiag(
                op, [&](std::size_t i) { d[at(i, i)] = y[at(i, i)]; });
        }
    }

    MstResult result;
    result.iterations = iterations;
    for (auto [u, v] : chosen)
        result.edges.push_back({u, v, g.weight(u, v)});
    std::sort(result.edges.begin(), result.edges.end(),
              [](const graph::Edge &a, const graph::Edge &b) {
                  return std::tie(a.w, a.u, a.v) <
                         std::tie(b.w, b.u, b.v);
              });
    result.totalWeight = graph::totalWeight(result.edges);
    result.time = net.now() - start;
    return result;
}

} // namespace ot::otn
