#include "otn/connected_components.hh"

#include <algorithm>

#include "graph/reference_algorithms.hh"
#include "otn/patterns.hh"
#include "vlsi/bitmath.hh"

namespace ot::otn {

namespace {

/*
 * Register allocation for CONNECT on the OTN:
 *   A  adjacency bits
 *   D  vertex label, authoritative copy on the diagonal
 *   B  D fanned out along rows        (B(i,j) = D(i)), step (1)
 *   C  D fanned out down columns      (C(i,j) = D(j)), step (1)
 *   T  candidate foreign labels in the base
 *   E  per-vertex best candidate, fanned out along rows
 *   H  per-component hook target, fanned out down columns
 *   G  new component label (newC) on the diagonal
 *   R  newC fanned out down columns (the relabel values)
 *   Y  gather outputs on the diagonal
 */

void
loadAdjacency(OrthogonalTreesNetwork &net, const graph::Graph &g,
              bool charged)
{
    const std::size_t n = net.n();
    linalg::IntMatrix adj(n, n, 0);
    for (std::size_t i = 0; i < g.vertices(); ++i)
        for (std::size_t j = 0; j < g.vertices(); ++j)
            adj(i, j) = g.hasEdge(i, j) ? 1 : 0;
    // Adjacency entries are single bits: unit pipeline separation.
    net.loadBase(Reg::A, adj, charged, /*separation=*/1);
}

} // namespace

ComponentsResult
connectedComponentsOtn(OrthogonalTreesNetwork &net, const graph::Graph &g,
                       bool charge_load)
{
    const std::size_t n = net.n();
    assert(g.vertices() <= n);
    const unsigned log_n = vlsi::logCeilAtLeast1(n);

    ModelTime start = net.now();
    sim::ScopedPhase phase(net.acct(), "connected-components-otn");

    loadAdjacency(net, g, charge_load);

    // Register planes, taken once: the element loops below read through
    // const pointers and write through mutable ones, BP(i, j) being
    // word i * n + j.  The pointers are valid until the next reset.
    const auto &cnet = net;
    const std::uint64_t *a = cnet.regPlane(Reg::A);
    const std::uint64_t *b = cnet.regPlane(Reg::B);
    const std::uint64_t *c = cnet.regPlane(Reg::C);
    const std::uint64_t *h = cnet.regPlane(Reg::H);
    const std::uint64_t *y = cnet.regPlane(Reg::Y);
    std::uint64_t *d = net.regPlane(Reg::D);
    std::uint64_t *newc = net.regPlane(Reg::G);
    std::uint64_t *t = net.regPlane(Reg::T);
    const ModelTime op = net.cost().bitSerialOp();
    auto at = [n](std::size_t i, std::size_t j) { return i * n + j; };

    // D(i) := i on the diagonal.
    net.baseOpDiag(op, [&](std::size_t i) { d[at(i, i)] = i; });

    const unsigned iterations = log_n + 1;
    for (unsigned iter = 0; iter < iterations; ++iter) {
        // (1) Fan the labels out: B(i,j) = D(i), C(i,j) = D(j).
        diagToRows(net, Reg::D, Reg::B);
        diagToCols(net, Reg::D, Reg::C);

        // (2) Candidate foreign labels.
        net.baseOp(op, [&](std::size_t i, std::size_t j) {
            const std::size_t k = at(i, j);
            bool edge = a[k] == 1;
            t[k] = (edge && c[k] != b[k]) ? c[k] : kNull;
        });

        // (3) Per-vertex minimum candidate, fanned back along the row.
        net.batchMinRowsToLeaves(Reg::T, Reg::E);

        // (4) Per-component minimum over the members' candidates; each
        // vertex i deposits its candidate at BP(i, D(i)), and column
        // D(i)'s tree reduces.  The result is fanned back down the
        // column and latched on the diagonal as newC.
        // Membership test along column j: B(i, j) == j.
        net.batchMinColsByKeyToLeaves(Reg::B, Reg::E, Reg::H);
        net.baseOpDiag(op, [&](std::size_t j) {
            newc[at(j, j)] = h[at(j, j)] == kNull ? j : h[at(j, j)];
        });

        // (5) Remove mutual hooks (the only cycles min-hooking can
        // create are 2-cycles [12]): of a pair hooking to each other,
        // the smaller label stays a root.  Y(j) = newC(newC(j)).
        net.batchGatherDiag(Reg::G, Reg::G, Reg::Y);
        net.baseOpDiag(op, [&](std::size_t j) {
            std::uint64_t label = newc[at(j, j)];
            if (y[at(j, j)] == j && label != j && j < label)
                newc[at(j, j)] = j;
        });

        // (6) Relabel every vertex with its root's new label:
        // D(i) := newC(D(i)).  B still holds D along the rows, from (1).
        diagToCols(net, Reg::G, Reg::R);
        gatherAtIndex(net, Reg::B, Reg::R, Reg::Y);
        net.baseOpDiag(op, [&](std::size_t i) { d[at(i, i)] = y[at(i, i)]; });

        // (7) Pointer jumping to a star: D := D(D), log N times.
        for (unsigned jump = 0; jump < log_n; ++jump) {
            net.batchGatherDiag(Reg::D, Reg::D, Reg::Y);
            net.baseOpDiag(op,
                           [&](std::size_t i) { d[at(i, i)] = y[at(i, i)]; });
        }
    }

    ComponentsResult result;
    result.iterations = iterations;
    std::vector<std::size_t> raw(g.vertices());
    for (std::size_t v = 0; v < g.vertices(); ++v)
        raw[v] = static_cast<std::size_t>(net.reg(Reg::D, v, v));
    result.labels = graph::canonicalizeLabels(raw);

    std::vector<std::size_t> distinct = result.labels;
    std::sort(distinct.begin(), distinct.end());
    result.componentCount = static_cast<std::size_t>(
        std::unique(distinct.begin(), distinct.end()) - distinct.begin());

    result.time = net.now() - start;
    return result;
}

} // namespace ot::otn
