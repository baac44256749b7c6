#include "topo/mesh.hh"

#include <algorithm>
#include <cassert>

#include "graph/reference_algorithms.hh"
#include "otn/registers.hh" // kNull
#include "vlsi/bitmath.hh"

namespace ot::topo {

using otn::kNull;

namespace {

/**
 * Cannon's algorithm over the (+, *) or (OR, AND) semiring, on integer
 * or Boolean operands.  After the initial skew and s single-hop
 * rotations of A (left) and B (up), PE (i, j) holds a(i, k) and
 * b(k, j) with k = (i + j + s) mod n, so the rotations are index
 * offsets: only their routing is charged.
 */
template <class M>
linalg::IntMatrix
cannon(MeshMachine &mesh, const M &a, const M &b, bool boolean)
{
    const std::size_t n = a.rows();
    assert(a.cols() == n && b.rows() == n && b.cols() == n);

    // Initial skew: row i of A rotated left by i, column j of B
    // rotated up by j — at most n-1 hops, done once.
    linalg::IntMatrix c(n, n, 0);
    mesh.charge(mesh.routeCost(n - 1));

    // Step s: PE (i, j) multiplies a(i, k) by b(k, j) for
    // k = (i + j + s) mod n.  Along row i that is a(i, k0 + j) against
    // b's diagonal through (k0, 0), wrapping once at k = n.
    const auto *b0 = b.rowData(0);
    for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t i = 0; i < n; ++i) {
            const auto *ai = a.rowData(i);
            std::uint64_t *ci = c.rowData(i);
            const std::size_t k0 = (i + s) % n;
            for (std::size_t j = 0; j < n; ++j) {
                const std::size_t k = k0 + j < n ? k0 + j : k0 + j - n;
                const std::uint64_t bkj = b0[k * n + j];
                if (boolean)
                    ci[j] |= (ai[k] && bkj) ? 1 : 0;
                else
                    ci[j] += ai[k] * bkj;
            }
        }
        // Multiply-accumulate plus one rotation hop of A and B.
        mesh.charge(mesh.cost().bitSerialMultiply());
        mesh.charge(mesh.routeCost(1));
    }
    return c;
}

} // namespace

MeshMachine::MeshMachine(const MachineSpec &spec)
    : Machine(spec),
      _pe(spec.n, cost().word().bits()),
      _grid(spec.n * spec.n, cost().word().bits())
{
}

ModelTime
MeshMachine::hopCost() const
{
    // Word-parallel link (the mesh PE's Theta(log^2 N) area buys a
    // log N-wide port): one wire delay moves the whole word.
    return cost().edgeDelay(_pe.linkLength()) + 1;
}

ModelTime
MeshMachine::exchangeStepCost(std::size_t dist) const
{
    // The Thompson-Kung routing: distance d is d hops within a row or
    // d / side hops across rows, there and back.
    const std::size_t hops = dist < side() ? dist : dist / side();
    return 2 * hops * hopCost() + cost().bitSerialOp();
}

ModelTime
MeshMachine::broadcastCost() const
{
    // Corner to corner: the mesh diameter on word-parallel links.
    return 2 * side() * hopCost();
}

ModelTime
MeshMachine::reduceCost() const
{
    return 2 * side() * hopCost() + cost().bitSerialOp();
}

SortRun
MeshMachine::runSort(const std::vector<std::uint64_t> &values)
{
    const std::size_t k = side();
    assert(values.size() <= k * k);

    const ModelTime start = now();
    sim::ScopedPhase phase(_acct, "mesh-sort");

    std::vector<std::uint64_t> a(k * k, kNull);
    std::copy(values.begin(), values.end(), a.begin());
    // Input load: one word per boundary port, streamed across the
    // mesh: K hops to fill.
    charge(routeCost(k));
    // Partners are d columns apart (d < K) or d/K rows apart: that
    // many nearest-neighbour routing hops each way.
    bitonicSort(a, [&](std::size_t, std::size_t d) {
        charge(routeCost(2 * (d < k ? d : d / k)));
    });

    SortRun r;
    r.sorted.assign(a.begin(), a.begin() + static_cast<long>(values.size()));
    r.time = now() - start;
    return r;
}

MatMulRun
MeshMachine::runMatMul(const linalg::IntMatrix &a, const linalg::IntMatrix &b)
{
    const ModelTime start = now();
    sim::ScopedPhase phase(_acct, "mesh-matmul");
    MatMulRun r;
    r.product = cannon(*this, a, b, /*boolean=*/false);
    r.time = now() - start;
    r.area = _grid.metrics().area();
    return r;
}

MatMulRun
MeshMachine::runBoolMatMul(const linalg::BoolMatrix &a,
                           const linalg::BoolMatrix &b)
{
    const ModelTime start = now();
    sim::ScopedPhase phase(_acct, "mesh-bool-matmul");
    MatMulRun r;
    r.product = cannon(*this, a, b, /*boolean=*/true);
    r.time = now() - start;
    r.area = _grid.metrics().area();
    return r;
}

CcRun
MeshMachine::runConnectedComponents(const graph::Graph &g)
{
    const std::size_t n = g.vertices();
    const ModelTime start = now();
    sim::ScopedPhase phase(_acct, "mesh-cc");

    // reach := (A + I)^(2^ceil(log n)) by repeated Boolean squaring on
    // the Cannon engine.
    linalg::IntMatrix reach(n, n, 0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            reach(i, j) = (i == j || g.hasEdge(i, j)) ? 1 : 0;
    for (unsigned s = 0; s < vlsi::logCeilAtLeast1(n); ++s)
        reach = cannon(*this, reach, reach, /*boolean=*/true);

    // Min-label pass: one systolic column sweep.
    std::vector<std::size_t> labels(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t lab = i;
        for (std::size_t j = 0; j < n; ++j)
            if (reach(i, j))
                lab = std::min(lab, j);
        labels[i] = lab;
    }
    charge(routeCost(n));

    CcRun r;
    r.labels = graph::canonicalizeLabels(labels);
    r.time = now() - start;
    r.area = _grid.metrics().area();
    return r;
}

SortRun
meshOddEvenSort(MeshMachine &mesh, const std::vector<std::uint64_t> &values)
{
    const std::size_t k = mesh.side();
    const std::size_t total = k * k;
    assert(values.size() <= total);

    const ModelTime start = mesh.now();
    // Snake (boustrophedon) order over the grid keeps every linear
    // neighbour a mesh neighbour, so each round is one hop.
    std::vector<std::uint64_t> a(total, kNull);
    std::copy(values.begin(), values.end(), a.begin());
    mesh.charge(mesh.routeCost(k)); // input fill

    for (std::size_t round = 0; round < total; ++round) {
        for (std::size_t l = round % 2; l + 1 < total; l += 2)
            if (a[l] > a[l + 1])
                std::swap(a[l], a[l + 1]);
        mesh.charge(mesh.routeCost(1));
    }

    SortRun r;
    r.sorted.assign(a.begin(), a.begin() + static_cast<long>(values.size()));
    r.time = mesh.now() - start;
    return r;
}

} // namespace ot::topo
