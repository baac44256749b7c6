#include "replica.hh"

#include <sys/resource.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/generators.hh"
#include "graph/reference_algorithms.hh"
#include "linalg/reference.hh"
#include "sim/rng.hh"
#include "topo/machine.hh"
#include "workload/engine.hh"

namespace hostbench {

namespace {

using ot::workload::Algo;

// Draw-for-draw copies of the generators in src/workload/engine.cc.

std::vector<std::uint64_t>
sortValues(std::size_t n, ot::sim::Rng &rng)
{
    std::vector<std::uint64_t> out(n);
    for (auto &x : out)
        x = rng.uniform(0, n - 1);
    return out;
}

ot::linalg::IntMatrix
randomIntMatrix(std::size_t n, ot::sim::Rng &rng)
{
    ot::linalg::IntMatrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            m(i, j) = rng.uniform(0, 9);
    return m;
}

ot::linalg::BoolMatrix
randomBoolMatrix(std::size_t n, ot::sim::Rng &rng)
{
    ot::linalg::BoolMatrix m(n, n, 0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            m(i, j) = rng.bernoulli(0.35) ? 1 : 0;
    return m;
}

bool
boolProductMatches(const ot::linalg::IntMatrix &got,
                   const ot::linalg::BoolMatrix &expect)
{
    if (got.rows() != expect.rows() || got.cols() != expect.cols())
        return false;
    for (std::size_t i = 0; i < got.rows(); ++i)
        for (std::size_t j = 0; j < got.cols(); ++j)
            if ((got(i, j) != 0) != (expect(i, j) != 0))
                return false;
    return true;
}

/** Span name of the machine run (sort split by machine family). */
const char *
runSpanName(const ot::workload::InstanceSpec &inst)
{
    switch (inst.algo) {
      case Algo::Sort:
        return inst.net == "otn"   ? "topo.run.sort.otn"
               : inst.net == "otc" ? "topo.run.sort.otc"
                                   : "topo.run.sort.other";
      case Algo::MatMul:
        return "topo.run.matmul";
      case Algo::BoolMatMul:
        return "topo.run.boolmm";
      case Algo::ConnectedComponents:
        return "topo.run.cc";
      case Algo::Mst:
        return "topo.run.mst";
      case Algo::ShortestPaths:
        return "topo.run.sssp";
    }
    return "topo.run.other";
}

} // namespace

long
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

ReplayOutcome
replayInstance(const ot::workload::InstanceSpec &inst,
               ot::workload::NetworkCache &cache, SpanLog &log,
               std::uint64_t call)
{
    ReplayOutcome out;
    ScopedSpan whole(log, "workload.instance", call);

    ot::topo::Machine *mp = nullptr;
    {
        ScopedSpan s(log, "workload.cache.acquire", call);
        const std::uint64_t hits = cache.hits();
        mp = &cache.acquire(ot::workload::cacheKeyFor(inst),
                            ot::workload::costModelFor(inst));
        out.built = cache.hits() == hits;
        if (out.built)
            s.rename("workload.cache.build");
    }
    ot::topo::Machine &m = *mp;
    ot::sim::Rng rng(inst.seed);
    {
        ScopedSpan s(log, "topo.reset", call);
        m.reset();
    }

    const char *run = runSpanName(inst);
    // Each step runs inside a span of its layer, in the engine's order
    // (the input draws must match runInstance's exactly).
    auto in = [&](const char *name, auto &&step) {
        ScopedSpan s(log, name, call);
        return step();
    };
    std::uint64_t area = 0;
    switch (inst.algo) {
      case Algo::Sort: {
        auto values = in("inputs.gen", [&] {
            return sortValues(inst.n, rng);
        });
        auto expect = in("refs.verify", [&] {
            auto e = values;
            std::sort(e.begin(), e.end());
            return e;
        });
        auto r = in(run, [&] { return m.runSort(values); });
        out.verified = in("refs.verify", [&] {
            return r.sorted == expect;
        });
        out.time = r.time;
        area = r.area;
        break;
      }
      case Algo::MatMul: {
        auto ab = in("inputs.gen", [&] {
            auto a0 = randomIntMatrix(inst.n, rng);
            return std::pair(std::move(a0), randomIntMatrix(inst.n, rng));
        });
        const auto &a = ab.first;
        const auto &b = ab.second;
        auto r = in(run, [&] { return m.runMatMul(a, b); });
        out.verified = in("refs.verify", [&] {
            return r.product == ot::linalg::matMul(a, b);
        });
        out.time = r.time;
        area = r.area;
        break;
      }
      case Algo::BoolMatMul: {
        auto ab = in("inputs.gen", [&] {
            auto a0 = randomBoolMatrix(inst.n, rng);
            return std::pair(std::move(a0), randomBoolMatrix(inst.n, rng));
        });
        const auto &a = ab.first;
        const auto &b = ab.second;
        auto expect = in("refs.verify", [&] {
            return ot::linalg::boolMatMul(a, b);
        });
        auto r = in(run, [&] { return m.runBoolMatMul(a, b); });
        out.verified = in("refs.verify", [&] {
            return boolProductMatches(r.product, expect);
        });
        out.time = r.time;
        area = r.area;
        break;
      }
      case Algo::ConnectedComponents: {
        auto g = in("inputs.gen", [&] {
            return ot::graph::randomGnp(inst.n, 0.1, rng);
        });
        auto expect = in("refs.verify", [&] {
            return ot::graph::connectedComponents(g);
        });
        auto r = in(run, [&] { return m.runConnectedComponents(g); });
        out.verified = in("refs.verify", [&] {
            return r.labels == expect;
        });
        out.time = r.time;
        area = r.area;
        break;
      }
      case Algo::Mst: {
        auto g = in("inputs.gen", [&] {
            return ot::graph::randomWeightedConnected(inst.n, 2 * inst.n,
                                                      rng);
        });
        auto expect = in("refs.verify", [&] {
            return ot::graph::kruskalMsf(g);
        });
        auto r = in(run, [&] { return m.runMst(g); });
        out.verified = in("refs.verify", [&] {
            return r.edges == expect;
        });
        out.time = r.time;
        area = r.area;
        break;
      }
      case Algo::ShortestPaths: {
        auto gs = in("inputs.gen", [&] {
            auto g0 = ot::graph::randomWeightedConnected(
                inst.n, 2 * inst.n, rng);
            auto s0 = static_cast<std::size_t>(
                rng.uniform(0, inst.n - 1));
            return std::pair(std::move(g0), s0);
        });
        const auto &g = gs.first;
        const std::size_t src = gs.second;
        auto expect = in("refs.verify", [&] {
            return ot::graph::dijkstra(g, src);
        });
        auto r = in(run, [&] { return m.runShortestPaths(g, src); });
        out.verified = in("refs.verify", [&] {
            return r.dist == expect;
        });
        out.time = r.time;
        area = r.area;
        break;
      }
    }
    out.steps = m.steps();
    out.area = area ? area : m.area();
    return out;
}

} // namespace hostbench
