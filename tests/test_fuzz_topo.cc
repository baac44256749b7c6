/**
 * @file
 * Differential fuzzing along the topology-registry axis: random
 * inputs drawn per (algorithm, topology, size, seed) cell, each run
 * through the registry-built machine and checked against the
 * sequential reference — the same shape as the ShadowOtc fuzzers, but
 * with the *registry* as the fuzzed dimension, so a newly registered
 * topology is fuzzed with zero new code.  Also pins the determinism
 * contract per machine: reruns after reset() — even with another
 * algorithm run in between — reproduce a fresh machine's outputs and
 * model times exactly, and the primitive accounting hooks are pure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hh"
#include "graph/reference_algorithms.hh"
#include "linalg/reference.hh"
#include "sim/rng.hh"
#include "topo/machine.hh"
#include "topo/registry.hh"

namespace {

using namespace ot;
using sim::Rng;
using topo::Algo;

std::unique_ptr<topo::Machine>
buildFor(const std::string &net, Algo algo, std::size_t n)
{
    return topo::registry().build(topo::resolveSpec(
        net, algo, n, vlsi::DelayModel::Logarithmic, false));
}

TEST(TopoFuzz, SortMatchesReferenceOnEveryTopology)
{
    for (const std::string &net : topo::registry().names()) {
        for (std::size_t n : {8, 16, 32}) {
            auto machine = buildFor(net, Algo::Sort, n);
            for (std::uint64_t seed = 1; seed <= 5; ++seed) {
                Rng rng(seed * 977 + n);
                std::vector<std::uint64_t> values(n);
                for (auto &v : values)
                    v = rng.uniform(0, 4 * n);
                auto expect = values;
                std::sort(expect.begin(), expect.end());
                machine->reset();
                auto run = machine->runSort(values);
                ASSERT_EQ(run.sorted, expect)
                    << net << " n=" << n << " seed=" << seed;
            }
        }
    }
}

TEST(TopoFuzz, GraphAlgorithmsMatchReferencesOnEveryTopology)
{
    for (const std::string &net : topo::registry().names()) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            const std::size_t n = 16;
            Rng rng(seed * 31 + 7);

            auto machine = buildFor(net, Algo::ConnectedComponents, n);
            auto g = graph::randomGnp(n, 0.15, rng);
            auto cc = machine->runConnectedComponents(g);
            ASSERT_EQ(cc.labels, graph::connectedComponents(g))
                << net << " cc seed=" << seed;

            auto wg = graph::randomWeightedConnected(n, 2 * n, rng);
            auto mstMachine = buildFor(net, Algo::Mst, n);
            auto mst = mstMachine->runMst(wg);
            ASSERT_EQ(mst.edges, graph::kruskalMsf(wg))
                << net << " mst seed=" << seed;

            auto src = static_cast<std::size_t>(rng.uniform(0, n - 1));
            auto pathMachine = buildFor(net, Algo::ShortestPaths, n);
            auto sssp = pathMachine->runShortestPaths(wg, src);
            ASSERT_EQ(sssp.dist, graph::dijkstra(wg, src))
                << net << " sssp seed=" << seed;
        }
    }
}

TEST(TopoFuzz, MatrixProductsMatchReferencesOnEveryTopology)
{
    const std::size_t n = 16;
    for (const std::string &net : topo::registry().names()) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            Rng rng(seed);
            linalg::IntMatrix a(n, n);
            linalg::IntMatrix b(n, n);
            linalg::BoolMatrix ba(n, n, 0);
            linalg::BoolMatrix bb(n, n, 0);
            for (std::size_t i = 0; i < n; ++i)
                for (std::size_t j = 0; j < n; ++j) {
                    a(i, j) = rng.uniform(0, 9);
                    b(i, j) = rng.uniform(0, 9);
                    ba(i, j) = rng.bernoulli(0.3) ? 1 : 0;
                    bb(i, j) = rng.bernoulli(0.3) ? 1 : 0;
                }

            auto machine = buildFor(net, Algo::MatMul, n);
            auto mm = machine->runMatMul(a, b);
            ASSERT_EQ(mm.product, linalg::matMul(a, b))
                << net << " matmul seed=" << seed;

            auto boolMachine = buildFor(net, Algo::BoolMatMul, n);
            auto bmm = boolMachine->runBoolMatMul(ba, bb);
            auto expect = linalg::boolMatMul(ba, bb);
            for (std::size_t i = 0; i < n; ++i)
                for (std::size_t j = 0; j < n; ++j)
                    ASSERT_EQ(bmm.product(i, j) != 0, expect(i, j) != 0)
                        << net << " boolmm seed=" << seed << " at ("
                        << i << ", " << j << ")";
        }
    }
}

TEST(TopoFuzz, RerunsAfterResetReproduceModelTimesExactly)
{
    // A warm machine that has run a different algorithm in between
    // (connected components writes registers the sort never touches)
    // must, after reset(), sort exactly like a freshly built one:
    // same output, same model time, same steps.  A register the reset
    // missed could leave the model time alone yet corrupt the output.
    // The same holds for a matrix product after a sort.
    for (const std::string &net : topo::registry().names()) {
        const std::size_t n = 16;
        Rng rng(42);
        std::vector<std::uint64_t> values(n);
        for (auto &v : values)
            v = rng.uniform(0, 99);
        auto g = graph::randomGnp(n, 0.2, rng);

        auto fresh = buildFor(net, Algo::Sort, n);
        auto expect = fresh->runSort(values);
        const std::uint64_t freshSteps = fresh->steps();

        auto machine = buildFor(net, Algo::Sort, n);
        machine->reset();
        auto first = machine->runSort(values);
        const std::uint64_t firstSteps = machine->steps();
        machine->reset();
        auto cc = machine->runConnectedComponents(g);
        ASSERT_EQ(cc.labels, graph::connectedComponents(g)) << net;
        machine->reset();
        auto second = machine->runSort(values);

        for (const topo::SortRun *run : {&first, &second}) {
            EXPECT_EQ(run->sorted, expect.sorted) << net;
            EXPECT_EQ(run->time, expect.time) << net;
        }
        EXPECT_EQ(firstSteps, freshSteps) << net;
        EXPECT_EQ(machine->steps(), freshSteps) << net;

        // The matrix paths too (the mesh's Cannon grid and the hex
        // array share the sort's accountant): sort, reset, then
        // multiply exactly like a fresh machine.
        linalg::IntMatrix a(n, n), b(n, n);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j) {
                a(i, j) = rng.uniform(0, 9);
                b(i, j) = rng.uniform(0, 9);
            }
        auto freshMm = buildFor(net, Algo::MatMul, n);
        auto expectMm = freshMm->runMatMul(a, b);
        auto warm = buildFor(net, Algo::MatMul, n);
        warm->runSort(values);
        warm->reset();
        auto mm = warm->runMatMul(a, b);
        EXPECT_EQ(mm.product, expectMm.product) << net;
        EXPECT_EQ(mm.time, expectMm.time) << net;
        EXPECT_EQ(mm.area, expectMm.area) << net;
        EXPECT_EQ(warm->steps(), freshMm->steps()) << net;
        EXPECT_EQ(warm->area(), freshMm->area()) << net;
    }
}

TEST(TopoFuzz, PrimitiveHooksArePureAndPositive)
{
    for (const std::string &net : topo::registry().names()) {
        auto machine = buildFor(net, Algo::Sort, 32);
        for (std::size_t dist : {1, 2, 8, 16}) {
            auto a = machine->exchangeStepCost(dist);
            auto b = machine->exchangeStepCost(dist);
            EXPECT_EQ(a, b) << net << " dist=" << dist;
            EXPECT_GT(a, 0u) << net << " dist=" << dist;
        }
        EXPECT_EQ(machine->broadcastCost(), machine->broadcastCost())
            << net;
        EXPECT_GT(machine->broadcastCost(), 0u) << net;
        EXPECT_EQ(machine->reduceCost(), machine->reduceCost()) << net;
        EXPECT_GT(machine->reduceCost(), 0u) << net;
    }
}

} // namespace
