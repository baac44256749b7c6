/**
 * @file
 * Tests for the hexagonal systolic array (Kung & Leiserson [15], the
 * paper's other low-area baseline) and the native OTC vector-matrix
 * product (Section VI-B without the emulation layer).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/fitting.hh"
#include "linalg/reference.hh"
#include "otc/emulated_otn.hh"
#include "otc/matmul_native.hh"
#include "otn/matmul.hh"
#include "sim/rng.hh"
#include "topo/registry.hh"

namespace {

using namespace ot;
using sim::Rng;
using topo::Algo;
using vlsi::CostModel;
using vlsi::DelayModel;
using vlsi::WordFormat;

/** The hex array plugin for n x n products under `cost`. */
std::unique_ptr<topo::Machine>
hexArray(std::size_t n, const CostModel &cost)
{
    return topo::buildMachine("hex", Algo::MatMul, n, cost);
}

linalg::IntMatrix
randomMatrix(std::size_t n, std::uint64_t limit, Rng &rng)
{
    linalg::IntMatrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            m(i, j) = rng.uniform(0, limit - 1);
    return m;
}

TEST(HexArray, MatMulMatchesReference)
{
    Rng rng(1);
    for (std::size_t n : {2, 4, 8, 16, 32}) {
        auto a = randomMatrix(n, 8, rng);
        auto b = randomMatrix(n, 8, rng);
        auto hex = hexArray(n, CostModel(DelayModel::Logarithmic,
                                         WordFormat(32)));
        EXPECT_EQ(hex->runMatMul(a, b).product, linalg::matMul(a, b))
            << "n=" << n;
    }
}

TEST(HexArray, ProductsSmallerThanTheArrayMatchReference)
{
    // The wavefront's row walk clips j to [t - i - (m - 1), t - i]:
    // check odd sizes, and a product smaller than the array side.
    Rng rng(3);
    auto hex = hexArray(8, CostModel(DelayModel::Logarithmic,
                                     WordFormat(32)));
    for (std::size_t m : {1, 3, 5, 8}) {
        auto a = randomMatrix(m, 8, rng);
        auto b = randomMatrix(m, 8, rng);
        EXPECT_EQ(hex->runMatMul(a, b).product, linalg::matMul(a, b))
            << "m=" << m;
    }
}

TEST(HexArray, BoolMatMulMatchesReference)
{
    Rng rng(2);
    std::size_t n = 8;
    linalg::BoolMatrix a(n, n, 0), b(n, n, 0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            a(i, j) = rng.bernoulli(0.4);
            b(i, j) = rng.bernoulli(0.4);
        }
    auto hex = hexArray(n, CostModel(DelayModel::Logarithmic,
                                     WordFormat(16)));
    auto product = hex->runBoolMatMul(a, b).product;
    auto expect = linalg::boolMatMul(a, b);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            EXPECT_EQ(product(i, j), expect(i, j));
}

TEST(HexArray, BeatsAreThetaN)
{
    Rng rng(3);
    for (std::size_t n : {8, 16, 32}) {
        auto a = randomMatrix(n, 4, rng);
        auto b = randomMatrix(n, 4, rng);
        auto hex = hexArray(n, CostModel(DelayModel::Logarithmic,
                                         WordFormat(24)));
        hex->runMatMul(a, b);
        // 3n - 2 systolic beats, then the one drain step.
        EXPECT_EQ(hex->steps(), 3 * (n - 1) + 1 + 1);
    }
}

TEST(HexArray, TimeIsLinearAreaQuadratic)
{
    std::vector<double> ns, times, areas;
    Rng rng(4);
    for (std::size_t n : {8, 16, 32, 64}) {
        auto a = randomMatrix(n, 4, rng);
        auto b = randomMatrix(n, 4, rng);
        auto hex = hexArray(n, CostModel(DelayModel::Logarithmic,
                                         WordFormat(24)));
        ns.push_back(static_cast<double>(n));
        times.push_back(static_cast<double>(hex->runMatMul(a, b).time));
        areas.push_back(static_cast<double>(hex->area()));
    }
    EXPECT_NEAR(analysis::fitPowerLaw(ns, times).exponent, 1.0, 0.15);
    EXPECT_NEAR(analysis::fitPowerLaw(ns, areas).exponent, 2.0, 0.15);
}

TEST(HexArray, InsensitiveToDelayModel)
{
    // Nearest-neighbour wires only (Section I's point about the
    // mesh/hex class).
    Rng rng(5);
    std::size_t n = 16;
    auto a = randomMatrix(n, 4, rng);
    auto b = randomMatrix(n, 4, rng);
    auto tl = hexArray(n, CostModel(DelayModel::Logarithmic, WordFormat(24)))
                  ->runMatMul(a, b)
                  .time;
    auto tc = hexArray(n, CostModel(DelayModel::Constant, WordFormat(24)))
                  ->runMatMul(a, b)
                  .time;
    EXPECT_LT(static_cast<double>(tl) / static_cast<double>(tc), 4.0);
}

TEST(HexArray, AgreesWithCannonMesh)
{
    Rng rng(6);
    std::size_t n = 16;
    auto a = randomMatrix(n, 6, rng);
    auto b = randomMatrix(n, 6, rng);
    CostModel cm(DelayModel::Logarithmic, WordFormat(32));
    EXPECT_EQ(hexArray(n, cm)->runMatMul(a, b).product,
              topo::buildMachine("mesh", Algo::MatMul, n, cm)
                  ->runMatMul(a, b)
                  .product);
}

// ------------------------------------------------- native OTC vecmat

CostModel
otcCost(std::size_t n, std::uint64_t entry_limit)
{
    unsigned bits =
        vlsi::logCeilAtLeast1(n * entry_limit * entry_limit + 1) + 2;
    return {DelayModel::Logarithmic, WordFormat(bits)};
}

TEST(VecMatMulOtcNative, IdentityMatrix)
{
    otc::OtcNetwork net(4, 3, otcCost(12, 10));
    auto b = linalg::IntMatrix::identity(12);
    std::vector<std::uint64_t> a(12);
    for (std::size_t k = 0; k < 12; ++k)
        a[k] = k + 1;
    auto r = otc::vecMatMulOtc(net, a, b);
    EXPECT_EQ(r.product, a);
}

class VecMatOtcRandom
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned, int>>
{
};

TEST_P(VecMatOtcRandom, MatchesReference)
{
    auto [k, l, seed] = GetParam();
    std::size_t n = k * l;
    Rng rng(static_cast<std::uint64_t>(seed) * 37 + n);
    otc::OtcNetwork net(k, l, otcCost(n, 6));
    linalg::IntMatrix b(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            b(i, j) = rng.uniform(0, 5);
    std::vector<std::uint64_t> a(n);
    for (auto &x : a)
        x = rng.uniform(0, 5);
    auto r = otc::vecMatMulOtc(net, a, b);
    EXPECT_EQ(r.product, linalg::vecMatMul(a, b))
        << "k=" << k << " l=" << l;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VecMatOtcRandom,
    ::testing::Combine(::testing::Values(2, 4, 8),
                       ::testing::Values(2, 3, 5),
                       ::testing::Values(1, 2)));

TEST(VecMatMulOtcNative, TimeIsLogSquaredOnStandardMachine)
{
    // K = N / log N, L = log N: the product (excluding the one-time
    // matrix fill) is O(log^2 N).
    Rng rng(7);
    double lo = 1e18, hi = 0;
    for (std::size_t n : {64, 256, 1024}) {
        unsigned l = vlsi::logCeilAtLeast1(n);
        std::size_t k = n / l;
        otc::OtcNetwork net(k, l, otcCost(n, 3));
        std::size_t real_n = net.k() * l;
        linalg::IntMatrix b(real_n, real_n);
        for (std::size_t i = 0; i < real_n; ++i)
            for (std::size_t j = 0; j < real_n; ++j)
                b(i, j) = rng.uniform(0, 2);
        std::vector<std::uint64_t> a(real_n);
        for (auto &x : a)
            x = rng.uniform(0, 2);

        // Exclude the fill: measure a second product on the warm
        // machine by subtracting a first run's fill-dominated time.
        auto r1 = otc::vecMatMulOtc(net, a, b);
        EXPECT_EQ(r1.product, linalg::vecMatMul(a, b));
        double logn = std::log2(static_cast<double>(real_n));
        // The product phases: stream + L rounds + reduce.  Bound the
        // per-log^2 ratio of the whole run minus the fill estimate.
        double fill = static_cast<double>(vlsi::CostModel::pipelineTotal(
            net.treeTraversalCost(), real_n * l,
            net.cost().wordSeparation()));
        double compute = static_cast<double>(r1.time) - fill;
        ASSERT_GT(compute, 0);
        double ratio = compute / (logn * logn);
        lo = std::min(lo, ratio);
        hi = std::max(hi, ratio);
    }
    EXPECT_LT(hi / lo, 10.0);
}

TEST(VecMatMulOtcNative, AgreesWithEmulatedOtn)
{
    Rng rng(8);
    std::size_t k = 4, l = 4, n = 16;
    otc::OtcNetwork net(k, l, otcCost(n, 6));
    linalg::IntMatrix b(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            b(i, j) = rng.uniform(0, 5);
    std::vector<std::uint64_t> a(n);
    for (auto &x : a)
        x = rng.uniform(0, 5);

    auto native = otc::vecMatMulOtc(net, a, b);

    otc::OtcEmulatedOtn emu(n, otcCost(n, 6));
    emu.loadBase(otn::Reg::B, b);
    auto emulated = otn::vecMatMulOtn(emu, a);
    EXPECT_EQ(native.product, emulated);
}

} // namespace
