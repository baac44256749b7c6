/**
 * @file
 * Reset restores the power-on state: after a network has run every
 * algorithm it serves natively, clearing its registers and its root
 * ports (streams, on the OTC) must leave all 12 register planes zero
 * and every port kNull — exactly what a freshly built network holds.
 * A register write that escaped the reset would otherwise leak into
 * the next run on a reused (cached) machine.
 *
 * Each case runs on one host thread, where the reset clears only the
 * planes the runs marked dirty (the topology adapters' setting), and
 * on four, where the register file keeps every plane marked.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/generators.hh"
#include "linalg/matrix.hh"
#include "otc/connected_components_native.hh"
#include "otc/emulated_otn.hh"
#include "otc/mst_native.hh"
#include "otc/network.hh"
#include "otc/sort.hh"
#include "otn/connected_components.hh"
#include "otn/matmul.hh"
#include "otn/mst.hh"
#include "otn/network.hh"
#include "otn/registers.hh"
#include "otn/selection.hh"
#include "otn/shortest_paths.hh"
#include "otn/sort.hh"
#include "sim/rng.hh"

namespace {

using namespace ot;
using otn::kNull;
using otn::Reg;
using sim::Rng;
using vlsi::CostModel;
using vlsi::DelayModel;
using vlsi::WordFormat;

constexpr std::size_t kN = 16;

class ResetPowerOn : public ::testing::TestWithParam<unsigned>
{
};

/** One word format wide enough for every algorithm's operands. */
CostModel
wideCost()
{
    unsigned bits = std::max({otn::mstWordFormat(kN, kN * kN).bits(),
                              otn::pathWordFormat(kN, kN * kN).bits(),
                              WordFormat::forProblemSize(kN).bits(), 16u});
    return {DelayModel::Logarithmic, WordFormat(bits)};
}

bool
planeIsZero(const std::uint64_t *plane, std::size_t words)
{
    return std::all_of(plane, plane + words,
                       [](std::uint64_t w) { return w == 0; });
}

/** Number of planes holding a nonzero word (read through const). */
template <typename Net>
unsigned
dirtyPlanes(const Net &net, std::size_t words)
{
    unsigned dirty = 0;
    for (unsigned r = 0; r < otn::kNumRegs; ++r)
        dirty += !planeIsZero(net.regPlane(static_cast<Reg>(r)), words);
    return dirty;
}

/** Run everything the OTN (or the OTC-emulated OTN) serves natively. */
void
runOtnAlgorithms(otn::OrthogonalTreesNetwork &net, bool emulated)
{
    Rng rng(2024);
    std::vector<std::uint64_t> values(kN);
    for (auto &v : values)
        v = rng.uniform(0, 4 * kN);
    otn::sortOtn(net, values);
    otn::connectedComponentsOtn(net, graph::randomGnp(kN, 0.15, rng));
    auto wg = graph::randomWeightedConnected(kN, 2 * kN, rng);
    otn::mstOtn(net, wg);
    otn::ssspOtn(net, wg, 3);

    linalg::IntMatrix a(kN, kN);
    linalg::IntMatrix b(kN, kN);
    linalg::BoolMatrix ba(kN, kN, 0);
    linalg::BoolMatrix bb(kN, kN, 0);
    for (std::size_t i = 0; i < kN; ++i)
        for (std::size_t j = 0; j < kN; ++j) {
            a(i, j) = rng.uniform(0, 9);
            b(i, j) = rng.uniform(0, 9);
            ba(i, j) = rng.bernoulli(0.3) ? 1 : 0;
            bb(i, j) = rng.bernoulli(0.3) ? 1 : 0;
        }
    otn::matMulPipelined(net, a, b);
    if (emulated)
        otn::boolMatMulReplicated(net, ba, bb);
    else
        otn::boolMatMulPipelined(net, ba, bb);
}

/** The OTN adapters' reset: registers, root ports, clock. */
void
resetOtn(otn::OrthogonalTreesNetwork &net)
{
    net.clearRegs();
    for (std::size_t i = 0; i < net.n(); ++i) {
        net.rowRoot(i) = kNull;
        net.colRoot(i) = kNull;
    }
    net.resetTime();
}

void
expectOtnPowerOnState(const otn::OrthogonalTreesNetwork &net)
{
    const std::size_t words = net.n() * net.n();
    for (unsigned r = 0; r < otn::kNumRegs; ++r)
        EXPECT_TRUE(planeIsZero(net.regPlane(static_cast<Reg>(r)), words))
            << "register plane " << r << " survived the reset";
    for (std::size_t i = 0; i < net.n(); ++i) {
        EXPECT_EQ(net.rowRoot(i), kNull) << "rowRoot " << i;
        EXPECT_EQ(net.colRoot(i), kNull) << "colRoot " << i;
    }
    EXPECT_EQ(net.now(), 0u);
}

TEST_P(ResetPowerOn, OtnAfterEveryNativeAlgorithm)
{
    otn::OrthogonalTreesNetwork net(kN, wideCost(), {}, GetParam());
    runOtnAlgorithms(net, /*emulated=*/false);
    ASSERT_GE(dirtyPlanes(net, kN * kN), 4u) << "runs wrote too little";
    resetOtn(net);
    expectOtnPowerOnState(net);
}

TEST_P(ResetPowerOn, OtcEmulatedOtnAfterEveryNativeAlgorithm)
{
    otc::OtcEmulatedOtn net(kN, wideCost(), 0, GetParam());
    runOtnAlgorithms(net, /*emulated=*/true);
    ASSERT_GE(dirtyPlanes(net, kN * kN), 4u);
    resetOtn(net);
    expectOtnPowerOnState(net);
}

TEST_P(ResetPowerOn, OtcAfterNativeSortCcAndMst)
{
    const unsigned l = 4; // log2(kN)
    otc::OtcNetwork net(kN / l, l, wideCost(), GetParam());
    const std::size_t words = net.k() * net.k() * net.cycleLen();

    Rng rng(77);
    std::vector<std::uint64_t> values(kN);
    for (auto &v : values)
        v = rng.uniform(0, 4 * kN);
    otc::sortOtc(net, values);
    otc::connectedComponentsOtcNative(net, graph::randomGnp(kN, 0.15, rng));
    otc::mstOtcNative(net, graph::randomWeightedConnected(kN, 2 * kN, rng));
    ASSERT_GE(dirtyPlanes(net, words), 4u);

    // The native OTC adapter's reset: registers, port streams, clock.
    net.clearRegs();
    for (std::size_t i = 0; i < net.k(); ++i) {
        net.rowStream(i).assign(net.cycleLen(), kNull);
        net.colStream(i).assign(net.cycleLen(), kNull);
    }
    net.resetTime();

    for (unsigned r = 0; r < otn::kNumRegs; ++r)
        EXPECT_TRUE(planeIsZero(net.regPlane(static_cast<Reg>(r)), words))
            << "register plane " << r << " survived the reset";
    for (std::size_t i = 0; i < net.k(); ++i) {
        EXPECT_EQ(net.rowStream(i),
                  std::vector<std::uint64_t>(net.cycleLen(), kNull));
        EXPECT_EQ(net.colStream(i),
                  std::vector<std::uint64_t>(net.cycleLen(), kNull));
    }
    EXPECT_EQ(net.now(), 0u);
}

/**
 * The sorts and selection compute their ranks from the inputs and
 * write no register plane, so a reset after them has nothing to zero.
 * On one host thread the dirty mask must stay empty too (a file shared
 * by several threads keeps every plane marked).
 */
TEST_P(ResetPowerOn, SortsAndSelectWriteNoRegister)
{
    const unsigned threads = GetParam();
    Rng rng(91);
    std::vector<std::uint64_t> values(kN - 3);
    for (auto &v : values)
        v = rng.uniform(0, 5);

    auto expectUntouched = [&](const auto &net, std::size_t words) {
        EXPECT_EQ(dirtyPlanes(net, words), 0u);
        if (threads == 1) {
            EXPECT_EQ(net.regDirtyMask(), 0u);
        }
    };
    {
        otn::OrthogonalTreesNetwork net(kN, wideCost(), {}, threads);
        otn::sortOtn(net, values);
        expectUntouched(net, kN * kN);
    }
    {
        otn::OrthogonalTreesNetwork net(kN, wideCost(), {}, threads);
        otn::selectKthOtn(net, values, values.size() / 2);
        expectUntouched(net, kN * kN);
    }
    {
        otc::OtcEmulatedOtn net(kN, wideCost(), 0, threads);
        otn::sortOtn(net, values);
        expectUntouched(net, kN * kN);
    }
    {
        otc::OtcNetwork net(kN / 4, 4, wideCost(), threads);
        otc::sortOtc(net, values);
        expectUntouched(net, net.k() * net.k() * net.cycleLen());
    }
}

INSTANTIATE_TEST_SUITE_P(HostThreads, ResetPowerOn, ::testing::Values(1u, 4u));

} // namespace
