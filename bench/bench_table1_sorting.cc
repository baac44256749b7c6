/**
 * @file
 * Experiment E1 — Table I: sorting N numbers under Thompson's
 * logarithmic-delay model on the mesh, PSN, CCC, OTN and OTC.
 *
 * Regenerates the table's rows from measurement: model time from the
 * simulated machines, area from the concrete/analytic layouts, and
 * fitted growth exponents so the asymptotic classes can be compared
 * with the paper's (mesh ~ sqrt(N); PSN/CCC ~ log^3 N; OTN/OTC ~
 * log^2 N; OTC area ~ N^2 vs OTN's N^2 log^2 N).
 */

#include "bench_common.hh"

namespace {

using namespace ot;
using namespace ot::bench;

// The OTN holds 12 registers per base processor (n^2 of them), so the
// unified sweep stops at 1024; the O(n)-memory comparison networks
// sweep further below.
const std::vector<std::size_t> kSweep{64, 128, 256, 512, 1024};

void
printTables()
{
    section("E1 / Table I: sorting, logarithmic (Thompson) delay model");
    printPaperTable(analysis::Problem::Sorting,
                    vlsi::DelayModel::Logarithmic,
                    {analysis::Network::Mesh, analysis::Network::Psn,
                     analysis::Network::Ccc, analysis::Network::Otn,
                     analysis::Network::Otc},
                    static_cast<double>(kSweep.back()));

    MeasuredRow mesh{"mesh", {}, {}, 0};
    MeasuredRow psn{"PSN", {}, {}, 0};
    MeasuredRow ccc{"CCC", {}, {}, 0};
    MeasuredRow otn{"OTN", {}, {}, 0};
    MeasuredRow otc{"OTC", {}, {}, 0};
    MeasuredRow fattree{"fat-tree", {}, {}, 0};
    MeasuredRow d2dmot{"D2D-MoT", {}, {}, 0};

    for (std::size_t n : kSweep) {
        auto v = randomValues(n, 42 + n);
        auto cost = defaultCostModel(n);
        double dn = static_cast<double>(n);

        measureSort(mesh, "mesh", v, cost);
        measureSort(psn, "psn", v, cost);
        measureSort(ccc, "ccc", v, cost);
        {
            otn::OrthogonalTreesNetwork m(n, cost);
            auto r = otn::sortOtn(m, v);
            otn.ns.push_back(dn);
            otn.times.push_back(static_cast<double>(r.time));
            otn.area =
                static_cast<double>(m.chipLayout().metrics().area());
        }
        {
            unsigned l = vlsi::logCeilAtLeast1(n);
            otc::OtcNetwork m(n / l, l, cost);
            auto r = otc::sortOtc(m, v);
            otc.ns.push_back(dn);
            otc.times.push_back(static_cast<double>(r.time));
            otc.area =
                static_cast<double>(m.chipLayout().metrics().area());
        }
        // The registry-built challengers ride the same sweep: a
        // two-layer fat-tree and the MoT NoC with diametrical links.
        measureSort(fattree, "fattree", v, cost);
        measureSort(d2dmot, "d2d-mot", v, cost);
    }

    printMeasured({mesh, psn, ccc, otn, otc, fattree, d2dmot});

    // The comparison networks store O(N) words, so they can sweep much
    // further; the asymptotic exponents separate cleanly out here.
    MeasuredRow mesh_x{"mesh (to 64K)", {}, {}, 0};
    MeasuredRow psn_x{"PSN (to 64K)", {}, {}, 0};
    MeasuredRow ccc_x{"CCC (to 64K)", {}, {}, 0};
    for (std::size_t n : {4096, 16384, 65536}) {
        auto v = randomValues(n, 17 + n);
        auto cost = defaultCostModel(n);
        measureSort(mesh_x, "mesh", v, cost);
        measureSort(psn_x, "psn", v, cost);
        measureSort(ccc_x, "ccc", v, cost);
    }
    std::printf("\nExtended baseline sweep (N = 4096...65536):\n");
    printMeasured({mesh_x, psn_x, ccc_x});

    std::printf("\nShape checks at N = %zu:\n", kSweep.back());
    std::printf("  OTN time / OTC time       = %.2f (paper: Theta(1))\n",
                otn.times.back() / otc.times.back());
    std::printf("  OTN area / OTC area       = %.1f (paper: "
                "Theta(log^2 N) = %.0f)\n",
                otn.area / otc.area,
                std::pow(std::log2(double(kSweep.back())), 2));
    std::printf("  mesh time / OTC time      = %.1f (paper: "
                "sqrt(N)/log^2 N, grows)\n",
                mesh.times.back() / otc.times.back());
    std::printf("  PSN time / OTN time       = %.2f (paper: "
                "Theta(log N))\n",
                psn.times.back() / otn.times.back());
    std::printf("  fat-tree time / OTN time  = %.2f (cross-block "
                "spine wires pay wire delay)\n",
                fattree.times.back() / otn.times.back());
    std::printf("  D2D-MoT area / OTN area   = %.3f (a NoC skeleton, "
                "not a sorter chip)\n",
                d2dmot.area / otn.area);
}

void
BM_SortOtn(benchmark::State &state)
{
    std::size_t n = static_cast<std::size_t>(state.range(0));
    auto v = randomValues(n, 7);
    auto cost = defaultCostModel(n);
    otn::OrthogonalTreesNetwork net(n, cost);
    state.SetLabel(simd::toString(net.simdBackend()));
    for (auto _ : state) {
        auto r = otn::sortOtn(net, v);
        benchmark::DoNotOptimize(r.sorted.data());
        reportModelTime(state, r.time);
    }
}
BENCHMARK(BM_SortOtn)->Arg(64)->Arg(256)->Arg(1024);

void
BM_SortOtc(benchmark::State &state)
{
    std::size_t n = static_cast<std::size_t>(state.range(0));
    auto v = randomValues(n, 7);
    auto cost = defaultCostModel(n);
    unsigned l = vlsi::logCeilAtLeast1(n);
    otc::OtcNetwork net(n / l, l, cost);
    state.SetLabel(simd::toString(net.simdBackend()));
    for (auto _ : state) {
        auto r = otc::sortOtc(net, v);
        benchmark::DoNotOptimize(r.sorted.data());
        reportModelTime(state, r.time);
    }
}
BENCHMARK(BM_SortOtc)->Arg(64)->Arg(256)->Arg(1024);

/** Registry-built sort benchmark shared by the new topologies. */
void
sortViaRegistry(benchmark::State &state, const char *net)
{
    std::size_t n = static_cast<std::size_t>(state.range(0));
    auto v = randomValues(n, 7);
    auto spec = topo::resolveSpec(net, topo::Algo::Sort, n,
                                  vlsi::DelayModel::Logarithmic, false);
    auto machine = topo::registry().build(spec);
    for (auto _ : state) {
        machine->reset();
        auto r = machine->runSort(v);
        benchmark::DoNotOptimize(r.sorted.data());
        reportModelTime(state, r.time);
    }
}

void
BM_SortMesh(benchmark::State &state)
{
    sortViaRegistry(state, "mesh");
}
BENCHMARK(BM_SortMesh)->Arg(64)->Arg(256)->Arg(1024);

void
BM_SortFatTree(benchmark::State &state)
{
    sortViaRegistry(state, "fattree");
}
BENCHMARK(BM_SortFatTree)->Arg(64)->Arg(256)->Arg(1024);

void
BM_SortD2dMot(benchmark::State &state)
{
    sortViaRegistry(state, "d2d-mot");
}
BENCHMARK(BM_SortD2dMot)->Arg(64)->Arg(256)->Arg(1024);

} // namespace

OT_BENCH_MAIN(printTables)
