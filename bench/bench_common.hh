/**
 * @file
 * Shared helpers for the per-table/figure benchmark binaries.
 *
 * Every bench binary does three things:
 *   1. prints the paper's asymptotic table (via analysis::paperFormula)
 *      for reference,
 *   2. sweeps N on the simulated machines, printing measured model
 *      time / layout area / AT^2 and the fitted growth exponents, so
 *      the *shape* of each row can be checked against the paper, and
 *   3. registers Google-Benchmark wall-clock benchmarks for the
 *      simulation kernels themselves (host performance).
 */

#pragma once

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "orthotree/orthotree.hh"

namespace ot::bench {

/** Random values < n for an n-element sorting problem. */
inline std::vector<std::uint64_t>
randomValues(std::size_t n, std::uint64_t seed)
{
    sim::Rng rng(seed);
    std::vector<std::uint64_t> v(n);
    for (auto &x : v)
        x = rng.uniform(0, n - 1);
    return v;
}

/**
 * Attach one run's (deterministic) model time as a counter so every
 * benchmark row shows simulated cycles next to host real time.  The
 * value is identical every iteration — the simulation is deterministic
 * — so last-write wins is exact, not an average.
 */
inline void
reportModelTime(benchmark::State &state, vlsi::ModelTime t)
{
    state.counters["model_time"] =
        benchmark::Counter(static_cast<double>(t));
}

/** Print a titled section. */
inline void
section(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

/** Print the paper's asymptotic table for one problem/model. */
inline void
printPaperTable(analysis::Problem problem, vlsi::DelayModel model,
                const std::vector<analysis::Network> &nets, double n)
{
    analysis::TextTable t({"network", "area", "time", "area*time^2"});
    for (auto net : nets) {
        auto a = analysis::paperFormula(net, problem, model, n);
        t.addRow({analysis::toString(net), analysis::formatQuantity(a.area),
                  analysis::formatQuantity(a.time),
                  analysis::formatQuantity(a.at2())});
    }
    std::printf("Paper formulas (constants = 1) at N = %.0f, %s:\n%s", n,
                vlsi::toString(model).c_str(), t.str().c_str());
}

/** One measured sweep row for the tables below. */
struct MeasuredRow
{
    std::string network;
    std::vector<double> ns;
    std::vector<double> times;
    double area = 0; // at the largest N
};

/**
 * Add one sweep point from a run on a registry machine: its model time
 * and the chip area the run modeled (the run's own, else the
 * machine's).
 */
template <class Run>
inline void
addPoint(MeasuredRow &row, std::size_t n, const Run &run,
         const topo::Machine &m)
{
    row.ns.push_back(static_cast<double>(n));
    row.times.push_back(static_cast<double>(run.time));
    row.area = static_cast<double>(run.area ? run.area : m.area());
}

/** Sort v on a fresh `net` machine under `cost`; add the point. */
inline void
measureSort(MeasuredRow &row, const char *net,
            const std::vector<std::uint64_t> &v, const vlsi::CostModel &cost)
{
    auto m = topo::buildMachine(net, topo::Algo::Sort, v.size(), cost);
    addPoint(row, v.size(), m->runSort(v), *m);
}

/**
 * Print measured rows at the largest N plus fitted growth exponents
 * (in N and in log N) for each network's time.
 */
inline void
printMeasured(const std::vector<MeasuredRow> &rows)
{
    analysis::TextTable t({"network", "area@maxN", "time@maxN",
                           "area*time^2", "time fit (N)",
                           "time fit (logN)"});
    for (const auto &r : rows) {
        auto fit_n = analysis::fitPowerLaw(r.ns, r.times);
        auto fit_l = analysis::fitPowerLawInLogN(r.ns, r.times);
        double tmax = r.times.back();
        t.addRow({r.network, analysis::formatQuantity(r.area),
                  analysis::formatQuantity(tmax),
                  analysis::formatQuantity(r.area * tmax * tmax),
                  analysis::formatExponent("N", fit_n.exponent),
                  analysis::formatExponent("logN", fit_l.exponent)});
    }
    std::printf("Measured (model time units, layout lambda^2):\n%s",
                t.str().c_str());
}

/** Standard main: print tables first, then run google-benchmark. */
#define OT_BENCH_MAIN(PRINT_FN)                                            \
    int main(int argc, char **argv)                                       \
    {                                                                      \
        PRINT_FN();                                                        \
        ::benchmark::Initialize(&argc, argv);                              \
        if (::benchmark::ReportUnrecognizedArguments(argc, argv))          \
            return 1;                                                      \
        ::benchmark::RunSpecifiedBenchmarks();                             \
        ::benchmark::Shutdown();                                           \
        return 0;                                                          \
    }

} // namespace ot::bench
