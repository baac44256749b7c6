/**
 * @file
 * Network explorer: an interactive-style CLI that, for a given problem
 * size, prints every network's paper-formula area/time/AT^2 for each
 * problem, the crossover points between networks, and the layout
 * schematics — a guided tour of the paper's Section VII comparison.
 *
 * Run: ./build/examples/network_explorer [N] [--art]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "orthotree/orthotree.hh"

namespace {

using namespace ot;

void
printProblem(analysis::Problem problem, double n)
{
    const std::vector<analysis::Network> nets{
        analysis::Network::Mesh, analysis::Network::Psn,
        analysis::Network::Ccc, analysis::Network::Otn,
        analysis::Network::Otc};

    std::printf("\n%s at N = %.0f (Thompson's model, constants = 1):\n",
                analysis::toString(problem).c_str(), n);
    analysis::TextTable t({"network", "area", "time", "AT^2", "AT^2 rank"});

    // Rank networks by AT^2.
    std::vector<std::pair<double, analysis::Network>> ranked;
    for (auto net : nets)
        ranked.emplace_back(
            analysis::paperFormula(net, problem,
                                   vlsi::DelayModel::Logarithmic, n)
                .at2(),
            net);
    std::sort(ranked.begin(), ranked.end(),
              [](auto &a, auto &b) { return a.first < b.first; });

    for (auto net : nets) {
        auto a = analysis::paperFormula(net, problem,
                                        vlsi::DelayModel::Logarithmic, n);
        std::size_t rank = 0;
        for (std::size_t i = 0; i < ranked.size(); ++i)
            if (ranked[i].second == net)
                rank = i + 1;
        // Not `"#" + ...`: GCC 12's -Wrestrict misfires on it at -O3.
        std::string rank_cell = "#";
        rank_cell += std::to_string(rank);
        t.addRow({analysis::toString(net),
                  analysis::formatQuantity(a.area),
                  analysis::formatQuantity(a.time),
                  analysis::formatQuantity(a.at2()), rank_cell});
    }
    std::printf("%s", t.str().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    double n = 1024;
    bool art = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--art") == 0)
            art = true;
        else
            n = std::strtod(argv[i], nullptr);
    }
    if (n < 4) {
        std::fprintf(stderr, "usage: %s [N >= 4] [--art]\n", argv[0]);
        return 1;
    }

    std::printf("orthotree network explorer — the Section VII "
                "comparison at your N\n");

    for (auto p : {analysis::Problem::Sorting, analysis::Problem::BoolMatMul,
                   analysis::Problem::ConnectedComponents,
                   analysis::Problem::Mst})
        printProblem(p, n);

    std::printf("\ncrossovers (smallest power-of-two N where the first "
                "network's AT^2 beats the second's):\n");
    struct Pair
    {
        analysis::Network a, b;
        analysis::Problem p;
    };
    const Pair pairs[] = {
        {analysis::Network::Otc, analysis::Network::Psn,
         analysis::Problem::ConnectedComponents},
        {analysis::Network::Otc, analysis::Network::Mesh,
         analysis::Problem::ConnectedComponents},
        {analysis::Network::Otc, analysis::Network::Ccc,
         analysis::Problem::BoolMatMul},
        {analysis::Network::Otn, analysis::Network::Psn,
         analysis::Problem::Sorting},
    };
    for (const auto &pr : pairs) {
        double c = analysis::at2Crossover(pr.a, pr.b, pr.p,
                                          vlsi::DelayModel::Logarithmic);
        if (c > 0)
            std::printf("  %-4s beats %-4s on %-30s from N = %.0f\n",
                        analysis::toString(pr.a).c_str(),
                        analysis::toString(pr.b).c_str(),
                        analysis::toString(pr.p).c_str(), c);
        else
            std::printf("  %-4s never beats %-4s on %s (up to 1e9)\n",
                        analysis::toString(pr.a).c_str(),
                        analysis::toString(pr.b).c_str(),
                        analysis::toString(pr.p).c_str());
    }

    if (art) {
        std::printf("\nFig. 1 — the (4 x 4)-OTN:\n%s\n",
                    layout::OtnLayout(4, 4).asciiArt().c_str());
        layout::OtcLayout otc(4, 4, 8);
        std::printf("Fig. 2 — one OTC cycle:\n%s\n",
                    otc.cycleAsciiArt().c_str());
        std::printf("Fig. 3 — the (4 x 4)-OTC:\n%s\n",
                    otc.asciiArt().c_str());
    } else {
        std::printf("\n(add --art for the Fig. 1-3 layout schematics)\n");
    }
    return 0;
}
