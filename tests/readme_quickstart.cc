/**
 * @file
 * README.md's Quickstart, built and run as a test so the snippet
 * cannot rot.  The region between the markers is the README's fenced
 * C++ block byte for byte; the readme_quickstart_in_sync ctest fails
 * when the two differ.
 */

// README Quickstart begin
#include <algorithm>

#include "orthotree/orthotree.hh"

int
main()
{
    // 64 distinct keys on a (64 x 64)-OTN under Thompson's log-delay
    // model.
    std::size_t n = 64;
    ot::sim::Rng rng(7);
    std::vector<std::uint64_t> values = rng.distinctValues(n, 1000);
    auto cost = ot::defaultCostModel(n);
    ot::otn::OrthogonalTreesNetwork net(n, cost);

    // SORT-OTN (paper §II-B).  r.sorted: the values, ascending.
    // r.time: model time, O(log^2 N).
    // net.chipLayout().metrics().area(): chip area, O(N^2 log^2 N).
    auto r = ot::otn::sortOtn(net, values);

    // Any registered machine, under your own cost model (paper §III,
    // §VI): connected components of a graph with 4 planted components
    // on the OTC.  cc.labels, cc.time (O(log^4 N)), otc->area() (O(N^2)).
    auto g = ot::graph::plantedComponents(n, 4, 8, rng);
    auto algo = ot::topo::Algo::ConnectedComponents;
    auto otc = ot::topo::buildMachine("otc", algo, n, cost);
    auto cc = otc->runConnectedComponents(g);

    bool sorted = std::is_sorted(r.sorted.begin(), r.sorted.end());
    return sorted && cc.labels.size() == n ? 0 : 1;
}
// README Quickstart end
