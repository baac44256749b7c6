#include "otn/sort.hh"

namespace ot::otn {

SortResult
sortOtn(OrthogonalTreesNetwork &net, const std::vector<std::uint64_t> &values)
{
    const std::size_t n = net.n();
    const std::size_t m = values.size();
    assert(m <= n);

    ModelTime start = net.now();
    net.setRowRootInputs(values);

    sim::ScopedPhase phase(net.acct(), "sort-otn");

    // Steps 1-4: every element's rank, computed from the inputs at
    // the row roots; the register planes the per-tree pardos of
    // Section II-B would fill are not written, but their model time,
    // counters and trace are replayed exactly (see network.hh).
    // kNull compares as +infinity, so absent ports rank last, and equal
    // values rank by position (the duplicate-safe variant at the end of
    // Section II-B).
    net.batchRank();

    // Step 5: column root i picks up the element of rank i.
    net.batchPickColByRank();

    SortResult result;
    const auto &out = net.colRootOutputs();
    result.sorted.assign(out.begin(), out.begin() + static_cast<long>(m));
    result.time = net.now() - start;
    return result;
}

SortResult
sortOtn(const std::vector<std::uint64_t> &values, const vlsi::CostModel &cost)
{
    OrthogonalTreesNetwork net(values.size(), cost);
    return sortOtn(net, values);
}

} // namespace ot::otn
