#include "otn/selection.hh"

#include <cassert>

namespace ot::otn {

SelectResult
selectKthOtn(OrthogonalTreesNetwork &net,
             const std::vector<std::uint64_t> &values, std::size_t k)
{
    const std::size_t m = values.size();
    assert(m <= net.n() && k < m);

    ModelTime start = net.now();
    sim::ScopedPhase phase(net.acct(), "select-otn");
    net.setRowRootInputs(values);

    // Steps 1-4 of SORT-OTN, on the same batch primitives as sortOtn:
    // every BP of row i learns rank(x(i)).
    net.batchRowBroadcast(Reg::A);
    net.batchDiagToCols(Reg::A, Reg::B);
    net.batchCompareRank(Reg::A, Reg::B, Reg::F);
    net.batchCountRowsToLeaves(Reg::F, Reg::R);

    // Step 5, narrowed: only column 0's tree extracts — first the
    // value of rank k, then (one more traversal) its row index, which
    // each selected BP knows as its own address.
    Selector rank_is_k = Sel::regEq(Reg::R, k);
    net.leafToRoot(Axis::Col, 0, rank_is_k, Reg::A);
    std::uint64_t value = net.colRoot(0);

    net.baseOp(net.cost().bitSerialOp(), [&](std::size_t i, std::size_t j) {
        net.reg(Reg::X, i, j) = i;
    });
    net.leafToRoot(Axis::Col, 0, rank_is_k, Reg::X);
    std::uint64_t index = net.colRoot(0);

    SelectResult result;
    result.value = value;
    result.index = static_cast<std::size_t>(index);
    result.time = net.now() - start;
    return result;
}

SelectResult
medianOtn(OrthogonalTreesNetwork &net,
          const std::vector<std::uint64_t> &values)
{
    assert(!values.empty());
    return selectKthOtn(net, values, (values.size() - 1) / 2);
}

} // namespace ot::otn
