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

    // Steps 1-4 of SORT-OTN: row root i learns rank(x(i)), column
    // root j holds x(j).
    net.batchRank();

    // Step 5, narrowed: only column 0's tree extracts — first the
    // value of rank k, then (one more traversal, after a base step in
    // which every BP loads its row index) its row index.  Both are read
    // from the roots; the two LEAFTOROOTs and the base step are charged
    // as the machine runs them.
    std::size_t index = net.n();
    for (std::size_t i = 0; i < net.n(); ++i) {
        if (net.rowRoot(i) == k) {
            assert(index == net.n() &&
                   "LEAFTOROOT requires a unique source leaf");
            index = i;
        }
    }
    assert(index < m);
    const std::uint64_t value = net.colRoot(index);
    net.leafToRootAccount(Axis::Col, 0);
    net.baseOpAccount(net.cost().bitSerialOp());
    net.leafToRootAccount(Axis::Col, 0);
    net.colRoot(0) = index;

    SelectResult result;
    result.value = value;
    result.index = index;
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
