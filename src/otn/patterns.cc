#include "otn/patterns.hh"

namespace ot::otn {

ModelTime
diagToRows(OrthogonalTreesNetwork &net, Reg src, Reg dst)
{
    // Batch form of: for each row i pardo
    //   leafToLeaf(Row, i, diag, src, all, dst).
    return net.batchDiagToRows(src, dst);
}

ModelTime
diagToCols(OrthogonalTreesNetwork &net, Reg src, Reg dst)
{
    // Batch form of: for each col j pardo
    //   leafToLeaf(Col, j, diag, src, all, dst).
    return net.batchDiagToCols(src, dst);
}

ModelTime
gatherAtIndex(OrthogonalTreesNetwork &net, Reg key_by_row, Reg val_by_col,
              Reg out)
{
    // Batch form of: a baseOp in which BP(i, key(i)) copies its
    // column-broadcast value (every other BP kNull), then for each
    // row i pardo a MIN-LEAFTOROOT back to the diagonal.
    return net.batchGatherAtIndex(key_by_row, val_by_col, out);
}

} // namespace ot::otn
