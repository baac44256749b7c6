/**
 * @file
 * Recurring communication patterns built from the Section II-B
 * primitives, used by the graph algorithms of Section III.
 *
 * The graph algorithms keep one word per *vertex* (e.g. the component
 * label D(i)) in the diagonal BP(i, i) and repeatedly need to
 *
 *   - fan a vertex word out along its row (diagToRows) or its column
 *     (diagToCols), and
 *   - evaluate "indirection" D(f(i)): fetch, for every vertex i, the
 *     vertex word of the vertex whose index is stored in one of i's
 *     registers (gatherAtIndex) — the heart of pointer jumping.
 *
 * All three are O(log^2 N)-time compositions of tree primitives.  When
 * both the key and the value are vertex words, the whole fan-out plus
 * gather is one batch call, OrthogonalTreesNetwork::batchGatherDiag.
 */

#pragma once

#include "otn/network.hh"

namespace ot::otn {

/**
 * dst(i, j) := src(i, i) for every BP: each row tree broadcasts its
 * diagonal element.  One LEAFTOLEAF per row, all rows in parallel.
 */
ModelTime diagToRows(OrthogonalTreesNetwork &net, Reg src, Reg dst);

/** dst(i, j) := src(j, j): column version of diagToRows. */
ModelTime diagToCols(OrthogonalTreesNetwork &net, Reg src, Reg dst);

/**
 * Indirection through the trees:
 *
 *   out(i, i) := val(key(i))   for every vertex i,
 *
 * where `key_by_row(i, j) = key(i)` has already been fanned out along
 * rows and `val_by_col(i, j) = val(j)` down columns.  BP(i, key(i))
 * recognises itself (key equals its own column index), reads the
 * column-broadcast value, and a row reduction returns it to the
 * diagonal.  Vertices whose key is kNull (or out of range) receive
 * kNull.  Only the diagonal of `key_by_row` and the N words
 * val_by_col(i, key(i)) are read; O(N) host work.
 */
ModelTime gatherAtIndex(OrthogonalTreesNetwork &net, Reg key_by_row,
                        Reg val_by_col, Reg out);

} // namespace ot::otn
