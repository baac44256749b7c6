/**
 * @file
 * The three-dimensional mesh of trees — Section VII-B's closing
 * comparison point.
 *
 * "Leighton describes an interesting network called the
 * three-dimensional mesh of trees (a generalization of the OTN to
 * three dimensions).  Using this network, he is able to get an
 * efficient AT^2 bound for matrix multiplication (area = O(N^4), time
 * = O(log N), AT^2 = O(N^4 log^2 N))."
 *
 * The machine is an N x N x N lattice of base processors; every axis
 * line (fix two coordinates, vary the third) is the leaf set of a
 * complete binary tree.  Matrix multiplication is three tree phases:
 *
 *   1. broadcast a(i, k) down the j-axis tree of line (i, *, k),
 *   2. broadcast b(k, j) down the i-axis tree of line (*, j, k),
 *   3. multiply in every cell and SUM up the k-axis tree of line
 *      (i, j, *), whose root outputs c(i, j).
 *
 * Under the constant-delay model that is O(log N); under Thompson's
 * model each traversal is O(log^2 N) (the layout has O(N^2)-long
 * wires), which is what our accounting charges.  The 2D layout area is
 * Theta(N^4): N^2 trees per axis with N^2-separation leaves.
 */

#pragma once

#include <cstdint>

#include "layout/tree_embedding.hh"
#include "linalg/matrix.hh"
#include "otn/matmul.hh" // MatMulResult
#include "otn/network.hh"
#include "sim/stats.hh"
#include "sim/time_accountant.hh"
#include "vlsi/cost_model.hh"

namespace ot::otn {

/** Simulator of an (N x N x N) mesh of trees. */
class MeshOfTrees3d
{
  public:
    MeshOfTrees3d(std::size_t n, const vlsi::CostModel &cost);

    std::size_t n() const { return _n; }
    const vlsi::CostModel &cost() const { return _cost; }
    sim::TimeAccountant &acct() { return _acct; }
    const sim::TimeAccountant &acct() const { return _acct; }
    ModelTime now() const { return _acct.now(); }

    /** 2D chip area of the 3D structure: Theta(N^4). */
    std::uint64_t chipArea() const;

    /** Longest wire in the 2D embedding: Theta(N^2). */
    vlsi::WireLength longestWire() const;

    /** One word root<->leaf along an axis tree. */
    ModelTime treeTraversalCost() const;

    /** One combining traversal (the SUM phase). */
    ModelTime treeReduceCost() const;

    /** C = A * B in three tree phases (integer semiring). */
    MatMulResult matMul(const linalg::IntMatrix &a,
                        const linalg::IntMatrix &b);

    /** Boolean (AND/OR) product. */
    MatMulResult boolMatMul(const linalg::BoolMatrix &a,
                            const linalg::BoolMatrix &b);

  private:
    MatMulResult multiplyImpl(const linalg::IntMatrix &a,
                              const linalg::IntMatrix &b, bool boolean);

    std::size_t _n;
    vlsi::CostModel _cost;
    layout::TreeEmbedding _axisTree;
    sim::TimeAccountant _acct;
    sim::StatSet _stats;
};

} // namespace ot::otn
