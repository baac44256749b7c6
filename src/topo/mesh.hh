/**
 * @file
 * The mesh ("mesh"; Tables I-IV reference rows).
 *
 * The mesh is the "low area, high time" class of Section I: short
 * wires only, so its time is unaffected by the delay model
 * (Section VII-D), but sorting takes Theta(sqrt N) and matrix problems
 * Theta(N).
 *
 *  - Sorting: Batcher's bitonic network with compare-exchanges at
 *    linear distance d realised by d (within-row) or d/K (across-row)
 *    nearest-neighbour routing hops — the Thompson-Kung scheme [32].
 *    The geometric series of merge distances telescopes to Theta(K) =
 *    Theta(sqrt N) total hops.  It runs on the sqrt(N) x sqrt(N) mesh
 *    of N processors, as do the generic fallbacks.
 *  - Matrix multiplication: Cannon's algorithm, N shift-multiply
 *    rounds on an N x N processor grid.
 *  - Connected components: repeated Boolean squaring of (A + I) on the
 *    Cannon engine (log N squarings, O(N) each), then a min-label
 *    pass — Theta(N log N), one log above the Levitt-Kautz cellular
 *    bound [17] the paper cites (see EXPERIMENTS.md).
 *
 * Both geometries share the processor pitch, so one accountant and one
 * hop cost serve them; the Cannon runs report the N x N grid's area.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hh"
#include "layout/baseline_layouts.hh"
#include "linalg/matrix.hh"
#include "sim/time_accountant.hh"
#include "topo/machine.hh"
#include "trace/tracer.hh"

namespace ot::topo {

/** A sqrt(P) x sqrt(P) mesh with word-parallel links ("mesh"). */
class MeshMachine : public Machine
{
  public:
    explicit MeshMachine(const MachineSpec &spec);

    /** Processors per side of the sqrt(N) x sqrt(N) mesh. */
    std::size_t side() const { return _pe.side(); }

    /** Cost of moving one word to a 4-neighbour (word-parallel link). */
    ModelTime hopCost() const;

    /** `hops` routing steps plus a compare/ALU op. */
    ModelTime routeCost(std::uint64_t hops) const
    {
        return hops * hopCost() + 1;
    }

    void reset() override { _acct.reset(); }
    std::uint64_t area() const override { return _pe.metrics().area(); }
    std::uint64_t steps() const override { return _acct.steps(); }
    ModelTime now() const override { return _acct.now(); }
    void charge(ModelTime dt) override { _acct.advance(dt); }
    void setTracer(trace::Tracer *tracer) override
    {
        _acct.setTracer(tracer);
    }

    ModelTime exchangeStepCost(std::size_t dist) const override;
    ModelTime broadcastCost() const override;
    ModelTime reduceCost() const override;

    /** Bitonic sort of up to side()^2 values, one per processor. */
    SortRun runSort(const std::vector<std::uint64_t> &values) override;
    MatMulRun runMatMul(const linalg::IntMatrix &a,
                        const linalg::IntMatrix &b) override;
    MatMulRun runBoolMatMul(const linalg::BoolMatrix &a,
                            const linalg::BoolMatrix &b) override;
    CcRun runConnectedComponents(const graph::Graph &g) override;

  private:
    layout::MeshLayout _pe;   ///< sqrt(N) x sqrt(N): sort, fallbacks
    layout::MeshLayout _grid; ///< N x N: Cannon, components
    sim::TimeAccountant _acct;
};

/**
 * Odd-even transposition sort on the mesh snake order: N rounds of
 * nearest-neighbour compare-exchange, Theta(N) time — the naive mesh
 * sorter the Thompson-Kung bitonic routing beats by a sqrt(N) factor
 * (ablation material; the paper's Table I row is the fast one).
 */
SortRun meshOddEvenSort(MeshMachine &mesh,
                        const std::vector<std::uint64_t> &values);

} // namespace ot::topo
