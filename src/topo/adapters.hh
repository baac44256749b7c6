/**
 * @file
 * topo::Machine adapters over the orthogonal-tree simulators.
 *
 * One adapter per orthogonal-tree family: the plain OTN, the native
 * streaming OTC, the OTC-emulated OTN (Section V-A) and the
 * three-dimensional mesh of trees (Section VII-B).  Each adapter
 * delegates to the family's native algorithms — keeping the model
 * times of the pre-plugin runners bit-for-bit — and inherits the
 * generic primitive-based fallbacks for the rest, so every family
 * serves the full algorithm vocabulary.  The adapters reset their
 * (expensive) networks in place.
 *
 * The comparison networks (mesh, psn, ccc, tree, hex) are plugins of
 * their own, one class each, in topo/mesh.hh and its siblings.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.hh"
#include "linalg/matrix.hh"
#include "otc/emulated_otn.hh"
#include "otc/network.hh"
#include "otn/mesh_of_trees_3d.hh"
#include "otn/network.hh"
#include "sim/stats.hh"
#include "sim/time_accountant.hh"
#include "topo/machine.hh"
#include "trace/tracer.hh"

namespace ot::topo {

/** The plain (N x N) orthogonal trees network ("otn"). */
class OtnTopoMachine : public Machine
{
  public:
    explicit OtnTopoMachine(const MachineSpec &spec);

    void reset() override;
    std::uint64_t area() const override;
    std::uint64_t steps() const override { return _net->acct().steps(); }
    ModelTime now() const override { return _net->now(); }
    void charge(ModelTime dt) override { _net->charge(dt); }
    void setTracer(trace::Tracer *tracer) override
    {
        _net->setTracer(tracer);
    }
    const sim::StatSet &stats() const override { return _net->stats(); }

    ModelTime exchangeStepCost(std::size_t dist) const override;
    ModelTime broadcastCost() const override;
    ModelTime reduceCost() const override;

    SortRun runSort(const std::vector<std::uint64_t> &values) override;
    MatMulRun runMatMul(const linalg::IntMatrix &a,
                        const linalg::IntMatrix &b) override;
    MatMulRun runBoolMatMul(const linalg::BoolMatrix &a,
                            const linalg::BoolMatrix &b) override;
    CcRun runConnectedComponents(const graph::Graph &g) override;
    MstRun runMst(const graph::WeightedGraph &g) override;
    SsspRun runShortestPaths(const graph::WeightedGraph &g,
                             std::size_t src) override;

  protected:
    OtnTopoMachine(const MachineSpec &spec,
                   std::unique_ptr<otn::OrthogonalTreesNetwork> net);

    std::unique_ptr<otn::OrthogonalTreesNetwork> _net;
};

/** The OTC-emulated OTN ("otc-emu", Section V-A). */
// otcheck:allow(topo-fallback): the emulation charges OTN's per-hook
// costs by construction (Section V-A maps every OTN primitive onto
// the OTC cell grid); overriding them would fork the cost model the
// emulation is defined to share.
class OtcEmulatedTopoMachine : public OtnTopoMachine
{
  public:
    explicit OtcEmulatedTopoMachine(const MachineSpec &spec);

    std::uint64_t area() const override;

    /** The Table II replicated-block Boolean product. */
    MatMulRun runBoolMatMul(const linalg::BoolMatrix &a,
                            const linalg::BoolMatrix &b) override;

  private:
    otc::OtcEmulatedOtn *_emu; // owned by _net
};

/** The native streaming OTC ("otc", SORT-OTC). */
class OtcNativeTopoMachine : public Machine
{
  public:
    explicit OtcNativeTopoMachine(const MachineSpec &spec);

    void reset() override;
    std::uint64_t area() const override;
    std::uint64_t steps() const override { return _net->acct().steps(); }
    ModelTime now() const override { return _net->now(); }
    void charge(ModelTime dt) override { _net->charge(dt); }
    void setTracer(trace::Tracer *tracer) override
    {
        _net->setTracer(tracer);
    }
    const sim::StatSet &stats() const override { return _net->stats(); }

    ModelTime exchangeStepCost(std::size_t dist) const override;
    ModelTime broadcastCost() const override;
    ModelTime reduceCost() const override;

    SortRun runSort(const std::vector<std::uint64_t> &values) override;

  private:
    std::unique_ptr<otc::OtcNetwork> _net;
};

/** The (N x N x N) mesh of trees ("mot3d", Leighton's matmul). */
class Mot3dTopoMachine : public Machine
{
  public:
    explicit Mot3dTopoMachine(const MachineSpec &spec);

    void reset() override { _m.acct().reset(); }
    std::uint64_t area() const override { return _m.chipArea(); }
    std::uint64_t steps() const override { return _m.acct().steps(); }
    ModelTime now() const override { return _m.now(); }
    void charge(ModelTime dt) override { _m.acct().advance(dt); }
    void setTracer(trace::Tracer *tracer) override
    {
        _m.acct().setTracer(tracer);
    }

    ModelTime exchangeStepCost(std::size_t dist) const override;
    ModelTime broadcastCost() const override;
    ModelTime reduceCost() const override;

    MatMulRun runMatMul(const linalg::IntMatrix &a,
                        const linalg::IntMatrix &b) override;
    MatMulRun runBoolMatMul(const linalg::BoolMatrix &a,
                            const linalg::BoolMatrix &b) override;

  private:
    otn::MeshOfTrees3d _m;
};

} // namespace ot::topo
