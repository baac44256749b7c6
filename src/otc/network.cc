#include "otc/network.hh"

#include <array>
#include <cstring>

#include "vlsi/bitmath.hh"

namespace ot::otc {

namespace {

/** Trace addressing of one per-tree-of-cycles primitive. */
sim::ChainEngine::SpanArgs
treeSpan(Axis axis, std::size_t idx, std::size_t k, std::uint64_t words)
{
    sim::ChainEngine::SpanArgs args;
    args.axis = axis == Axis::Row ? trace::TraceAxis::Row
                                  : trace::TraceAxis::Col;
    args.tree = static_cast<std::int64_t>(idx);
    args.levels = vlsi::logCeilAtLeast1(k);
    args.words = words;
    return args;
}

} // namespace

OtcNetwork::OtcNetwork(std::size_t cycles_per_side, unsigned cycle_len,
                       const CostModel &cost, unsigned host_threads)
    : _k(vlsi::nextPow2(cycles_per_side ? cycles_per_side : 1)),
      _l(cycle_len ? cycle_len : 1),
      _cost(cost),
      _layout(_k, _l, cost.word().bits()),
      _engine(_acct, _stats, host_threads),
      _backend(simd::activeBackend()),
      _kernels(&simd::kernelsFor(_backend)),
      _regs(otn::kNumRegs, _k * _k * _l,
            /*concurrent=*/_engine.hostThreads() > 1),
      _rowStream(_k, std::vector<std::uint64_t>(_l, kNull)),
      _colStream(_k, std::vector<std::uint64_t>(_l, kNull))
{
    _treeTraversalCost = _cost.wordAlongPath(_layout.tree().pathEdges());
    // Bounded by the wrap-around wire of the cycle plus the bit-serial
    // word shift.
    std::array<vlsi::WireLength, 1> wrap{_layout.cycleWrapLength()};
    _circulateCost = _cost.wordAlongPath(wrap);
    // L words pipelined O(log N) apart through one tree traversal,
    // interleaved with the circulations that position them.
    _streamCost = CostModel::pipelineTotal(_treeTraversalCost, _l,
                                           _cost.wordSeparation()) +
                  _circulateCost;
    // Same pipeline with per-node combining.
    _reduceStreamCost =
        CostModel::pipelineTotal(_cost.reducePath(_layout.tree().pathEdges()),
                                 _l, _cost.wordSeparation()) +
        _circulateCost;
}

void
OtcNetwork::fillReg(Reg r, std::uint64_t value)
{
    _kernels->fill(regPlane(r), std::size_t{_k} * _k * _l, value);
}

void
OtcNetwork::configureMemory(unsigned slots)
{
    _memSlots = slots;
    _mem.assign(std::size_t{_k} * _k * _l * slots, 0);
}

ModelTime
OtcNetwork::circulate(std::size_t i, std::size_t j,
                      const std::vector<Reg> &regs)
{
    // R(q) := R((q+1) mod L): contents move one position down.  The
    // cycle's stream is one contiguous L-word plane segment.
    for (Reg r : regs)
        _kernels->rotateCycles(regPlane(r) + (i * _k + j) * _l, 1, 0, _l);
    ++_engine.counter("otc.circulate");
    ModelTime dt = circulateCost();
    _engine.traceSpan("otc", "circulate", dt, {});
    charge(dt);
    return dt;
}

ModelTime
OtcNetwork::vectorCirculate(Axis axis, std::size_t idx,
                            const std::vector<Reg> &regs)
{
    // All K cycles of the vector shift concurrently: one circulate's
    // cost is charged, not K.  A row's K cycle streams are contiguous
    // (stride L); a column's are strided by a whole row (K*L).
    for (Reg r : regs) {
        std::uint64_t *plane = regPlane(r);
        if (axis == Axis::Row)
            _kernels->rotateCycles(plane + idx * _k * _l, _k, _l, _l);
        else
            _kernels->rotateCycles(plane + idx * _l, _k,
                                   std::size_t{_k} * _l, _l);
    }
    return vectorCirculateAccount(axis, idx);
}

ModelTime
OtcNetwork::vectorCirculateAccount(Axis axis, std::size_t idx)
{
    // Accounting replay of the per-cycle circulate calls: one counter
    // bump for all K, then each call's span and charge.  The charges
    // are uncharged (the K cycles shift concurrently) and only stagger
    // the spans' start stamps, so without a recording tracer the replay
    // has no effect and is skipped.
    ModelTime dt = circulateCost();
    _engine.counter("otc.circulate") += _k;
    if (_engine.tracing()) {
        _engine.runUncharged([&] {
            for (std::size_t c = 0; c < _k; ++c) {
                _engine.traceSpan("otc", "circulate", dt, {});
                charge(dt);
            }
        });
    }
    ++_engine.counter("otc.vectorCirculate");
    _engine.traceSpan("otc", "vectorCirculate", dt,
                      treeSpan(axis, idx, _k, 0));
    charge(dt);
    return dt;
}

void
OtcNetwork::streamToCycles(Axis axis, std::size_t idx,
                           const CycleSelector &sel, Reg dest)
{
    // Functionally: word q of the root stream lands in BP(q) of every
    // selected cycle (the paper's pipedo of ROOTTOLEAF +
    // VECTORCIRCULATE converges to exactly this placement).
    const std::uint64_t *stream =
        axis == Axis::Row ? _rowStream[idx].data() : _colStream[idx].data();
    for (std::size_t c = 0; c < _k; ++c) {
        auto [i, j] = cycleAddr(axis, idx, c);
        if (!sel.matches(i, j))
            continue;
        std::memcpy(regPlane(dest) + (i * _k + j) * _l, stream,
                    _l * sizeof(std::uint64_t));
    }
}

void
OtcNetwork::cycleToStream(Axis axis, std::size_t idx,
                          const CycleSelector &sel, Reg src)
{
    std::uint64_t *stream =
        axis == Axis::Row ? _rowStream[idx].data() : _colStream[idx].data();
    [[maybe_unused]] unsigned selected = 0;
    for (std::size_t c = 0; c < _k; ++c) {
        auto [i, j] = cycleAddr(axis, idx, c);
        if (!sel.matches(i, j))
            continue;
        ++selected;
        std::memcpy(stream, regPlane(src) + (i * _k + j) * _l,
                    _l * sizeof(std::uint64_t));
    }
    assert(selected <= 1 && "CYCLETOROOT requires a unique source cycle");
    if (selected == 0)
        _kernels->fill(stream, _l, kNull);
}

void
OtcNetwork::reduceToStream(Axis axis, std::size_t idx,
                           const CycleSelector &sel, Reg src, ReduceOp op)
{
    // Position-wise fold of the selected cycles' streams into the root
    // stream.  Sum (mod 2^64) and min are associative and commutative,
    // so folding whole cycle streams in index order equals the
    // machine's pairwise tree combining bit for bit.
    assert(idx < _k);
    std::uint64_t *stream =
        axis == Axis::Row ? _rowStream[idx].data() : _colStream[idx].data();
    _kernels->fill(stream, _l, op == ReduceOp::Sum ? 0 : kNull);
    const auto accum =
        op == ReduceOp::Sum ? _kernels->accumSum : _kernels->accumMin;
    const std::uint64_t *plane = regPlane(src);
    for (std::size_t c = 0; c < _k; ++c) {
        auto [i, j] = cycleAddr(axis, idx, c);
        if (sel.matches(i, j))
            accum(stream, plane + (i * _k + j) * _l, _l);
    }
}

ModelTime
OtcNetwork::streamAccount(const char *counter, const char *span, ModelTime dt,
                          Axis axis, std::size_t idx)
{
    ++_engine.counter(counter);
    _engine.traceSpan("otc", span, dt, treeSpan(axis, idx, _k, _l));
    charge(dt);
    return dt;
}

ModelTime
OtcNetwork::rootToCycleAccount(Axis axis, std::size_t idx)
{
    return streamAccount("otc.rootToCycle", "rootToCycle", _streamCost,
                         axis, idx);
}

ModelTime
OtcNetwork::cycleToRootAccount(Axis axis, std::size_t idx)
{
    return streamAccount("otc.cycleToRoot", "cycleToRoot", _streamCost,
                         axis, idx);
}

ModelTime
OtcNetwork::sumCycleToRootAccount(Axis axis, std::size_t idx)
{
    return streamAccount("otc.sumCycleToRoot", "sumCycleToRoot",
                         _reduceStreamCost, axis, idx);
}

ModelTime
OtcNetwork::cycleToCycleAccount(Axis axis, std::size_t idx)
{
    ModelTime dt = cycleToRootAccount(axis, idx);
    dt += rootToCycleAccount(axis, idx);
    ++_engine.counter("otc.cycleToCycle");
    return dt;
}

ModelTime
OtcNetwork::sumCycleToCycleAccount(Axis axis, std::size_t idx)
{
    ModelTime dt = sumCycleToRootAccount(axis, idx);
    dt += rootToCycleAccount(axis, idx);
    ++_engine.counter("otc.sumCycleToCycle");
    return dt;
}

ModelTime
OtcNetwork::rootToCycle(Axis axis, std::size_t idx, const CycleSelector &sel,
                        Reg dest)
{
    streamToCycles(axis, idx, sel, dest);
    return rootToCycleAccount(axis, idx);
}

ModelTime
OtcNetwork::cycleToRoot(Axis axis, std::size_t idx, const CycleSelector &sel,
                        Reg src)
{
    cycleToStream(axis, idx, sel, src);
    return cycleToRootAccount(axis, idx);
}

ModelTime
OtcNetwork::sumCycleToRoot(Axis axis, std::size_t idx,
                           const CycleSelector &sel, Reg src)
{
    reduceToStream(axis, idx, sel, src, ReduceOp::Sum);
    return sumCycleToRootAccount(axis, idx);
}

ModelTime
OtcNetwork::minCycleToRoot(Axis axis, std::size_t idx,
                           const CycleSelector &sel, Reg src)
{
    reduceToStream(axis, idx, sel, src, ReduceOp::Min);
    return streamAccount("otc.minCycleToRoot", "minCycleToRoot",
                         _reduceStreamCost, axis, idx);
}

ModelTime
OtcNetwork::cycleToCycle(Axis axis, std::size_t idx,
                         const CycleSelector &src_sel, Reg src,
                         const CycleSelector &dst_sel, Reg dst)
{
    cycleToStream(axis, idx, src_sel, src);
    streamToCycles(axis, idx, dst_sel, dst);
    return cycleToCycleAccount(axis, idx);
}

ModelTime
OtcNetwork::sumCycleToCycle(Axis axis, std::size_t idx,
                            const CycleSelector &src_sel, Reg src,
                            const CycleSelector &dst_sel, Reg dst)
{
    reduceToStream(axis, idx, src_sel, src, ReduceOp::Sum);
    streamToCycles(axis, idx, dst_sel, dst);
    return sumCycleToCycleAccount(axis, idx);
}

ModelTime
OtcNetwork::minCycleToCycle(Axis axis, std::size_t idx,
                            const CycleSelector &src_sel, Reg src,
                            const CycleSelector &dst_sel, Reg dst)
{
    ModelTime dt = minCycleToRoot(axis, idx, src_sel, src);
    dt += rootToCycle(axis, idx, dst_sel, dst);
    ++_engine.counter("otc.minCycleToCycle");
    return dt;
}

ModelTime
OtcNetwork::baseOp(ModelTime op_cost,
                   const std::function<void(std::size_t i, std::size_t j,
                                            std::size_t q)> &op)
{
    for (std::size_t i = 0; i < _k; ++i)
        for (std::size_t j = 0; j < _k; ++j)
            for (std::size_t q = 0; q < _l; ++q)
                op(i, j, q);
    return baseOpAccount(op_cost);
}

ModelTime
OtcNetwork::baseOpAccount(ModelTime op_cost)
{
    ++_engine.counter("otc.baseOp");
    _engine.traceSpan("otc", "baseOp", op_cost, {});
    charge(op_cost);
    return op_cost;
}

} // namespace ot::otc
