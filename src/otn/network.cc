#include "otn/network.hh"

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <utility>

#include "vlsi/bitmath.hh"

namespace ot::otn {

namespace {

/** Trace addressing of one per-tree primitive. */
sim::ChainEngine::SpanArgs
treeSpan(Axis axis, std::size_t idx, std::size_t n, std::uint64_t words)
{
    sim::ChainEngine::SpanArgs args;
    args.axis = axis == Axis::Row ? trace::TraceAxis::Row
                                  : trace::TraceAxis::Col;
    args.tree = static_cast<std::int64_t>(idx);
    args.levels = vlsi::logCeilAtLeast1(n);
    args.words = words;
    return args;
}

/** Trace addressing of a whole-base (no single tree) operation. */
sim::ChainEngine::SpanArgs
baseSpan(std::uint64_t words)
{
    sim::ChainEngine::SpanArgs args;
    args.words = words;
    return args;
}

/** Counter and trace-span names of one tree primitive. */
struct PrimName
{
    const char *counter; ///< e.g. "otn.rootToLeaf"
    const char *span;    ///< e.g. "rootToLeaf"
};

/** One primitive of a replayed per-tree body, with its cost. */
struct TreeLeg
{
    PrimName name;
    ModelTime dt;
};

// The tree primitives a batch call replays.
constexpr PrimName kRootToLeaf{"otn.rootToLeaf", "rootToLeaf"};
constexpr PrimName kLeafToRoot{"otn.leafToRoot", "leafToRoot"};
constexpr PrimName kCountLeafToRoot{"otn.countLeafToRoot", "countLeafToRoot"};
constexpr PrimName kSumLeafToRoot{"otn.sumLeafToRoot", "sumLeafToRoot"};
constexpr PrimName kMinLeafToRoot{"otn.minLeafToRoot", "minLeafToRoot"};

/**
 * The accounting of "for each tree t on `axis` pardo: legs in order,
 * then a bump of `composite` (if any)" on an n-tree network.  With a
 * recording tracer it is replayed per tree under parallelFor.
 * Otherwise no span is recorded and every tree charges the same chain,
 * so the pardo's max is that chain and its counters are n bumps each:
 * one bump of n per counter and one charge (one clock step, like the
 * parallelFor) give the same counters, time and steps.  Returns the
 * charged chain.
 */
ModelTime
replayTrees(sim::ChainEngine &engine, std::size_t n, Axis axis,
            std::initializer_list<TreeLeg> legs,
            const char *composite = nullptr)
{
    if (!engine.tracing()) {
        ModelTime chain = 0;
        for (const TreeLeg &leg : legs) {
            engine.counter(leg.name.counter) += n;
            chain += leg.dt;
        }
        if (composite)
            engine.counter(composite) += n;
        engine.charge(chain);
        return chain;
    }
    return engine.parallelFor(n, [&](std::size_t t) {
        for (const TreeLeg &leg : legs) {
            ++engine.counter(leg.name.counter);
            engine.traceSpan("otn", leg.name.span, leg.dt,
                             treeSpan(axis, t, n, 1));
            engine.charge(leg.dt);
        }
        if (composite)
            ++engine.counter(composite);
    });
}

/** For each tree t on `axis` pardo: leafToLeaf(axis, t, diag, ·, all, ·). */
ModelTime
replayDiagFan(sim::ChainEngine &engine, std::size_t n, Axis axis,
              ModelTime leg)
{
    return replayTrees(engine, n, axis,
                       {{kLeafToRoot, leg}, {kRootToLeaf, leg}},
                       "otn.leafToLeaf");
}

} // namespace

OrthogonalTreesNetwork::OrthogonalTreesNetwork(std::size_t n,
                                               const CostModel &cost,
                                               layout::LayoutParams params,
                                               unsigned host_threads)
    : _n(vlsi::nextPow2(n ? n : 1)),
      _cost(cost),
      _layoutParams(params),
      _layout(_n, cost.word().bits(), params),
      _engine(_acct, _stats, host_threads),
      _backend(simd::activeBackend()),
      _kernels(&simd::kernelsFor(_backend)),
      _regs(kNumRegs, _n * _n, /*concurrent=*/_engine.hostThreads() > 1),
      _rowRoot(_n, kNull),
      _colRoot(_n, kNull)
{
}

void
OrthogonalTreesNetwork::setCostModel(const CostModel &cost)
{
    _cost = cost;
    _layout = layout::OtnLayout(_n, cost.word().bits(), _layoutParams);
    invalidateCostCaches();
}

void
OrthogonalTreesNetwork::setRowRootInputs(std::span<const std::uint64_t> values)
{
    assert(values.size() <= _n);
    for (std::size_t i = 0; i < values.size(); ++i) {
        assert(fitsWord(values[i]));
        _rowRoot[i] = values[i];
    }
    for (std::size_t i = values.size(); i < _n; ++i)
        _rowRoot[i] = kNull;
}

void
OrthogonalTreesNetwork::fillReg(Reg r, std::uint64_t value)
{
    _kernels->fill(regPlane(r), _n * _n, value);
}

ModelTime
OrthogonalTreesNetwork::computeTreeTraversalCost() const
{
    return _cost.wordAlongPath(_layout.tree().pathEdges());
}

ModelTime
OrthogonalTreesNetwork::computeTreeReduceCost() const
{
    return _cost.reducePath(_layout.tree().pathEdges());
}

std::uint64_t &
OrthogonalTreesNetwork::rootReg(Axis axis, std::size_t idx)
{
    assert(idx < _n);
    return axis == Axis::Row ? _rowRoot[idx] : _colRoot[idx];
}

ModelTime
OrthogonalTreesNetwork::rootToLeaf(Axis axis, std::size_t idx,
                                   const Selector &sel, Reg dest)
{
    std::uint64_t value = rootReg(axis, idx);
    if (axis == Axis::Row && sel.kind() == Sel::Kind::All) {
        // Row leaves are one contiguous plane row: broadcast with the
        // batch fill kernel instead of the per-leaf walk.
        _kernels->fill(regRow(dest, idx), _n, value);
    } else {
        for (std::size_t k = 0; k < _n; ++k) {
            auto [i, j] = leafAddr(axis, idx, k);
            if (selected(sel, i, j))
                reg(dest, i, j) = value;
        }
    }
    ++_engine.counter("otn.rootToLeaf");
    ModelTime dt = treeTraversalCost();
    _engine.traceSpan("otn", "rootToLeaf", dt, treeSpan(axis, idx, _n, 1));
    charge(dt);
    return dt;
}

ModelTime
OrthogonalTreesNetwork::leafToRoot(Axis axis, std::size_t idx,
                                   const Selector &sel, Reg src)
{
    std::uint64_t value = kNull;
    [[maybe_unused]] unsigned n_selected = 0;
    for (std::size_t k = 0; k < _n; ++k) {
        auto [i, j] = leafAddr(axis, idx, k);
        if (selected(sel, i, j)) {
            value = reg(src, i, j);
            ++n_selected;
        }
    }
    assert(n_selected <= 1 && "LEAFTOROOT requires a unique source leaf");
    rootReg(axis, idx) = value;
    return leafToRootAccount(axis, idx);
}

ModelTime
OrthogonalTreesNetwork::leafToRootAccount(Axis axis, std::size_t idx)
{
    ++_engine.counter("otn.leafToRoot");
    ModelTime dt = treeTraversalCost();
    _engine.traceSpan("otn", "leafToRoot", dt, treeSpan(axis, idx, _n, 1));
    charge(dt);
    return dt;
}

template <typename LeafValue, typename Combine>
std::uint64_t
OrthogonalTreesNetwork::reduceTree(LeafValue &&leaf_value, Combine &&combine)
{
    // Level-by-level: each IP combines the values accumulated by its
    // two sons (Section II-B, COUNT-LEAFTOROOT description).  The
    // halving is done in place in a per-host-thread scratch buffer so
    // the reduction allocates nothing in steady state.
    thread_local std::vector<std::uint64_t> level;
    level.resize(_n);
    for (std::size_t k = 0; k < _n; ++k)
        level[k] = leaf_value(k);
    for (std::size_t width = _n; width > 1; width /= 2)
        for (std::size_t k = 0; k < width / 2; ++k)
            level[k] = combine(level[2 * k], level[2 * k + 1]);
    return level[0];
}

ModelTime
OrthogonalTreesNetwork::countLeafToRoot(Axis axis, std::size_t idx, Reg flag)
{
    if (axis == Axis::Row) {
        // Counting is associative: the kernel's linear tally equals
        // the pairwise-halving tree sum bit for bit.
        rootReg(axis, idx) =
            _kernels->countNonzero(regRow(flag, idx), _n);
    } else {
        rootReg(axis, idx) = reduceTree(
            [&](std::size_t k) {
                auto [i, j] = leafAddr(axis, idx, k);
                return reg(flag, i, j) != 0 ? std::uint64_t{1} : 0;
            },
            [](std::uint64_t a, std::uint64_t b) { return a + b; });
    }
    ++_engine.counter("otn.countLeafToRoot");
    ModelTime dt = treeReduceCost();
    _engine.traceSpan("otn", "countLeafToRoot", dt,
                      treeSpan(axis, idx, _n, 1));
    charge(dt);
    return dt;
}

ModelTime
OrthogonalTreesNetwork::sumLeafToRoot(Axis axis, std::size_t idx,
                                      const Selector &sel, Reg src)
{
    if (axis == Axis::Row && sel.kind() == Sel::Kind::All) {
        // Modular sum is associative: linear order == tree order.
        rootReg(axis, idx) = _kernels->reduceSum(regRow(src, idx), _n);
    } else {
        rootReg(axis, idx) = reduceTree(
            [&](std::size_t k) -> std::uint64_t {
                auto [i, j] = leafAddr(axis, idx, k);
                return selected(sel, i, j) ? reg(src, i, j) : 0;
            },
            [](std::uint64_t a, std::uint64_t b) { return a + b; });
    }
    ++_engine.counter("otn.sumLeafToRoot");
    ModelTime dt = treeReduceCost();
    _engine.traceSpan("otn", "sumLeafToRoot", dt,
                      treeSpan(axis, idx, _n, 1));
    charge(dt);
    return dt;
}

ModelTime
OrthogonalTreesNetwork::minLeafToRoot(Axis axis, std::size_t idx,
                                      const Selector &sel, Reg src)
{
    if (axis == Axis::Row && sel.kind() == Sel::Kind::All) {
        rootReg(axis, idx) = _kernels->reduceMin(regRow(src, idx), _n);
    } else {
        rootReg(axis, idx) = reduceTree(
            [&](std::size_t k) -> std::uint64_t {
                auto [i, j] = leafAddr(axis, idx, k);
                return selected(sel, i, j) ? reg(src, i, j) : kNull;
            },
            [](std::uint64_t a, std::uint64_t b) {
                return std::min(a, b);
            });
    }
    ++_engine.counter("otn.minLeafToRoot");
    ModelTime dt = treeReduceCost();
    _engine.traceSpan("otn", "minLeafToRoot", dt,
                      treeSpan(axis, idx, _n, 1));
    charge(dt);
    return dt;
}

ModelTime
OrthogonalTreesNetwork::leafToLeaf(Axis axis, std::size_t idx,
                                   const Selector &src_sel, Reg src,
                                   const Selector &dst_sel, Reg dst)
{
    ModelTime dt = leafToRoot(axis, idx, src_sel, src);
    dt += rootToLeaf(axis, idx, dst_sel, dst);
    ++_engine.counter("otn.leafToLeaf");
    return dt;
}

ModelTime
OrthogonalTreesNetwork::countLeafToLeaf(Axis axis, std::size_t idx, Reg flag,
                                        const Selector &dst_sel, Reg dst)
{
    ModelTime dt = countLeafToRoot(axis, idx, flag);
    dt += rootToLeaf(axis, idx, dst_sel, dst);
    ++_engine.counter("otn.countLeafToLeaf");
    return dt;
}

ModelTime
OrthogonalTreesNetwork::sumLeafToLeaf(Axis axis, std::size_t idx,
                                      const Selector &src_sel, Reg src,
                                      const Selector &dst_sel, Reg dst)
{
    ModelTime dt = sumLeafToRoot(axis, idx, src_sel, src);
    dt += rootToLeaf(axis, idx, dst_sel, dst);
    ++_engine.counter("otn.sumLeafToLeaf");
    return dt;
}

ModelTime
OrthogonalTreesNetwork::minLeafToLeaf(Axis axis, std::size_t idx,
                                      const Selector &src_sel, Reg src,
                                      const Selector &dst_sel, Reg dst)
{
    ModelTime dt = minLeafToRoot(axis, idx, src_sel, src);
    dt += rootToLeaf(axis, idx, dst_sel, dst);
    ++_engine.counter("otn.minLeafToLeaf");
    return dt;
}

ModelTime
OrthogonalTreesNetwork::loadBase(Reg r, const linalg::IntMatrix &m,
                                 bool charged, ModelTime separation)
{
    assert(m.rows() <= _n && m.cols() <= _n);
    fillReg(r, kNull);
    for (std::size_t i = 0; i < m.rows(); ++i) {
        const std::uint64_t *src = m.rowData(i);
        std::uint64_t *dst = regRow(r, i);
        for (std::size_t j = 0; j < m.cols(); ++j) {
            assert(fitsWord(src[j]));
            dst[j] = src[j];
        }
    }
    if (!charged)
        return 0;
    // All row trees in parallel, each streaming up to N words from its
    // root to distinct leaves in a pipeline.
    if (separation == 0)
        separation = _cost.wordSeparation();
    ModelTime dt =
        CostModel::pipelineTotal(treeTraversalCost(), _n, separation);
    _engine.traceSpan("otn", "loadBase", dt,
                      baseSpan(static_cast<std::uint64_t>(_n) * _n));
    charge(dt);
    return dt;
}

linalg::IntMatrix
OrthogonalTreesNetwork::readBase(Reg r) const
{
    linalg::IntMatrix m(_n, _n);
    for (std::size_t i = 0; i < _n; ++i)
        std::memcpy(m.rowData(i), regRow(r, i), _n * sizeof(std::uint64_t));
    return m;
}

ModelTime
OrthogonalTreesNetwork::permutationCost(
    std::span<const std::size_t> perm) const
{
    assert(perm.size() == _n);
    // Congestion: for each internal node (identified by its level and
    // span), count words whose source and destination fall in
    // different child subtrees.  At level h (from the leaves, h >= 1)
    // the node over span s covers leaves [s*2^h, (s+1)*2^h); a word
    // k -> perm[k] crosses it iff both endpoints are in the span but
    // in different halves.
    thread_local std::vector<std::uint64_t> crossing;
    std::uint64_t busiest = 0;
    for (std::size_t span = 2; span <= _n; span <<= 1) {
        crossing.assign(_n / span, 0);
        for (std::size_t k = 0; k < _n; ++k) {
            std::size_t from_block = k / span;
            std::size_t to_block = perm[k] / span;
            if (from_block != to_block)
                continue; // crosses a higher node instead
            bool from_left = (k % span) < span / 2;
            bool to_left = (perm[k] % span) < span / 2;
            if (from_left != to_left)
                ++crossing[from_block];
        }
        for (auto c : crossing)
            busiest = std::max(busiest, c);
    }
    ModelTime drain =
        busiest > 1 ? (busiest - 1) * _cost.wordSeparation() : 0;
    return treeTraversalCost() + drain;
}

ModelTime
OrthogonalTreesNetwork::permuteLeafToLeaf(Axis axis, std::size_t idx,
                                          std::span<const std::size_t> perm,
                                          Reg src, Reg dst)
{
    assert(perm.size() == _n);
#ifndef NDEBUG
    {
        std::vector<bool> seen(_n, false);
        for (std::size_t k = 0; k < _n; ++k) {
            assert(perm[k] < _n && !seen[perm[k]] &&
                   "perm must be a permutation");
            seen[perm[k]] = true;
        }
    }
#endif
    thread_local std::vector<std::uint64_t> moved;
    moved.resize(_n);
    for (std::size_t k = 0; k < _n; ++k) {
        auto [i, j] = leafAddr(axis, idx, k);
        moved[perm[k]] = reg(src, i, j);
    }
    for (std::size_t k = 0; k < _n; ++k) {
        auto [i, j] = leafAddr(axis, idx, k);
        reg(dst, i, j) = moved[k];
    }
    ++_engine.counter("otn.permuteLeafToLeaf");
    ModelTime dt = permutationCost(perm);
    _engine.traceSpan("otn", "permuteLeafToLeaf", dt,
                      treeSpan(axis, idx, _n, 0));
    charge(dt);
    return dt;
}

ModelTime
OrthogonalTreesNetwork::prefixSumLeafToLeaf(Axis axis, std::size_t idx,
                                            const Selector &src_sel,
                                            Reg src, Reg dst)
{
    // Two-sweep scan over the implicit tree.  The simulation computes
    // the running sum directly (it is equivalent to the up/down
    // sweeps); the cost is two combining traversals.
    std::uint64_t running = 0;
    for (std::size_t k = 0; k < _n; ++k) {
        auto [i, j] = leafAddr(axis, idx, k);
        if (selected(src_sel, i, j))
            running += reg(src, i, j);
        reg(dst, i, j) = running;
    }
    ++_engine.counter("otn.prefixSumLeafToLeaf");
    ModelTime dt = 2 * treeReduceCost();
    _engine.traceSpan("otn", "prefixSumLeafToLeaf", dt,
                      treeSpan(axis, idx, _n, 0));
    charge(dt);
    return dt;
}

ModelTime
OrthogonalTreesNetwork::baseOpAccount(ModelTime op_cost)
{
    ModelTime dt = baseOpCost(op_cost);
    ++_engine.counter("otn.baseOp");
    _engine.traceSpan("otn", "baseOp", dt, baseSpan(0));
    charge(dt);
    return dt;
}

ModelTime
OrthogonalTreesNetwork::gatherAccount()
{
    ModelTime dt = baseOpAccount(_cost.bitSerialOp());
    return dt + replayTrees(_engine, _n, Axis::Row,
                            {{kMinLeafToRoot, treeReduceCost()},
                             {kRootToLeaf, treeTraversalCost()}});
}

// ----------------------------------------------------------------------
// Batch primitives.
//
// Each runs the data movement of all N per-tree primitives through the
// kernel table first (plane-contiguous, single-threaded), then replays
// the per-tree model-time accounting through replayTrees() — the same
// counters, trace spans and charges, in the same per-iteration order —
// so every accounting observable is bit-identical to the per-tree
// formulation at any OT_HOST_THREADS.
// ----------------------------------------------------------------------

ModelTime
OrthogonalTreesNetwork::batchRowBroadcast(Reg dest)
{
    for (std::size_t i = 0; i < _n; ++i)
        _kernels->fill(regRow(dest, i), _n, _rowRoot[i]);
    return replayTrees(_engine, _n, Axis::Row,
                       {{kRootToLeaf, treeTraversalCost()}});
}

ModelTime
OrthogonalTreesNetwork::batchDiagToRows(Reg src, Reg dst)
{
    for (std::size_t i = 0; i < _n; ++i) {
        std::uint64_t v = reg(src, i, i);
        _rowRoot[i] = v;
        _kernels->fill(regRow(dst, i), _n, v);
    }
    return replayDiagFan(_engine, _n, Axis::Row, treeTraversalCost());
}

ModelTime
OrthogonalTreesNetwork::batchDiagToCols(Reg src, Reg dst)
{
    // Every column j delivers reg(src, j, j) to all of its leaves, so
    // each destination row is the same vector of diagonal values: one
    // strided gather, then N contiguous row copies.
    for (std::size_t j = 0; j < _n; ++j)
        _colRoot[j] = reg(src, j, j);
    for (std::size_t k = 0; k < _n; ++k)
        std::memcpy(regRow(dst, k), _colRoot.data(),
                    _n * sizeof(std::uint64_t));
    return replayDiagFan(_engine, _n, Axis::Col, treeTraversalCost());
}

ModelTime
OrthogonalTreesNetwork::batchRank()
{
    // Step 2 leaves the diagonal's x(j) at column root j; step 4 the
    // count of row i's flags, i.e. the rank of x(i), at row root i.
    std::copy(_rowRoot.begin(), _rowRoot.end(), _colRoot.begin());
    _kernels->enumRank(_rowRoot.data(), _colRoot.data(), _n);
    const ModelTime trav = treeTraversalCost();
    ModelTime dt = replayTrees(_engine, _n, Axis::Row, {{kRootToLeaf, trav}});
    dt += replayDiagFan(_engine, _n, Axis::Col, trav);
    dt += baseOpAccount(_cost.bitSerialOp());
    return dt + replayTrees(_engine, _n, Axis::Row,
                            {{kCountLeafToRoot, treeReduceCost()},
                             {kRootToLeaf, trav}},
                            "otn.countLeafToLeaf");
}

ModelTime
OrthogonalTreesNetwork::batchPickColByRank()
{
    thread_local std::vector<std::uint64_t> x;
    thread_local std::vector<std::uint8_t> hit;
    x = _colRoot;
    hit.assign(_n, 0);
    _kernels->fill(_colRoot.data(), _n, kNull);
    for (std::size_t i = 0; i < _n; ++i) {
        const std::uint64_t r = _rowRoot[i];
        if (r >= _n)
            continue;
        assert(!hit[r] && "LEAFTOROOT requires a unique source leaf");
        hit[r] = 1;
        _colRoot[r] = x[i];
    }
    return replayTrees(_engine, _n, Axis::Col,
                       {{kLeafToRoot, treeTraversalCost()}});
}

ModelTime
OrthogonalTreesNetwork::batchMinRowsToLeaves(Reg src, Reg dst)
{
    for (std::size_t i = 0; i < _n; ++i) {
        std::uint64_t m = _kernels->reduceMin(regRow(src, i), _n);
        _rowRoot[i] = m;
        _kernels->fill(regRow(dst, i), _n, m);
    }
    return replayTrees(_engine, _n, Axis::Row,
                       {{kMinLeafToRoot, treeReduceCost()},
                        {kRootToLeaf, treeTraversalCost()}});
}

ModelTime
OrthogonalTreesNetwork::batchMinColsToRoots(Reg src)
{
    _kernels->fill(_colRoot.data(), _n, kNull);
    for (std::size_t i = 0; i < _n; ++i)
        _kernels->accumMin(_colRoot.data(), regRow(src, i), _n);
    return replayTrees(_engine, _n, Axis::Col,
                       {{kMinLeafToRoot, treeReduceCost()}});
}

void
OrthogonalTreesNetwork::minColsByKeyIndex(Reg key, Reg src)
{
    _kernels->fill(_colRoot.data(), _n, kNull);
    for (std::size_t i = 0; i < _n; ++i)
        _kernels->accumMinEqIndexRow(_colRoot.data(), regRow(key, i),
                                     regRow(src, i), _n);
}

ModelTime
OrthogonalTreesNetwork::batchMinColsByKeyToLeaves(Reg key, Reg src, Reg dst)
{
    minColsByKeyIndex(key, src);
    for (std::size_t k = 0; k < _n; ++k)
        std::memcpy(regRow(dst, k), _colRoot.data(),
                    _n * sizeof(std::uint64_t));
    return replayTrees(_engine, _n, Axis::Col,
                       {{kMinLeafToRoot, treeReduceCost()},
                        {kRootToLeaf, treeTraversalCost()}});
}

ModelTime
OrthogonalTreesNetwork::batchMinColsByKeyToDiag(Reg key, Reg src, Reg dst)
{
    minColsByKeyIndex(key, src);
    for (std::size_t j = 0; j < _n; ++j)
        reg(dst, j, j) = _colRoot[j];
    return replayTrees(_engine, _n, Axis::Col,
                       {{kMinLeafToRoot, treeReduceCost()},
                        {kRootToLeaf, treeTraversalCost()}});
}

ModelTime
OrthogonalTreesNetwork::batchGatherAtIndex(Reg key_by_row, Reg val_by_col,
                                           Reg out)
{
    // Row i selects the one BP(i, key(i)), so its minimum is that BP's
    // column word: read it directly.  Every root is set before `out`
    // is written.
    const std::size_t diag = _n + 1;
    const std::uint64_t *k = std::as_const(*this).regPlane(key_by_row);
    const std::uint64_t *v = std::as_const(*this).regPlane(val_by_col);
    for (std::size_t i = 0; i < _n; ++i) {
        const std::uint64_t ki = k[i * diag];
        _rowRoot[i] = ki < _n ? v[i * _n + ki] : kNull;
    }
    std::uint64_t *o = regPlane(out);
    for (std::size_t i = 0; i < _n; ++i)
        o[i * diag] = _rowRoot[i];
    return gatherAccount();
}

ModelTime
OrthogonalTreesNetwork::batchGatherDiag(Reg key, Reg val, Reg out)
{
    // The column fan-out leaves val(j, j) at column root j, and row i's
    // gather reads the fanned word of column key(i, i): both are plain
    // diagonal reads, finished before `out` is written.
    const std::size_t diag = _n + 1;
    const std::uint64_t *k = std::as_const(*this).regPlane(key);
    const std::uint64_t *v = std::as_const(*this).regPlane(val);
    for (std::size_t j = 0; j < _n; ++j)
        _colRoot[j] = v[j * diag];
    for (std::size_t i = 0; i < _n; ++i) {
        const std::uint64_t ki = k[i * diag];
        _rowRoot[i] = ki < _n ? _colRoot[ki] : kNull;
    }
    std::uint64_t *o = regPlane(out);
    for (std::size_t i = 0; i < _n; ++i)
        o[i * diag] = _rowRoot[i];
    const ModelTime leg = treeTraversalCost();
    ModelTime dt = replayDiagFan(_engine, _n, Axis::Row, leg);
    dt += replayDiagFan(_engine, _n, Axis::Col, leg);
    return dt + gatherAccount();
}

ModelTime
OrthogonalTreesNetwork::batchVecMat(Reg mat, ModelTime mul_cost,
                                    bool boolean)
{
    // Row by row into the column roots: the modular sum is associative,
    // so the linear order equals the tree's pairwise order.  A row whose
    // input is 0 or kNull contributes only zeros.
    std::uint64_t *acc = _colRoot.data();
    std::fill(_colRoot.begin(), _colRoot.end(), 0);
    for (std::size_t i = 0; i < _n; ++i) {
        const std::uint64_t a = _rowRoot[i];
        if (a == 0 || a == kNull)
            continue;
        const std::uint64_t *b = std::as_const(*this).regRow(mat, i);
        if (boolean) {
            // b + 1 > 1 iff b is neither 0 nor kNull.
            for (std::size_t j = 0; j < _n; ++j)
                acc[j] += b[j] + 1 > 1 ? 1 : 0;
        } else {
            for (std::size_t j = 0; j < _n; ++j)
                acc[j] += b[j] == kNull ? 0 : a * b[j];
        }
    }
    ModelTime dt = replayTrees(_engine, _n, Axis::Row,
                               {{kRootToLeaf, treeTraversalCost()}});
    dt += baseOpAccount(mul_cost);
    return dt + replayTrees(_engine, _n, Axis::Col,
                            {{kSumLeafToRoot, treeReduceCost()}});
}

} // namespace ot::otn
