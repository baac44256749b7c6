#include "sim/chain_engine.hh"

#include <algorithm>

#include "sim/thread_pool.hh"

namespace ot::sim {

thread_local ChainEngine::LaneBinding ChainEngine::t_binding;

ChainEngine::ChainEngine(TimeAccountant &acct, StatSet &stats,
                         unsigned host_threads)
    : _acct(acct),
      _stats(stats),
      _threads(host_threads ? host_threads : ThreadPool::defaultThreads())
{
}

ChainEngine::HostLane *
ChainEngine::boundLane() const
{
    return t_binding.engine == this ? t_binding.lane : nullptr;
}

void
ChainEngine::charge(ModelTime dt)
{
    if (HostLane *lane = boundLane())
        lane->chain += dt;
    else if (_parallelDepth > 0)
        _chainAccum += dt;
    else
        _acct.advance(dt);
}

Counter &
ChainEngine::counter(std::string_view name)
{
    if (HostLane *lane = boundLane())
        return lane->stats.counter(name);
    return _stats.counter(name);
}

ModelTime
ChainEngine::parallelFor(std::size_t count,
                         const std::function<void(std::size_t)> &body)
{
    if (HostLane *lane = boundLane()) {
        // Nested pardo on a pool lane: the lane's hardware is already
        // dedicated to the outer iteration, so run sequentially and
        // fold the max into the lane's chain — the same composition
        // the sequential engine performs.  Every iteration starts at
        // the same model-time offset (they overlap), so trace stamps
        // rebase to the offset at entry.
        ModelTime saved = lane->chain;
        ModelTime saved_base = lane->traceBase;
        lane->traceBase = saved_base + saved;
        ModelTime longest = 0;
        for (std::size_t k = 0; k < count; ++k) {
            lane->chain = 0;
            body(k);
            longest = std::max(longest, lane->chain);
        }
        lane->traceBase = saved_base;
        lane->chain = saved + longest;
        return longest;
    }
    if (_threads >= 2 && count >= 2)
        return parallelForPooled(count, body);
    return parallelForSequential(count, body);
}

ModelTime
ChainEngine::parallelForSequential(
    std::size_t count, const std::function<void(std::size_t)> &body)
{
    ++_parallelDepth;
    ModelTime saved_chain = _chainAccum;
    ModelTime saved_base = _traceBase;
    _traceBase = saved_base + saved_chain;
    ModelTime longest = 0;
    for (std::size_t k = 0; k < count; ++k) {
        _chainAccum = 0;
        body(k);
        longest = std::max(longest, _chainAccum);
    }
    --_parallelDepth;
    _traceBase = saved_base;
    _chainAccum = saved_chain;
    charge(longest);
    return longest;
}

ModelTime
ChainEngine::parallelForPooled(
    std::size_t count, const std::function<void(std::size_t)> &body)
{
    const unsigned lanes = static_cast<unsigned>(
        std::min<std::size_t>(_threads, count));
    _lanes.assign(lanes, HostLane{});
#ifdef OT_TRACE
    const bool tracing = _tracer && _tracer->enabled();
    if (tracing) {
        // Lanes record privately; cap each at the capacity left right
        // now so the merged, deterministically ordered stream truncates
        // at the same event regardless of the lane count.
        const std::size_t cap = _tracer->remainingCapacity();
        const ModelTime entry_off = _traceBase + _chainAccum;
        for (HostLane &lane : _lanes) {
            lane.trace.cap = cap;
            lane.traceBase = entry_off;
            lane.unchargedDepth = _unchargedDepth;
        }
    }
#endif
    auto job = [&](unsigned t) {
        HostLane &lane = _lanes[t];
        LaneBinding saved = t_binding;
        t_binding = LaneBinding{this, &lane};
        const std::size_t lo = count * t / lanes;
        const std::size_t hi = count * (t + 1) / lanes;
        for (std::size_t k = lo; k < hi; ++k) {
            lane.chain = 0;
            body(k);
            lane.longest = std::max(lane.longest, lane.chain);
        }
        t_binding = saved;
    };
    ThreadPool::shared().run(lanes, job);

    // Deterministic merge: max over lane maxima, sum of lane counters.
    // Lane trace logs concatenate in lane order — lanes own contiguous
    // iteration blocks in index order, so this reproduces the
    // sequential recording order exactly.
    ModelTime longest = 0;
    for (HostLane &lane : _lanes) {
        longest = std::max(longest, lane.longest);
        for (const auto &[name, c] : lane.stats.counters())
            if (c.value())
                _stats.counter(name) += c.value();
#ifdef OT_TRACE
        if (tracing)
            _tracer->mergeLane(lane.trace);
#endif
    }
    _lanes.clear();
    charge(longest);
    return longest;
}

ModelTime
ChainEngine::runUncharged(const std::function<void()> &body)
{
    if (HostLane *lane = boundLane()) {
        ModelTime saved = lane->chain;
        ModelTime saved_base = lane->traceBase;
        lane->traceBase = saved_base + saved;
        lane->chain = 0;
        ++lane->unchargedDepth;
        body();
        --lane->unchargedDepth;
        ModelTime would_charge = lane->chain;
        lane->chain = saved;
        lane->traceBase = saved_base;
        return would_charge;
    }
    ++_parallelDepth;
    ModelTime saved = _chainAccum;
    ModelTime saved_base = _traceBase;
    _traceBase = saved_base + saved;
    _chainAccum = 0;
    ++_unchargedDepth;
    body();
    --_unchargedDepth;
    ModelTime would_charge = _chainAccum;
    _chainAccum = saved;
    _traceBase = saved_base;
    --_parallelDepth;
    return would_charge;
}

#ifdef OT_TRACE
void
ChainEngine::traceSpan(const char *cat, const char *name, ModelTime dur,
                       const SpanArgs &args)
{
    if (!_tracer || !_tracer->enabled())
        return;
    trace::Event e;
    e.kind = trace::EventKind::Span;
    e.cat = cat;
    e.name = name;
    e.dur = dur;
    e.axis = args.axis;
    e.tree = args.tree;
    e.levels = args.levels;
    e.words = args.words;
    if (HostLane *lane = boundLane()) {
        // _acct.now() is stable for the whole pooled pardo (the clock
        // advances only after the join), so reading it from lanes is
        // race-free.
        e.start = _acct.now() + lane->traceBase + lane->chain;
        e.charged = lane->unchargedDepth == 0;
        lane->trace.record(std::move(e));
    } else {
        e.start = _acct.now() + _traceBase + _chainAccum;
        e.charged = _unchargedDepth == 0;
        _tracer->record(std::move(e));
    }
}
#endif

} // namespace ot::sim
