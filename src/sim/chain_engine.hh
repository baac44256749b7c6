/**
 * @file
 * Host-parallel execution engine for the networks' pardo semantics.
 *
 * Both network simulators (OTN and OTC) express the paper's
 * "for each i pardo" as a parallelFor that charges the *maximum* of
 * the per-iteration model-time chains, and "pipedo" as runUncharged.
 * ChainEngine owns that accounting and, when configured with more
 * than one host thread, dispatches the iteration range onto the
 * shared ThreadPool.
 *
 * Determinism: each pool lane accumulates its iterations' chains and
 * stat bumps into private HostLane storage; after the join the engine
 * max-reduces the lane maxima and sums the lane counters.  max and +
 * are commutative and associative over exact integers, and the clock
 * is advanced exactly once per parallelFor in both modes, so model
 * time, step counts, phase attribution, and stats are bit-identical
 * to the sequential engine regardless of thread count or scheduling.
 *
 * Charges issued from inside a pool lane — including nested
 * parallelFor / runUncharged and direct charge() calls in algorithm
 * bodies — are routed to that lane through a thread_local binding, so
 * the iteration bodies need no knowledge of the host threading.  A
 * nested parallelFor inside a lane runs sequentially on that lane
 * (its iterations' hardware is already busy serving the outer pardo's
 * host lane), which composes chains exactly as the sequential engine
 * does.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "sim/stats.hh"
#include "sim/time_accountant.hh"
#include "trace/tracer.hh"
#include "vlsi/delay.hh"

namespace ot::sim {

using vlsi::ModelTime;

class ChainEngine
{
  public:
    /**
     * @param acct         Clock the engine advances.
     * @param stats        Stat set top-level bumps land in.
     * @param host_threads 0 = ThreadPool::defaultThreads() (the
     *                     OT_HOST_THREADS switch), 1 = sequential,
     *                     n = dispatch onto n host lanes.
     */
    ChainEngine(TimeAccountant &acct, StatSet &stats,
                unsigned host_threads = 0);

    ChainEngine(const ChainEngine &) = delete;
    ChainEngine &operator=(const ChainEngine &) = delete;

    /** Resolved host-thread count (>= 1). */
    unsigned hostThreads() const { return _threads; }

    /**
     * Charge model time: to the current pool lane's chain if this
     * thread is executing one of this engine's lanes, else to the
     * innermost sequential parallel section, else to the clock.
     */
    void charge(ModelTime dt);

    /** Stat counter routed like charge() (lane-local under the pool). */
    Counter &counter(std::string_view name);

    /**
     * Attach a tracer; primitive spans recorded through traceSpan()
     * are routed like charge() (lane-local under the pool, merged
     * deterministically after the join).  The caller usually attaches
     * the same tracer to the TimeAccountant so the charge stream rides
     * along.  nullptr detaches.
     */
    void setTracer(trace::Tracer *tracer) { _tracer = tracer; }
    trace::Tracer *tracer() const { return _tracer; }

    /** Whether an enabled tracer is attached. */
    bool tracing() const { return _tracer && _tracer->enabled(); }

    /** Addressing/args of one traced primitive span. */
    struct SpanArgs
    {
        trace::TraceAxis axis = trace::TraceAxis::None;
        std::int64_t tree = -1;
        std::uint32_t levels = 0;
        std::uint64_t words = 0;
    };

    /**
     * Record one primitive span of duration `dur` starting at the
     * current model-time offset (clock + enclosing chains + chain so
     * far).  Call *before* the matching charge(dur).  No-op without an
     * enabled tracer; compiled out entirely without OT_TRACE.
     */
#ifdef OT_TRACE
    void traceSpan(const char *cat, const char *name, ModelTime dur,
                   const SpanArgs &args);
#else
    void
    traceSpan(const char *, const char *, ModelTime, const SpanArgs &)
    {
    }
#endif

    /**
     * Max-of-chains parallel loop.  Returns the charged cost.  Host
     * dispatch engages only for top-level loops with >= 2 iterations
     * and >= 2 configured threads; nested loops run sequentially on
     * their lane.
     */
    ModelTime parallelFor(std::size_t count,
                          const std::function<void(std::size_t)> &body);

    /** Run body with the clock stopped; return what it would charge. */
    ModelTime runUncharged(const std::function<void()> &body);

  private:
    /** Per-pool-lane accounting, private to one lane of one job. */
    struct HostLane
    {
        ModelTime chain = 0;   // current iteration's chain
        ModelTime longest = 0; // max chain over this lane's iterations
        ModelTime traceBase = 0;     // model-time offset of the chain start
        unsigned unchargedDepth = 0; // runUncharged nesting on this lane
        StatSet stats;         // merged into the engine's after the join
        trace::LaneLog trace;  // merged into the tracer after the join
    };

    struct LaneBinding
    {
        const ChainEngine *engine = nullptr;
        HostLane *lane = nullptr;
    };

    /** This thread's lane, iff it is serving one of *our* jobs. */
    HostLane *boundLane() const;

    ModelTime parallelForSequential(
        std::size_t count, const std::function<void(std::size_t)> &body);
    ModelTime parallelForPooled(
        std::size_t count, const std::function<void(std::size_t)> &body);

    static thread_local LaneBinding t_binding;

    TimeAccountant &_acct;
    StatSet &_stats;
    unsigned _threads;
    trace::Tracer *_tracer = nullptr;

    // Sequential parallel-section state (main thread, unbound).
    unsigned _parallelDepth = 0;
    ModelTime _chainAccum = 0;
    ModelTime _traceBase = 0;     // model-time offset of _chainAccum's start
    unsigned _unchargedDepth = 0; // runUncharged nesting (main thread)

    std::vector<HostLane> _lanes;
};

} // namespace ot::sim
