/**
 * @file
 * Model-time bookkeeping for the network simulators.
 *
 * The simulators in this repository execute *parallel* machines on a
 * sequential host.  Each network primitive (a ROOTTOLEAF broadcast, a
 * compare-exchange sweep, ...) is one parallel step whose duration is
 * computed by the CostModel; the TimeAccountant accumulates those
 * durations into the machine's total model time T, which is what the
 * paper's tables report (not host wall-clock).
 *
 * Phases let an algorithm attribute time to named sections ("rank",
 * "hook", "pointer-jump"), which the benches print to show where the
 * asymptotic terms come from.  A phase is opened only by a
 * ScopedPhase local, so phase balance is a property of the type.
 */

#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/tracer.hh"
#include "vlsi/delay.hh"

namespace ot::sim {

using vlsi::ModelTime;

/** Accumulates parallel-step durations into total model time. */
class TimeAccountant
{
  public:
    TimeAccountant() = default;

    /** Charge one parallel step of duration `dt`. */
    void
    advance(ModelTime dt)
    {
        ModelTime start = _now;
        _now += dt;
        ++_steps;
        if (!_phaseStack.empty())
            _phaseTimes[_phaseStack.back()] += dt;
#ifdef OT_TRACE
        if (_tracer && _tracer->enabled())
            _tracer->recordCharge(
                start, dt,
                _phaseStack.empty() ? std::string() : _phaseStack.back());
#else
        (void)start;
#endif
    }

    /** Current model time. */
    ModelTime now() const { return _now; }

    /** Number of parallel steps charged so far. */
    std::uint64_t steps() const { return _steps; }

    /** Forget all accumulated time and phases.  Machines reset only
     *  between runs, so an open phase here is a ScopedPhase that
     *  outlived its run. */
    void
    reset()
    {
        assert(_phaseStack.empty() && "reset with a phase still open");
        _now = 0;
        _steps = 0;
        _phaseTimes.clear();
    }

    /** Phases currently open. */
    std::size_t phaseDepth() const { return _phaseStack.size(); }

    /** Per-phase accumulated model time. */
    const std::map<std::string, ModelTime> &
    phaseTimes() const
    {
        return _phaseTimes;
    }

    /**
     * Attach (or detach, with nullptr) a tracer; every advance emits a
     * Charge event and every begin/endPhase a phase marker.  The
     * tracer must outlive the accountant or be detached first.
     */
    void setTracer(trace::Tracer *tracer) { _tracer = tracer; }
    trace::Tracer *tracer() const { return _tracer; }

  private:
    friend class ScopedPhase;

    /** Enter a named phase; time advanced until endPhase is attributed
     *  to it (innermost phase only, so nested phases don't double
     *  count). */
    void
    beginPhase(const std::string &name)
    {
        _phaseStack.push_back(name);
#ifdef OT_TRACE
        if (_tracer && _tracer->enabled())
            _tracer->recordPhase(trace::EventKind::PhaseBegin, _now, name);
#endif
    }

    /** Leave the innermost phase. */
    void
    endPhase()
    {
        assert(!_phaseStack.empty() &&
               "endPhase without matching beginPhase");
#ifdef OT_TRACE
        if (_tracer && _tracer->enabled())
            _tracer->recordPhase(trace::EventKind::PhaseEnd, _now,
                                 _phaseStack.back());
#endif
        _phaseStack.pop_back();
    }

    ModelTime _now = 0;
    std::uint64_t _steps = 0;
    trace::Tracer *_tracer = nullptr;
    std::map<std::string, ModelTime> _phaseTimes;
    std::vector<std::string> _phaseStack;
};

/**
 * The only way to open a TimeAccountant phase.  The phase closes when
 * the object leaves scope, and the object can be neither copied,
 * moved nor put on the heap, so every phase is balanced by
 * construction: the compiler, not an analysis, proves that each
 * beginPhase meets its endPhase on every path, exceptions included.
 */
class ScopedPhase
{
  public:
    ScopedPhase(TimeAccountant &acct, const std::string &name) : _acct(acct)
    {
        _acct.beginPhase(name);
    }

    ~ScopedPhase() { _acct.endPhase(); }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;
    ScopedPhase(ScopedPhase &&) = delete;
    ScopedPhase &operator=(ScopedPhase &&) = delete;

    static void *operator new(std::size_t) = delete;
    static void *operator new[](std::size_t) = delete;

  private:
    TimeAccountant &_acct;
};

} // namespace ot::sim
