/**
 * @file
 * Host-time spans for the benchmark's traced run.
 *
 * The benchmark wraps a span around each public call it makes into
 * the simulator (spec parse, cache acquire, Machine::reset, input
 * generation, Machine::run*, the reference check, toJson).  A span
 * records its name, start, end, parent and call id; spans stay in
 * memory and are written out once, at exit.  A layer's self time is
 * its span's duration minus the part covered by its child spans.
 *
 * A disabled log records nothing, so the same replay code serves as
 * its own untraced twin (the trace.overhead_ratio denominator).
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hostbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One closed (or still open) span. */
struct Span
{
    /** Static string: the layer boundary the span times. */
    const char *name = "";
    /** Nanoseconds since the log's origin. */
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span; -1 at top level. */
    int parent = -1;
    /** Benchmark call the span belongs to. */
    std::uint64_t call = 0;
};

/** Per-call, per-name time sums in milliseconds. */
using LayerTimes = std::map<std::uint64_t, std::map<std::string, double>>;

class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : _enabled(enabled) {}

    bool enabled() const { return _enabled; }

    /** Open a span under the innermost open one; -1 when disabled. */
    int open(const char *name, std::uint64_t call);

    /** Close span `id` (must be the innermost open span). */
    void close(int id);

    /** Relabel a span once its outcome is known (hit vs build). */
    void
    rename(int id, const char *name)
    {
        if (id >= 0)
            _spans[static_cast<std::size_t>(id)].name = name;
    }

    const std::vector<Span> &spans() const { return _spans; }

    /** Self time (duration minus child coverage) per call and name. */
    LayerTimes selfMs() const;

    /** Inclusive duration per call and name. */
    LayerTimes totalMs() const;

    /**
     * Write every span as one tab-separated line:
     * id, parent, call, name, start_ns, end_ns.
     */
    bool write(const std::string &path) const;

  private:
    bool _enabled;
    Clock::time_point _origin = Clock::now();
    std::vector<Span> _spans;
    std::vector<int> _open;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, std::uint64_t call)
        : _log(log), _id(log.open(name, call))
    {
    }
    ~ScopedSpan() { _log.close(_id); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    void rename(const char *name) { _log.rename(_id, name); }

  private:
    SpanLog &_log;
    int _id;
};

} // namespace hostbench
