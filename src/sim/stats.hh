/**
 * @file
 * A small statistics package in the spirit of gem5's Stats.
 *
 * Networks register named counters/distributions in a StatSet; the
 * benches dump them alongside model time so runs are explainable
 * ("how many tree traversals, how long was the longest wire, how many
 * words crossed the roots").
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <string_view>

namespace ot::sim {

/** Monotonic event counter. */
class Counter
{
  public:
    void operator+=(std::uint64_t n) { _value += n; }
    void operator++() { ++_value; }
    std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

/** Running min/max/mean/variance/total of a sampled quantity. */
class Distribution
{
  public:
    void
    sample(double v)
    {
        ++_count;
        _total += v;
        _sumSq += v * v;
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }

    std::uint64_t count() const { return _count; }
    double total() const { return _total; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }

    double
    mean() const
    {
        return _count ? _total / static_cast<double>(_count) : 0.0;
    }

    /** Population variance; 0 with fewer than two samples. */
    double
    variance() const
    {
        if (_count < 2)
            return 0.0;
        double m = mean();
        double v = _sumSq / static_cast<double>(_count) - m * m;
        return std::max(v, 0.0); // clamp the round-off
    }

    double stddev() const { return std::sqrt(variance()); }

    void
    reset()
    {
        _count = 0;
        _total = 0.0;
        _sumSq = 0.0;
        _min = std::numeric_limits<double>::infinity();
        _max = -std::numeric_limits<double>::infinity();
    }

  private:
    std::uint64_t _count = 0;
    double _total = 0.0;
    double _sumSq = 0.0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
};

/**
 * Named collection of counters and distributions.
 *
 * Lookup lazily creates entries, so instrumentation sites stay
 * one-liners: `stats.counter("otn.broadcasts") += 1;`.
 */
class StatSet
{
  public:
    /**
     * The counter called `name`.  The lookup is heterogeneous, so a
     * bump of an existing counter builds no std::string (names longer
     * than the small-string buffer would otherwise allocate per call).
     */
    Counter &
    counter(std::string_view name)
    {
        auto it = _counters.find(name);
        if (it == _counters.end())
            it = _counters.emplace(std::string(name), Counter{}).first;
        return it->second;
    }

    Distribution &
    distribution(const std::string &name)
    {
        return _distributions[name];
    }

    const std::map<std::string, Counter, std::less<>> &counters() const
    {
        return _counters;
    }

    const std::map<std::string, Distribution> &distributions() const
    {
        return _distributions;
    }

    void
    reset()
    {
        for (auto &[name, c] : _counters)
            c.reset();
        for (auto &[name, d] : _distributions)
            d.reset();
    }

    /** Dump all stats, one per line, `prefix.name value` format. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    /**
     * The whole set as a JSON object — {"counters": {...},
     * "distributions": {...}} — so stats can ride along in trace files
     * and bench snapshots instead of only the ostream dump.
     */
    std::string toJson() const;

  private:
    std::map<std::string, Counter, std::less<>> _counters;
    std::map<std::string, Distribution> _distributions;
};

} // namespace ot::sim
