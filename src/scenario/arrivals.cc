#include "scenario/arrivals.hh"

#include <algorithm>
#include <cstdint>

#include "sim/rng.hh"

namespace ot::scenario {

namespace {

/**
 * The next inter-arrival gap for a diurnal process: an exponential
 * draw scaled by the instantaneous rate of a triangle wave.  At the
 * trough the rate is (100-amp)% of nominal, at the crest (100+amp)%.
 */
vlsi::ModelTime
diurnalGap(sim::Rng &gaps, const ArrivalConfig &a,
           vlsi::ModelTime now)
{
    double frac = static_cast<double>(now % a.period) /
                  static_cast<double>(a.period);
    double tri = frac < 0.5 ? 2.0 * frac : 2.0 - 2.0 * frac;
    double rate = (100.0 - a.ampPct + 2.0 * a.ampPct * tri) / 100.0;
    double g = gaps.expReal(static_cast<double>(a.mean)) / rate;
    if (g < 1.0)
        return 1;
    return static_cast<vlsi::ModelTime>(g + 0.5);
}

} // namespace

std::vector<Arrival>
generateArrivals(const ScenarioSpec &spec)
{
    validate(spec);
    const ArrivalConfig &a = spec.arrival;

    // One independent stream per decision kind: adding a client or
    // flipping seeds=vary never perturbs the arrival *times*.
    sim::Rng gaps(a.seed, 0);
    sim::Rng dwell(a.seed, 1);
    sim::Rng clientPick(a.seed, 2);
    sim::Rng mixPick(a.seed, 3);
    sim::Rng seedPick(a.seed, 4);

    std::uint64_t totalWeight = 0;
    for (const ClientConfig &c : spec.clients)
        totalWeight += c.weight;

    std::vector<Arrival> out;
    // Arrival times are distinct ticks in [1, duration], so the
    // stream never outgrows either bound.
    if (a.maxArrivals != 0)
        out.reserve(std::min<std::uint64_t>(a.maxArrivals, a.duration));
    vlsi::ModelTime cursor = 0;
    // Bursty on-off state: arrivals happen only inside ON windows.
    vlsi::ModelTime winEnd = 0;
    if (a.kind == ArrivalKind::Bursty)
        winEnd = dwell.exponential(a.onMean);

    while (a.maxArrivals == 0 || out.size() < a.maxArrivals) {
        switch (a.kind) {
          case ArrivalKind::Poisson:
            cursor += gaps.exponential(a.mean);
            break;
          case ArrivalKind::Bursty:
            cursor += gaps.exponential(a.mean);
            while (cursor > winEnd) {
                // Skip the OFF dwell; the residual gap carries into
                // the next ON window.
                vlsi::ModelTime over = cursor - winEnd;
                vlsi::ModelTime start =
                    winEnd + dwell.exponential(a.offMean);
                winEnd = start + dwell.exponential(a.onMean);
                cursor = start + over;
            }
            break;
          case ArrivalKind::Diurnal:
            cursor += diurnalGap(gaps, a, cursor);
            break;
        }
        if (cursor > a.duration)
            break;

        Arrival arr;
        arr.at = cursor;
        // Weighted client pick, then a uniform pick from its mix.
        std::uint64_t r = clientPick.uniform(0, totalWeight - 1);
        unsigned ci = 0;
        while (r >= spec.clients[ci].weight) {
            r -= spec.clients[ci].weight;
            ++ci;
        }
        arr.client = ci;
        const ClientConfig &c = spec.clients[ci];
        arr.inst = c.mix[mixPick.uniform(0, c.mix.size() - 1)];
        if (a.varySeeds)
            arr.inst.seed = seedPick.next();
        out.push_back(arr);
    }
    return out;
}

} // namespace ot::scenario
