// otcheck:fixture-path src/workload/fixture_bad_scenario_prng.cc
//
// Known-bad PRNG-scope fixture: a raw splitmix64 stream spun up
// beside the project PRNG.  Ad-hoc streams bypass the
// seeded-generator contract — callers must draw through sim::Rng
// (Rng(seed, stream) for independent streams).  This file is checker
// input, never compiled.
#include <cstdint>

std::uint64_t splitmix64(std::uint64_t &state);

std::uint64_t
adHocStream(std::uint64_t seed)
{
    std::uint64_t state = seed;
    std::uint64_t a = splitmix64(state); // expect: determinism
    std::uint64_t b = splitmix64(state); // expect: determinism
    return a ^ b;
}
