// otcheck:fixture-path src/scenario/fixture_good_scenario_prng.cc
//
// Known-good PRNG-scope fixture: scenario code draws through the one
// project PRNG, mirroring sim::Rng — a seeded, stream-indexed
// splitmix64 generator whose mixing step is written inline, so there
// is no raw call site and no allow.  Must check clean.
#include <cstdint>

struct Rng
{
    Rng(std::uint64_t seed, std::uint64_t stream)
        : state(seed ^ (0x94d049bb133111ebULL * (stream + 1)))
    {
        (void)next();
    }

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    std::uint64_t state;
};

// Consumers draw through the generator: no raw stream, nothing
// flagged.  The banned name inside a comment is not a token:
// splitmix64(state).
std::uint64_t
interArrivalGap(std::uint64_t seed)
{
    Rng rng(seed, 0);
    return rng.next() % 1000 + 1;
}
