/**
 * @file
 * Tests for SORT-OTN (Section II-B) and the pipelined sorting stream
 * (Section VIII): correctness against std::sort across sizes, seeds,
 * duplicates and adversarial orders, plus the O(log^2 N) model-time
 * shape.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "otn/pipeline.hh"
#include "otn/selection.hh"
#include "otn/sort.hh"
#include "sim/rng.hh"
#include "trace/tracer.hh"

namespace {

using namespace ot::otn;
using ot::sim::Rng;
using ot::vlsi::CostModel;
using ot::vlsi::DelayModel;
using ot::vlsi::ModelTime;
using ot::vlsi::WordFormat;

CostModel
logCost(std::size_t n)
{
    return {DelayModel::Logarithmic, WordFormat::forProblemSize(n)};
}

std::vector<std::uint64_t>
sortedCopy(std::vector<std::uint64_t> v)
{
    std::sort(v.begin(), v.end());
    return v;
}

TEST(SortOtn, TinyExample)
{
    auto r = sortOtn({3, 1, 2, 0}, logCost(4));
    EXPECT_EQ(r.sorted, (std::vector<std::uint64_t>{0, 1, 2, 3}));
    EXPECT_GT(r.time, 0u);
}

TEST(SortOtn, AlreadySortedAndReversed)
{
    std::vector<std::uint64_t> asc{0, 1, 2, 3, 4, 5, 6, 7};
    std::vector<std::uint64_t> desc(asc.rbegin(), asc.rend());
    EXPECT_EQ(sortOtn(asc, logCost(8)).sorted, asc);
    EXPECT_EQ(sortOtn(desc, logCost(8)).sorted, asc);
}

TEST(SortOtn, DuplicatesUseTieBreak)
{
    // The modified step 3 must handle equal keys.
    std::vector<std::uint64_t> v{5, 5, 5, 5, 1, 1, 9, 9};
    EXPECT_EQ(sortOtn(v, logCost(8)).sorted, sortedCopy(v));
}

TEST(SortOtn, AllEqual)
{
    std::vector<std::uint64_t> v(16, 7);
    EXPECT_EQ(sortOtn(v, logCost(16)).sorted, v);
}

TEST(SortOtn, SingleElement)
{
    // Machine words for a size-1 problem are 2 bits; 3 is the largest
    // legal input.
    EXPECT_EQ(sortOtn({3}, logCost(2)).sorted,
              (std::vector<std::uint64_t>{3}));
}

TEST(SortOtn, ValueAtWordLimit)
{
    auto limit = WordFormat::forProblemSize(8).maxValue();
    std::vector<std::uint64_t> v{limit, 0, limit - 1, 1};
    EXPECT_EQ(sortOtn(v, logCost(8)).sorted, sortedCopy(v));
}

TEST(SortOtn, PartialLoadPadsWithNull)
{
    // 5 values on an 8x8 machine.
    std::vector<std::uint64_t> v{9, 2, 7, 2, 5};
    OrthogonalTreesNetwork net(8, logCost(8));
    EXPECT_EQ(sortOtn(net, v).sorted, sortedCopy(v));
}

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t word)
{
    for (int b = 0; b < 64; b += 8) {
        h ^= (word >> b) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
fnv1a(std::uint64_t h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return fnv1a(h, s.size());
}

/** Time, steps and every counter of the network's run, as one line. */
std::string
accountingLine(const OrthogonalTreesNetwork &net, ModelTime time)
{
    std::string out = "time=" + std::to_string(time) +
                      " steps=" + std::to_string(net.acct().steps());
    for (const auto &[name, c] : net.stats().counters())
        out += " " + name + "=" + std::to_string(c.value());
    return out;
}

/**
 * Sort `v` on a fresh traced network and return its accounting line
 * plus the traced span count, event count and an FNV-1a hash of every
 * event; the untraced run must give the same accounting line.
 */
std::string
sortOtnCost(std::size_t n, const CostModel &cost,
            const std::vector<std::uint64_t> &v, unsigned threads)
{
    ot::trace::Tracer tracer;
    tracer.setEnabled(true);
    OrthogonalTreesNetwork net(n, cost, {}, threads);
    net.setTracer(&tracer);
    auto r = sortOtn(net, v);
    net.setTracer(nullptr);
    EXPECT_EQ(r.sorted, sortedCopy(v));
    EXPECT_EQ(tracer.dropped(), 0u);

    std::uint64_t spans = 0;
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto &e : tracer.events()) {
        if (e.kind == ot::trace::EventKind::Span)
            ++spans;
        h = fnv1a(h, static_cast<std::uint64_t>(e.kind));
        h = fnv1a(h, static_cast<std::uint64_t>(e.axis));
        h = fnv1a(h, e.charged ? 1 : 0);
        h = fnv1a(h, e.start);
        h = fnv1a(h, e.dur);
        h = fnv1a(h, std::string(e.cat));
        h = fnv1a(h, std::string(e.name));
        h = fnv1a(h, e.phase);
        h = fnv1a(h, static_cast<std::uint64_t>(e.tree));
        h = fnv1a(h, e.levels);
        h = fnv1a(h, e.words);
    }
    const std::string line = accountingLine(net, r.time);

    OrthogonalTreesNetwork plain(n, cost, {}, threads);
    auto rp = sortOtn(plain, v);
    EXPECT_EQ(accountingLine(plain, rp.time), line) << "untraced";

    char hash[32];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(h));
    return line + " spans=" + std::to_string(spans) +
           " events=" + std::to_string(tracer.events().size()) +
           " hash=" + hash;
}

/**
 * Pins SORT-OTN's model-time accounting charge for charge: exact time,
 * steps, every otn.* counter, the traced span count and a hash of the
 * whole event stream, under all three delay models, on one host thread
 * and on four (which must agree).  Output checks cannot see accounting
 * drift; this can.
 */
TEST(SortOtn, CostIsPinned)
{
    struct Shape
    {
        const char *name;
        std::size_t n; // machine side and word-format problem size
        std::vector<std::uint64_t> values;
        const char *expect[3]; // Constant, Logarithmic, Linear
    };
    Rng rng(5151);
    std::vector<std::uint64_t> full(64);
    for (auto &x : full)
        x = rng.uniform(0, 63);
    std::vector<std::uint64_t> padded(1000);
    for (auto &x : padded)
        x = rng.uniform(0, 1023);
    const std::uint64_t limit = WordFormat::forProblemSize(16).maxValue();
    std::vector<std::uint64_t> at_limit(16);
    for (auto &x : at_limit)
        x = rng.uniform(0, 1) ? limit : rng.uniform(0, limit);

    // Recorded from the earlier SORT-OTN, whose steps wrote the A, B, F
    // and R register planes.
    const Shape shapes[] = {
        {"full_load", 64, full,
         {"time=120 steps=5 otn.baseOp=1 otn.countLeafToLeaf=64 "
          "otn.countLeafToRoot=64 otn.leafToLeaf=64 "
          "otn.leafToRoot=128 otn.rootToLeaf=192 spans=385 "
          "events=392 hash=9e9835d33ab85270",
          "time=354 steps=5 otn.baseOp=1 otn.countLeafToLeaf=64 "
          "otn.countLeafToRoot=64 otn.leafToLeaf=64 "
          "otn.leafToRoot=128 otn.rootToLeaf=192 spans=385 "
          "events=392 hash=41d3a5e5942525c5",
          "time=3900 steps=5 otn.baseOp=1 "
          "otn.countLeafToLeaf=64 otn.countLeafToRoot=64 "
          "otn.leafToLeaf=64 otn.leafToRoot=128 "
          "otn.rootToLeaf=192 spans=385 events=392 "
          "hash=0b54a15d2cfe23a4"}},
        {"1000_on_1024", 1024, padded,
         {"time=204 steps=5 otn.baseOp=1 "
          "otn.countLeafToLeaf=1024 otn.countLeafToRoot=1024 "
          "otn.leafToLeaf=1024 otn.leafToRoot=2048 "
          "otn.rootToLeaf=3072 spans=6145 events=6152 "
          "hash=cb3031334db144d8",
          "time=774 steps=5 otn.baseOp=1 "
          "otn.countLeafToLeaf=1024 otn.countLeafToRoot=1024 "
          "otn.leafToLeaf=1024 otn.leafToRoot=2048 "
          "otn.rootToLeaf=3072 spans=6145 events=6152 "
          "hash=188cda9bdef99788",
          "time=98412 steps=5 otn.baseOp=1 "
          "otn.countLeafToLeaf=1024 otn.countLeafToRoot=1024 "
          "otn.leafToLeaf=1024 otn.leafToRoot=2048 "
          "otn.rootToLeaf=3072 spans=6145 events=6152 "
          "hash=16d84b76ad678e9e"}},
        {"all_equal", 32, std::vector<std::uint64_t>(32, 9),
         {"time=99 steps=5 otn.baseOp=1 otn.countLeafToLeaf=32 "
          "otn.countLeafToRoot=32 otn.leafToLeaf=32 "
          "otn.leafToRoot=64 otn.rootToLeaf=96 spans=193 "
          "events=200 hash=cc427bb6b02566bc",
          "time=279 steps=5 otn.baseOp=1 otn.countLeafToLeaf=32 "
          "otn.countLeafToRoot=32 otn.leafToLeaf=32 "
          "otn.leafToRoot=64 otn.rootToLeaf=96 spans=193 "
          "events=200 hash=65fb2228a282fd9f",
          "time=1677 steps=5 otn.baseOp=1 "
          "otn.countLeafToLeaf=32 otn.countLeafToRoot=32 "
          "otn.leafToLeaf=32 otn.leafToRoot=64 "
          "otn.rootToLeaf=96 spans=193 events=200 "
          "hash=b0ae55b30f0538de"}},
        {"word_limit", 16, at_limit,
         {"time=78 steps=5 otn.baseOp=1 otn.countLeafToLeaf=16 "
          "otn.countLeafToRoot=16 otn.leafToLeaf=16 "
          "otn.leafToRoot=32 otn.rootToLeaf=48 spans=97 "
          "events=104 hash=e60753cd794b2b54",
          "time=186 steps=5 otn.baseOp=1 otn.countLeafToLeaf=16 "
          "otn.countLeafToRoot=16 otn.leafToLeaf=16 "
          "otn.leafToRoot=32 otn.rootToLeaf=48 spans=97 "
          "events=104 hash=cf64184acf9da8ea",
          "time=708 steps=5 otn.baseOp=1 otn.countLeafToLeaf=16 "
          "otn.countLeafToRoot=16 otn.leafToLeaf=16 "
          "otn.leafToRoot=32 otn.rootToLeaf=48 spans=97 "
          "events=104 hash=0b88d24d29ca10be"}},
    };
    const DelayModel models[] = {DelayModel::Constant,
                                 DelayModel::Logarithmic,
                                 DelayModel::Linear};
    for (const Shape &s : shapes) {
        for (int m = 0; m < 3; ++m) {
            SCOPED_TRACE(std::string(s.name) + " model " +
                         std::to_string(m));
            const CostModel cost(models[m], WordFormat::forProblemSize(s.n));
            for (unsigned threads : {1u, 4u})
                EXPECT_EQ(sortOtnCost(s.n, cost, s.values, threads),
                          s.expect[m])
                    << "threads " << threads;
        }
    }
}

/** Property sweep: random inputs across sizes and seeds. */
class SortOtnRandom
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>>
{
};

TEST_P(SortOtnRandom, MatchesStdSort)
{
    auto [n, seed] = GetParam();
    Rng rng(static_cast<std::uint64_t>(seed));
    std::vector<std::uint64_t> v(n);
    auto limit = WordFormat::forProblemSize(n).maxValue();
    for (auto &x : v)
        x = rng.uniform(0, std::min<std::uint64_t>(limit, n * n - 1));
    EXPECT_EQ(sortOtn(v, logCost(n)).sorted, sortedCopy(v));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SortOtnRandom,
    ::testing::Combine(::testing::Values(2, 4, 8, 16, 32, 64),
                       ::testing::Values(1, 2, 3)));

TEST(SortOtn, DistinctPermutationSweep)
{
    Rng rng(99);
    for (std::size_t n : {8, 16, 32}) {
        auto v = rng.permutation(n);
        EXPECT_EQ(sortOtn(v, logCost(n)).sorted, sortedCopy(v));
    }
}

TEST(SortOtn, TimeShapeIsLogSquaredUnderThompson)
{
    // T(N) / log^2 N bounded over a wide sweep.
    double lo = 1e18, hi = 0;
    Rng rng(4);
    for (std::size_t n : {16, 64, 256, 1024}) {
        auto v = rng.permutation(n);
        auto r = sortOtn(v, logCost(n));
        double logn = std::log2(static_cast<double>(n));
        double ratio = static_cast<double>(r.time) / (logn * logn);
        lo = std::min(lo, ratio);
        hi = std::max(hi, ratio);
    }
    EXPECT_LT(hi / lo, 8.0);
}

TEST(SortOtn, ConstantDelayIsAsymptoticallyFaster)
{
    Rng rng(5);
    std::size_t n = 512;
    auto v = rng.permutation(n);
    auto t_log = sortOtn(v, logCost(n)).time;
    CostModel cm(DelayModel::Constant, WordFormat::forProblemSize(n));
    auto t_const = sortOtn(v, cm).time;
    EXPECT_LT(t_const, t_log);
}

TEST(SortOtn, ScalingRecoversALogFactor)
{
    Rng rng(6);
    std::size_t n = 512;
    auto v = rng.permutation(n);
    CostModel scaled(DelayModel::Logarithmic, WordFormat::forProblemSize(n),
                     /*scaled_trees=*/true);
    EXPECT_LT(sortOtn(v, scaled).time, sortOtn(v, logCost(n)).time);
}

TEST(SortPipeline, AllProblemsSortedCorrectly)
{
    std::size_t n = 16;
    OrthogonalTreesNetwork net(n, logCost(n));
    Rng rng(7);
    std::vector<std::vector<std::uint64_t>> problems;
    for (int p = 0; p < 6; ++p)
        problems.push_back(rng.permutation(n));
    auto r = sortPipelineOtn(net, problems);
    ASSERT_EQ(r.sorted.size(), problems.size());
    for (std::size_t p = 0; p < problems.size(); ++p)
        EXPECT_EQ(r.sorted[p], sortedCopy(problems[p])) << "problem " << p;
}

TEST(SortPipeline, BeatIsMuchSmallerThanLatency)
{
    // Section VIII: one sorted set per O(log N) once the pipe fills.
    std::size_t n = 256;
    OrthogonalTreesNetwork net(n, logCost(n));
    Rng rng(8);
    std::vector<std::vector<std::uint64_t>> problems;
    for (int p = 0; p < 4; ++p)
        problems.push_back(rng.permutation(n));
    auto r = sortPipelineOtn(net, problems);
    EXPECT_LT(r.problemInterval * 4, r.firstLatency);
    EXPECT_EQ(r.totalTime,
              r.firstLatency + (problems.size() - 1) * r.problemInterval);
}

TEST(SortPipeline, ThroughputBeatsSequentialRuns)
{
    std::size_t n = 128;
    Rng rng(9);
    std::vector<std::vector<std::uint64_t>> problems;
    for (int p = 0; p < 7; ++p)
        problems.push_back(rng.permutation(n));

    OrthogonalTreesNetwork piped(n, logCost(n));
    auto t_piped = sortPipelineOtn(piped, problems).totalTime;

    OrthogonalTreesNetwork serial(n, logCost(n));
    for (const auto &p : problems)
        sortOtn(serial, p);
    EXPECT_LT(t_piped, serial.now());
}

TEST(SortPipeline, EmptyStream)
{
    OrthogonalTreesNetwork net(8, logCost(8));
    auto r = sortPipelineOtn(net, {});
    EXPECT_TRUE(r.sorted.empty());
    EXPECT_EQ(r.totalTime, 0u);
}

TEST(SelectOtn, KthMatchesSortedOrder)
{
    Rng rng(31);
    for (std::size_t n : {4, 16, 64}) {
        std::vector<std::uint64_t> v(n);
        for (auto &x : v)
            x = rng.uniform(0, n - 1);
        auto sorted = sortedCopy(v);
        for (std::size_t k : {std::size_t{0}, n / 3, n - 1}) {
            OrthogonalTreesNetwork net(n, logCost(n));
            auto r = selectKthOtn(net, v, k);
            EXPECT_EQ(r.value, sorted[k]) << "n=" << n << " k=" << k;
            EXPECT_EQ(v[r.index], r.value);
        }
    }
}

TEST(SelectOtn, IndexResolvesDuplicatesByPosition)
{
    std::vector<std::uint64_t> v{5, 5, 5, 5};
    OrthogonalTreesNetwork net(4, logCost(4));
    // With the tie-break, rank k of equal values is the k-th position.
    for (std::size_t k = 0; k < 4; ++k) {
        auto r = selectKthOtn(net, v, k);
        EXPECT_EQ(r.value, 5u);
        EXPECT_EQ(r.index, k);
    }
}

TEST(SelectOtn, MedianAndCostParityWithSort)
{
    Rng rng(32);
    std::size_t n = 256;
    std::vector<std::uint64_t> v(n);
    for (auto &x : v)
        x = rng.uniform(0, n - 1);
    OrthogonalTreesNetwork net(n, logCost(n));
    auto med = medianOtn(net, v);
    EXPECT_EQ(med.value, sortedCopy(v)[(n - 1) / 2]);
    // Selection costs a full sort's rank phases plus at most the
    // narrow extraction (two traversals and one base op for the
    // index).
    auto sort_time = sortOtn(v, logCost(n)).time;
    EXPECT_LE(med.time, sort_time + 2 * net.treeTraversalCost() +
                            net.cost().bitSerialOp());
}

/** A run's cost as one line: time, steps and every counter. */
std::string
costLine(const OrthogonalTreesNetwork &net, const SelectResult &r)
{
    std::string out = "time=" + std::to_string(r.time) +
                      " steps=" + std::to_string(net.acct().steps());
    for (const auto &[name, c] : net.stats().counters())
        out += " " + name + "=" + std::to_string(c.value());
    return out;
}

TEST(SelectOtn, CostIsPinned)
{
    // SELECT-OTN runs SORT-OTN's rank steps on the batch primitives;
    // its model time, step count and per-primitive counters must stay
    // those of the per-tree formulation it replaced.
    struct Case
    {
        std::size_t n;
        bool median;
        const char *cost;
    };
    const Case cases[] = {
        {16, false,
         "time=223 steps=7 otn.baseOp=2 otn.countLeafToLeaf=16 "
         "otn.countLeafToRoot=16 otn.leafToLeaf=16 otn.leafToRoot=18 "
         "otn.rootToLeaf=48"},
        {16, true,
         "time=223 steps=7 otn.baseOp=2 otn.countLeafToLeaf=16 "
         "otn.countLeafToRoot=16 otn.leafToLeaf=16 otn.leafToRoot=18 "
         "otn.rootToLeaf=48"},
        {64, false,
         "time=422 steps=7 otn.baseOp=2 otn.countLeafToLeaf=64 "
         "otn.countLeafToRoot=64 otn.leafToLeaf=64 otn.leafToRoot=66 "
         "otn.rootToLeaf=192"},
        {64, true,
         "time=422 steps=7 otn.baseOp=2 otn.countLeafToLeaf=64 "
         "otn.countLeafToRoot=64 otn.leafToLeaf=64 otn.leafToRoot=66 "
         "otn.rootToLeaf=192"},
    };
    for (const Case &c : cases) {
        Rng rng(33 + c.n);
        std::vector<std::uint64_t> v(c.n);
        for (auto &x : v)
            x = rng.uniform(0, c.n - 1);
        OrthogonalTreesNetwork net(c.n, logCost(c.n));
        SelectResult r = c.median ? medianOtn(net, v)
                                  : selectKthOtn(net, v, c.n / 3);
        std::size_t k = c.median ? (c.n - 1) / 2 : c.n / 3;
        EXPECT_EQ(r.value, sortedCopy(v)[k]);
        EXPECT_EQ(costLine(net, r), c.cost)
            << "n=" << c.n << (c.median ? " median" : " k=n/3");
    }
}

} // namespace
