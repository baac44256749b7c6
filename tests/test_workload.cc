/**
 * @file
 * The batched workload engine: cache hit/miss semantics, the farm
 * makespan rule (max over shards of summed instance times), and the
 * determinism contract — reports and trace streams byte-identical at
 * every host-thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "sim/time_accountant.hh"
#include "topo/machine.hh"
#include "topo/registry.hh"
#include "trace/tracer.hh"
#include "workload/engine.hh"

namespace {

using namespace ot::workload;
using ot::vlsi::DelayModel;

InstanceSpec
inst(Algo algo, const char *net, std::size_t n,
     DelayModel model = DelayModel::Logarithmic, std::uint64_t seed = 1)
{
    return {algo, net, n, model, false, seed};
}

TEST(CacheKeyTest, DistinguishesMachineShapes)
{
    auto otn_sort = cacheKeyFor(inst(Algo::Sort, "otn", 32));
    auto otc_sort = cacheKeyFor(inst(Algo::Sort, "otc", 32));
    auto otc_cc =
        cacheKeyFor(inst(Algo::ConnectedComponents, "otc", 32));
    auto otc_bool = cacheKeyFor(inst(Algo::BoolMatMul, "otc", 32));

    EXPECT_EQ(otn_sort.topo, "otn");
    EXPECT_EQ(otc_sort.topo, "otc");
    EXPECT_EQ(otc_cc.topo, "otc-emu");
    EXPECT_EQ(otc_bool.topo, "otc-emu");
    // SORT-OTC streams cycles of log N; the Table II Boolean machine
    // uses cycles of log^2 N.
    EXPECT_EQ(otc_sort.cycleLen, 5u);
    EXPECT_EQ(otc_bool.cycleLen, 25u);
    EXPECT_NE(otc_cc, otc_bool);
}

TEST(CacheKeyTest, SameShapeSameKeyDifferentSeed)
{
    auto a = cacheKeyFor(inst(Algo::Sort, "otn", 32,
                              DelayModel::Logarithmic, 1));
    auto b = cacheKeyFor(inst(Algo::Sort, "otn", 32,
                              DelayModel::Logarithmic, 99));
    EXPECT_EQ(a, b);
    auto c = cacheKeyFor(
        inst(Algo::Sort, "otn", 32, DelayModel::Constant, 1));
    EXPECT_NE(a, c);
}

TEST(NetworkCacheTest, SecondAcquireIsAHitOnTheSameMachine)
{
    NetworkCache cache;
    auto spec = inst(Algo::Sort, "otn", 16);
    auto key = cacheKeyFor(spec);
    auto cost = costModelFor(spec);

    auto &first = cache.acquire(key, cost);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 1u);

    auto &second = cache.acquire(key, cost);
    EXPECT_EQ(&first, &second);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.size(), 1u);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
}

TEST(BatchEngineTest, DemoWorkloadVerifiesWithThreeHits)
{
    BatchEngine engine;
    auto report = engine.run(demoWorkload());

    ASSERT_EQ(report.instances.size(), 12u);
    EXPECT_TRUE(report.allVerified());
    // Three repeated shapes in the demo mix (see demoWorkload()).
    EXPECT_EQ(report.cacheHits, 3u);
    EXPECT_EQ(report.cacheMisses, 9u);
    EXPECT_EQ(report.shards, 9u);
    EXPECT_GT(report.makespan, 0u);
    EXPECT_GE(report.totalWork, report.makespan);
}

TEST(BatchEngineTest, MakespanIsMaxOverShardsOfSummedTimes)
{
    BatchEngine engine;
    auto report = engine.run(demoWorkload());

    std::map<std::size_t, ot::vlsi::ModelTime> shard_time;
    ot::vlsi::ModelTime total = 0;
    for (const auto &r : report.instances) {
        shard_time[r.shard] += r.time;
        total += r.time;
        EXPECT_GT(r.time, 0u) << "instance " << r.index;
        EXPECT_GT(r.area, 0u) << "instance " << r.index;
    }
    ASSERT_EQ(shard_time.size(), report.shards);

    ot::vlsi::ModelTime longest = 0;
    for (const auto &[shard, t] : shard_time)
        longest = std::max(longest, t);
    EXPECT_EQ(report.makespan, longest);
    EXPECT_EQ(report.totalWork, total);
}

TEST(BatchEngineTest, SingleInstanceBatchMakespanEqualsItsTime)
{
    WorkloadSpec spec;
    spec.instances.push_back(inst(Algo::Sort, "otn", 16));
    BatchEngine engine;
    auto report = engine.run(spec);
    ASSERT_EQ(report.instances.size(), 1u);
    EXPECT_EQ(report.makespan, report.instances[0].time);
    EXPECT_EQ(report.totalWork, report.instances[0].time);
    EXPECT_EQ(report.shards, 1u);
}

TEST(BatchEngineTest, RunInstanceOnAFreshMachineMatchesTheBatch)
{
    // The single-run path (otsim <algo>): one registry machine per
    // instance, the same runner the farm uses on its shared machines.
    BatchEngine engine;
    auto report = engine.run(demoWorkload());
    for (const InstanceReport &want : report.instances) {
        auto machine = ot::topo::registry().build(cacheKeyFor(want.spec));
        InstanceReport got;
        runInstance(want.spec, *machine, got);
        EXPECT_TRUE(got.verified) << toToken(want.spec);
        EXPECT_EQ(got.time, want.time) << toToken(want.spec);
        EXPECT_EQ(got.steps, want.steps) << toToken(want.spec);
        EXPECT_EQ(got.area, want.area) << toToken(want.spec);
    }
}

/**
 * A deliberately wrong machine: it sorts, then swaps the smallest and
 * largest keys.  Test-only and never registered, since other suites
 * iterate the registry's names.
 */
class MisSortingMachine : public ot::topo::Machine
{
  public:
    explicit MisSortingMachine(const ot::topo::MachineSpec &spec)
        : Machine(spec)
    {
    }

    void reset() override { _acct.reset(); }
    std::uint64_t area() const override { return 1; }
    std::uint64_t steps() const override { return _acct.steps(); }
    ot::vlsi::ModelTime now() const override { return _acct.now(); }
    void charge(ot::vlsi::ModelTime dt) override { _acct.advance(dt); }
    ot::vlsi::ModelTime exchangeStepCost(std::size_t) const override
    {
        return 1;
    }
    ot::vlsi::ModelTime broadcastCost() const override { return 1; }
    ot::vlsi::ModelTime reduceCost() const override { return 1; }

    ot::topo::SortRun
    runSort(const std::vector<std::uint64_t> &values) override
    {
        auto r = Machine::runSort(values);
        std::swap(r.sorted.front(), r.sorted.back());
        return r;
    }

  private:
    ot::sim::TimeAccountant _acct;
};

TEST(BatchEngineTest, VerificationGateCatchesAWrongMachine)
{
    // The gate behind `otsim` exit 1: a machine whose output is a
    // wrong permutation must fail its instance and the whole report.
    const InstanceSpec spec = inst(Algo::Sort, "otn", 16);
    BatchReport report;
    report.instances.resize(2);
    report.instances[0].spec = spec;
    report.instances[1].spec = spec;
    report.instances[1].index = 1;

    auto right = ot::topo::registry().build(cacheKeyFor(spec));
    runInstance(spec, *right, report.instances[0]);
    EXPECT_TRUE(report.instances[0].verified);

    MisSortingMachine wrong(cacheKeyFor(spec));
    runInstance(spec, wrong, report.instances[1]);
    EXPECT_FALSE(report.instances[1].verified);
    EXPECT_FALSE(report.allVerified());

    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"index\": 1, \"algo\": \"sort\""),
              std::string::npos);
    const std::size_t row = json.find("\"index\": 1,");
    EXPECT_NE(json.find("\"verified\": false", row), std::string::npos);
    EXPECT_NE(json.find("\"verified\": false}}"), std::string::npos);

    std::ostringstream text;
    report.writeText(text);
    std::istringstream lines(text.str());
    std::string header, ok, bad, summary;
    std::getline(lines, header);
    std::getline(lines, ok);
    std::getline(lines, bad);
    std::getline(lines, summary);
    EXPECT_NE(ok.find(" yes "), std::string::npos) << ok;
    EXPECT_NE(bad.find(" NO "), std::string::npos) << bad;
    EXPECT_NE(summary.find("VERIFICATION FAILED"), std::string::npos)
        << summary;
}

TEST(SpecTest, ParseUintTakesDigitsOnly)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(parseUint("64", v));
    EXPECT_EQ(v, 64u);
    EXPECT_FALSE(parseUint("", v));
    EXPECT_FALSE(parseUint("64abc", v));
    EXPECT_FALSE(parseUint("-1", v));
    EXPECT_FALSE(parseUint("+64", v));
    EXPECT_FALSE(parseUint(" 64", v));
    EXPECT_FALSE(parseUint("18446744073709551616", v)); // 2^64
    EXPECT_EQ(v, 64u); // untouched by the failures
}

TEST(BatchEngineTest, CachePersistsAcrossRuns)
{
    BatchEngine engine;
    auto cold = engine.run(demoWorkload());
    auto warm = engine.run(demoWorkload());

    EXPECT_EQ(warm.cacheHits, 12u);
    EXPECT_EQ(warm.cacheMisses, 0u);
    EXPECT_EQ(engine.cache().size(), 9u);

    // Machine reuse must not leak state between runs: the warm pass
    // reproduces the cold pass exactly.
    EXPECT_EQ(warm.makespan, cold.makespan);
    for (std::size_t i = 0; i < cold.instances.size(); ++i) {
        EXPECT_EQ(warm.instances[i].time, cold.instances[i].time) << i;
        EXPECT_TRUE(warm.instances[i].verified) << i;
    }
}

TEST(BatchEngineTest, ReportsAreByteIdenticalAcrossHostThreads)
{
    std::vector<std::string> jsons;
    std::vector<std::string> texts;
    for (unsigned threads : {1u, 2u, 8u}) {
        BatchEngine engine(threads);
        auto report = engine.run(demoWorkload());
        jsons.push_back(report.toJson());
        std::ostringstream os;
        report.writeText(os);
        texts.push_back(os.str());
    }
    EXPECT_EQ(jsons[0], jsons[1]);
    EXPECT_EQ(jsons[0], jsons[2]);
    EXPECT_EQ(texts[0], texts[1]);
    EXPECT_EQ(texts[0], texts[2]);
}

#ifdef OT_TRACE
TEST(BatchEngineTest, TraceStreamsAreIdenticalAcrossHostThreads)
{
    auto trace_of = [](unsigned threads) {
        auto tracer = std::make_unique<ot::trace::Tracer>();
        tracer->setEnabled(true);
        BatchEngine engine(threads);
        engine.setTracer(tracer.get());
        engine.run(demoWorkload());
        engine.setTracer(nullptr);
        return tracer;
    };

    auto seq = trace_of(1);
    EXPECT_GT(seq->events().size(), 0u);
    EXPECT_EQ(seq->dropped(), 0u);
    for (unsigned threads : {2u, 8u}) {
        auto par = trace_of(threads);
        ASSERT_EQ(par->events().size(), seq->events().size())
            << "threads=" << threads;
        for (std::size_t i = 0; i < seq->events().size(); ++i)
            ASSERT_TRUE(ot::trace::eventsEqual(seq->events()[i],
                                               par->events()[i]))
                << "threads=" << threads << " event " << i;
    }
}
#endif

TEST(BatchEngineTest, StatsSurfaceCacheAndAlgoCounters)
{
    BatchEngine engine;
    engine.run(demoWorkload());
    EXPECT_EQ(engine.stats().counter("workload.instances").value(), 12u);
    EXPECT_EQ(engine.stats().counter("workload.cache.hit").value(), 3u);
    EXPECT_EQ(engine.stats().counter("workload.cache.miss").value(), 9u);
    EXPECT_EQ(engine.stats().counter("workload.algo.sort").value(), 4u);
    EXPECT_EQ(engine.stats().counter("workload.algo.mst").value(), 2u);
}

TEST(SpecTest, JsonRoundTrips)
{
    auto spec = demoWorkload();
    auto text = toJson(spec);
    WorkloadSpec parsed;
    std::string err;
    ASSERT_TRUE(parseWorkloadJson(text, parsed, err)) << err;
    EXPECT_EQ(parsed.instances, spec.instances);
}

TEST(SpecTest, ParseInstanceTokens)
{
    InstanceSpec out;
    std::string err;
    ASSERT_TRUE(parseInstance("boolmm:otc:64:const:seed=7", out, err))
        << err;
    EXPECT_EQ(out.algo, Algo::BoolMatMul);
    EXPECT_EQ(out.net, "otc");
    EXPECT_EQ(out.n, 64u);
    EXPECT_EQ(out.model, DelayModel::Constant);
    EXPECT_EQ(out.seed, 7u);
    EXPECT_FALSE(out.scaled);

    ASSERT_TRUE(parseInstance("sort:otn:32:log:scaled", out, err)) << err;
    EXPECT_TRUE(out.scaled);

    EXPECT_FALSE(parseInstance("sort:otn:32", out, err));
    EXPECT_FALSE(parseInstance("quicksort:otn:32:log", out, err));

    // Any registry topology is a valid net token now.
    ASSERT_TRUE(parseInstance("sort:mesh:32:log", out, err)) << err;
    EXPECT_EQ(out.net, "mesh");
    ASSERT_TRUE(parseInstance("sssp:fattree:16:log", out, err)) << err;
    EXPECT_EQ(out.algo, Algo::ShortestPaths);
    EXPECT_EQ(out.net, "fattree");
    EXPECT_FALSE(parseInstance("sort:hypercube:32:log", out, err));
    EXPECT_NE(err.find("unknown net 'hypercube'"), std::string::npos);
}

TEST(SpecTest, DescribeInvalidFlagsBadSizes)
{
    WorkloadSpec spec;
    EXPECT_NE(describeInvalid(spec), "");
    spec.instances.push_back(inst(Algo::Sort, "otn", 16));
    EXPECT_EQ(describeInvalid(spec), "");
    spec.instances.push_back(inst(Algo::Sort, "otn", 24));
    EXPECT_NE(describeInvalid(spec), "");
}

} // namespace
