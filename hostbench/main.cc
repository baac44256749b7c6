/**
 * @file
 * hostbench: the host-time benchmark of the orthotree simulator.
 *
 * One process runs one workload through the public API of
 * src/workload and src/scenario (BatchEngine::run,
 * ScenarioEngine::run).  Untraced (--trace 0) it reports the
 * end-to-end metrics; traced (--trace 1) it replays every instance
 * from outside with a span around each layer call (replica.hh) and
 * reports the per-layer metrics.  Model time — the paper's Thompson
 * cost — is only pinned here (the golden file); host time is what is
 * measured.  See hostbench/README.md.
 *
 *   hostbench --workload sort_large --seed 1 --seconds 10 --trace 0
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "replica.hh"
#include "scenario/arrivals.hh"
#include "scenario/engine.hh"
#include "scenario/spec.hh"
#include "simd/backend.hh"
#include "spans.hh"
#include "workload/engine.hh"
#include "workload/spec.hh"
#include "workloads.hh"

namespace hb = hostbench;
using namespace ot;

namespace {

const hb::Clock::time_point kProcessStart = hb::Clock::now();

constexpr const char *kUsage =
    "usage: hostbench --workload NAME [--seed N] [--seconds S] "
    "[--trace 0|1]\n"
    "                 [--size full|tiny] [--scn FILE] [--golden FILE]\n"
    "                 [--spans-out FILE]\n"
    "       hostbench --write-golden FILE [--scn FILE]\n";

/** Untraced set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 9;
/** Minimum calls per untraced run: >= 10 samples beyond the p90. */
constexpr std::size_t kMinCalls = 100;
/** Minimum timed calls per traced run. */
constexpr std::size_t kMinTracedCalls = 3;
/** A run stops measuring here whatever --seconds says. */
constexpr double kMaxWindowS = 120;

constexpr std::array<scenario::SchedulerKind, 4> kPolicies = {
    scenario::SchedulerKind::Fifo, scenario::SchedulerKind::Sjf,
    scenario::SchedulerKind::FairShare, scenario::SchedulerKind::Edf};
constexpr std::array<const char *, 4> kPolicyNames = {"fifo", "sjf", "fair",
                                                      "edf"};
constexpr std::array<const char *, 4> kWalkSpans = {
    "scenario.walk.fifo", "scenario.walk.sjf", "scenario.walk.fair",
    "scenario.walk.edf"};

struct Options
{
    std::string workload;
    std::uint64_t seed = hb::kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;
    std::string scn = "hostbench/scenario.scn";
    std::string golden = "hostbench/golden.tsv";
    std::string spansOut;
    std::string writeGolden;
};

/** A bad request: message to stderr, exit 2, no result line. */
struct UsageError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            throw UsageError("missing value after " + arg);
        const std::string val = argv[++i];
        try {
            if (arg == "--workload")
                o.workload = val;
            else if (arg == "--seed")
                o.seed = std::stoull(val);
            else if (arg == "--seconds")
                o.seconds = std::stod(val);
            else if (arg == "--trace")
                o.trace = std::stoi(val) != 0;
            else if (arg == "--size" && (val == "full" || val == "tiny"))
                o.tiny = val == "tiny";
            else if (arg == "--scn")
                o.scn = val;
            else if (arg == "--golden")
                o.golden = val;
            else if (arg == "--spans-out")
                o.spansOut = val;
            else if (arg == "--write-golden")
                o.writeGolden = val;
            else
                throw UsageError("bad argument " + arg + " " + val);
        } catch (const std::logic_error &) {
            throw UsageError("bad value for " + arg + ": " + val);
        }
    }
    if (o.writeGolden.empty() && o.workload.empty())
        throw UsageError("--workload is required");
    if (!(o.seconds > 0))
        throw UsageError("--seconds must be positive");
    return o;
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        throw UsageError("cannot read " + path);
    std::ostringstream text;
    text << f.rdbuf();
    return text.str();
}

/** Median (mean of the middle pair for even counts); 0 if empty. */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Nearest-rank percentile (the scenario engine's rule). */
double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

double
sinceMs(hb::Clock::time_point t)
{
    return hb::secondsBetween(t, hb::Clock::now()) * 1e3;
}

/** Keeps report bytes observable so no build elides toJson. */
std::size_t g_reportBytes = 0;

workload::WorkloadSpec
parseBatch(const std::string &text)
{
    workload::WorkloadSpec spec;
    std::string err;
    if (!workload::parseWorkloadJson(text, spec, err))
        throw std::runtime_error("workload spec rejected: " + err);
    if (std::string bad = workload::describeInvalid(spec); !bad.empty())
        throw std::runtime_error("workload spec invalid: " + bad);
    return spec;
}

scenario::ScenarioSpec
parseScenarioText(const std::string &text)
{
    scenario::ScenarioSpec spec;
    std::string err;
    if (!scenario::parseScenario(text, spec, err))
        throw std::runtime_error("scenario spec rejected: " + err);
    if (std::string bad = scenario::describeInvalid(spec); !bad.empty())
        throw std::runtime_error("scenario spec invalid: " + bad);
    return spec;
}

// ------------------------------------------------------------ untraced

/** Outcome of one top-level call. */
struct CallOutcome
{
    std::size_t ops = 0;
    /** Ops that failed their reference check (or cross-check). */
    std::size_t failed = 0;
    hb::Totals totals;
};

/** One top-level call, as a user of the public API makes it. */
using Caller = std::function<CallOutcome(std::size_t call)>;

hb::Totals
batchTotals(const workload::BatchReport &rep)
{
    hb::Totals t;
    for (const workload::InstanceReport &r : rep.instances) {
        t.time += r.time;
        t.steps += r.steps;
        t.area += r.area;
    }
    return t;
}

hb::Totals
scenarioTotals(const std::vector<scenario::ScenarioReport> &reps)
{
    hb::Totals t;
    for (const scenario::JobOutcome &jo : reps[0].jobs)
        t.time += jo.service;
    for (std::size_t k = 0; k < reps.size(); ++k)
        t.p95[k] = reps[k].sojourn.p95;
    return t;
}

/** `otsim batch --spec` as a call: parse, run, report. */
Caller
makeBatchCaller(const Options &o, const hb::Workload &w, unsigned threads)
{
    auto engine = std::make_shared<workload::BatchEngine>(threads);
    return [&o, &w, engine](std::size_t call) {
        workload::WorkloadSpec spec =
            parseBatch(hb::batchSpecJson(w, o.tiny, o.seed, call));
        workload::BatchReport rep = engine->run(spec);
        g_reportBytes += rep.toJson().size();
        CallOutcome out;
        out.ops = rep.instances.size();
        for (const workload::InstanceReport &r : rep.instances)
            out.failed += r.verified ? 0 : 1;
        out.totals = batchTotals(rep);
        return out;
    };
}

/**
 * `otsim scenario --file X --compare fifo,sjf,fair,edf` as a call,
 * with a fresh ScenarioEngine (cold cache) each time.
 */
Caller
makeScenarioCaller(const Options &o, const std::string &tmpl,
                   unsigned threads)
{
    return [&o, &tmpl, threads](std::size_t call) {
        scenario::ScenarioSpec spec = parseScenarioText(
            hb::scenarioText(tmpl, o.tiny, o.seed, call));
        scenario::ScenarioEngine engine(threads);
        std::vector<scenario::ScenarioReport> reps;
        for (scenario::SchedulerKind k : kPolicies)
            reps.push_back(engine.run(spec, k));
        g_reportBytes += scenario::compareJson(reps).size();
        CallOutcome out;
        out.ops = reps[0].arrivals * reps.size();
        for (const scenario::ScenarioReport &r : reps)
            if (!r.verified)
                out.failed = out.ops;
        out.totals = scenarioTotals(reps);
        return out;
    };
}

Caller
makeCaller(const Options &o, const hb::Workload &w, const std::string &tmpl,
           unsigned threads)
{
    return w.kind == hb::Kind::Batch ? makeBatchCaller(o, w, threads)
                                     : makeScenarioCaller(o, tmpl, threads);
}

/** Stored totals of one workload: call index -> totals. */
using GoldenRows = std::map<std::size_t, hb::Totals>;

/**
 * The model-drift gate: a call's totals must equal the stored row
 * (default seed, full size) and every earlier call with the same
 * index mod kCallPeriod (any seed, any host-thread count).
 */
class DriftGate
{
  public:
    explicit DriftGate(const GoldenRows *golden)
        : _golden(golden)
    {
    }

    bool
    check(std::size_t call, const hb::Totals &t)
    {
        const std::size_t key = call % hb::kCallPeriod;
        if (_golden) {
            auto it = _golden->find(key);
            if (it == _golden->end() || !(it->second == t))
                return false;
        }
        auto [it, fresh] = _seen.try_emplace(key, t);
        return fresh || it->second == t;
    }

  private:
    const GoldenRows *_golden;
    std::map<std::size_t, hb::Totals> _seen;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct RunResult
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /** Reported in the final JSON. */
    std::vector<Metric> metrics;
    /** Printed for people only. */
    std::vector<Metric> extra;
};

/** Ops counted as failed for a call (all of them on model drift). */
std::size_t
failedOps(const CallOutcome &c, DriftGate &gate, std::size_t call)
{
    return gate.check(call, c.totals) ? c.failed : c.ops;
}

RunResult
runUntraced(const Options &o, const hb::Workload &w, const std::string &tmpl,
            const GoldenRows *golden)
{
    RunResult res;
    DriftGate gate(golden);
    auto account = [&](const CallOutcome &c, std::size_t call) {
        const std::size_t bad = failedOps(c, gate, call);
        res.attempted += c.ops;
        res.failed += bad;
        return c.ops - bad;
    };

    // Set-up: spec parse, engine, every cache build and the first call;
    // repeated from scratch, the first time from process start.
    std::vector<double> setupS;
    Caller caller;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const auto t0 = rep == 0 ? kProcessStart : hb::Clock::now();
        caller = nullptr;
        caller = makeCaller(o, w, tmpl, w.hostThreads);
        const CallOutcome c = caller(0);
        setupS.push_back(hb::secondsBetween(t0, hb::Clock::now()));
        account(c, 0);
    }

    // The timed window: warm calls until --seconds and kMinCalls.
    std::vector<double> callMs;
    std::size_t verifiedOps = 0;
    const auto w0 = hb::Clock::now();
    double windowS = 0;
    for (std::size_t call = 1;; ++call) {
        windowS = hb::secondsBetween(w0, hb::Clock::now());
        if ((windowS >= o.seconds && callMs.size() >= kMinCalls) ||
            windowS >= kMaxWindowS)
            break;
        const auto t = hb::Clock::now();
        const CallOutcome c = caller(call);
        callMs.push_back(sinceMs(t));
        verifiedOps += account(c, call);
    }

    // Byte-identity across host threads: the same calls on one lane
    // must reproduce the model totals the gate recorded.
    if (w.hostThreads > 1) {
        Caller single = makeCaller(o, w, tmpl, 1);
        for (std::size_t call = 0; call < 4; ++call)
            account(single(call), call);
    }

    const double failRatio = static_cast<double>(res.failed) /
                             static_cast<double>(res.attempted);
    res.metrics = {
        {"ops_per_s", static_cast<double>(verifiedOps) / windowS, "ops/s"},
        {"call_ms.p50", percentile(callMs, 50), "ms"},
        {"call_ms.p90", percentile(callMs, 90), "ms"},
        {"setup_s", median(setupS), "s"},
        {"peak_rss_mb", static_cast<double>(hb::peakRssKb()) / 1024.0,
         "MB"},
        {"verified_ratio", 1.0 - failRatio, "ratio"},
    };
    res.extra = {
        {"fail_ratio", failRatio, "ratio"},
        {"call_ms.samples", static_cast<double>(callMs.size()), "count"},
        {"window_s", windowS, "s"},
    };
    return res;
}

// -------------------------------------------------------------- traced

/** What one traced call leaves besides its spans. */
struct TracedCall
{
    std::size_t ops = 0;
    std::size_t failed = 0;
    hb::Totals totals;
    /** The same replay with spans off (trace.overhead_ratio). */
    double plainMs = 0;
    std::size_t acquires = 0;
    std::size_t builds = 0;
    /** Peak-RSS growth across the replay (the cache's machines, built
     *  and first touched, on a cold call). */
    long replayRssKb = 0;
    /** Replayed instances cross-checked against the engine. */
    std::size_t checked = 0;
    std::size_t mismatched = 0;
    std::uint64_t replicaSteps = 0;
    std::uint64_t replicaArea = 0;
};

void
noteReplay(TracedCall &tc, const hb::ReplayOutcome &x)
{
    ++tc.acquires;
    tc.builds += x.built ? 1 : 0;
    tc.replicaSteps += x.steps;
    tc.replicaArea += x.area;
}

TracedCall
tracedBatchCall(const Options &o, const hb::Workload &w,
                workload::BatchEngine &engine, hb::SpanLog &log,
                std::size_t call)
{
    TracedCall tc;
    const std::string text = hb::batchSpecJson(w, o.tiny, o.seed, call);
    hb::ScopedSpan whole(log, "bench.call", call);

    workload::WorkloadSpec spec;
    {
        hb::ScopedSpan s(log, "workload.spec.parse", call);
        spec = parseBatch(text);
    }
    // The replay goes first so call 0's cache builds are timed.
    std::vector<hb::ReplayOutcome> replayed;
    {
        hb::ScopedSpan s(log, "bench.replay", call);
        const long rss = hb::peakRssKb();
        for (const workload::InstanceSpec &inst : spec.instances)
            replayed.push_back(
                hb::replayInstance(inst, engine.cache(), log, call));
        tc.replayRssKb = hb::peakRssKb() - rss;
    }
    hb::SpanLog off(false);
    const auto t0 = hb::Clock::now();
    for (const workload::InstanceSpec &inst : spec.instances)
        hb::replayInstance(inst, engine.cache(), off, call);
    tc.plainMs = sinceMs(t0);

    workload::BatchReport rep;
    {
        hb::ScopedSpan s(log, "bench.engine", call);
        rep = engine.run(spec);
    }
    {
        hb::ScopedSpan s(log, "workload.report", call);
        g_reportBytes += rep.toJson().size();
    }

    tc.ops = rep.instances.size();
    tc.totals = batchTotals(rep);
    for (std::size_t k = 0; k < rep.instances.size(); ++k) {
        const workload::InstanceReport &r = rep.instances[k];
        const hb::ReplayOutcome &x = replayed[k];
        noteReplay(tc, x);
        ++tc.checked;
        const bool same = x.verified == r.verified && x.time == r.time &&
                          x.steps == r.steps && x.area == r.area;
        tc.mismatched += same ? 0 : 1;
        tc.failed += same && r.verified ? 0 : 1;
    }
    return tc;
}

TracedCall
tracedScenarioCall(const Options &o, const hb::Workload &w,
                   const std::string &tmpl, hb::SpanLog &log,
                   std::size_t call)
{
    TracedCall tc;
    const std::string text = hb::scenarioText(tmpl, o.tiny, o.seed, call);
    hb::ScopedSpan whole(log, "bench.call", call);

    scenario::ScenarioSpec spec;
    {
        hb::ScopedSpan s(log, "scenario.spec.parse", call);
        spec = parseScenarioText(text);
    }
    scenario::ScenarioEngine se(w.hostThreads);
    std::vector<scenario::Arrival> arrivals;
    {
        hb::ScopedSpan s(log, "scenario.arrivals", call);
        arrivals = scenario::generateArrivals(spec);
    }
    // The measurement stage from outside: every distinct instance in
    // first-appearance order, on the engine's own (cold) cache.
    std::map<workload::InstanceSpec, hb::ReplayOutcome> measured;
    {
        hb::ScopedSpan s(log, "scenario.measure", call);
        const long rss = hb::peakRssKb();
        for (const scenario::Arrival &a : arrivals)
            if (!measured.count(a.inst))
                measured.emplace(a.inst,
                                 hb::replayInstance(a.inst, se.batch().cache(),
                                                    log, call));
        tc.replayRssKb = hb::peakRssKb() - rss;
    }
    {
        // Its untraced twin, also on a cold cache.
        hb::SpanLog off(false);
        workload::NetworkCache cold;
        std::set<workload::InstanceSpec> seen;
        const auto t0 = hb::Clock::now();
        for (const scenario::Arrival &a : arrivals)
            if (seen.insert(a.inst).second)
                hb::replayInstance(a.inst, cold, off, call);
        tc.plainMs = sinceMs(t0);
    }

    {
        // The engine's own measurement (warm cache) plus a fifo walk;
        // the walk spans below rerun on the warm measurement memo.
        hb::ScopedSpan s(log, "bench.engine", call);
        se.run(spec, kPolicies[0]);
    }
    std::vector<scenario::ScenarioReport> reps;
    for (std::size_t k = 0; k < kPolicies.size(); ++k) {
        hb::ScopedSpan s(log, kWalkSpans[k], call);
        reps.push_back(se.run(spec, kPolicies[k]));
    }
    {
        hb::ScopedSpan s(log, "workload.report", call);
        g_reportBytes += scenario::compareJson(reps).size();
    }

    tc.ops = arrivals.size() * reps.size();
    tc.totals = scenarioTotals(reps);
    bool verified = true;
    for (const scenario::ScenarioReport &r : reps)
        verified = verified && r.verified;
    // A ScenarioReport carries per-job service times and one verified
    // flag, so those are what the replica is checked against.
    for (const auto &[inst, x] : measured) {
        noteReplay(tc, x);
        ++tc.checked;
        verified = verified && x.verified;
    }
    for (std::size_t j = 0; j < arrivals.size(); ++j)
        if (reps[0].jobs[j].service != measured.at(arrivals[j].inst).time)
            ++tc.mismatched;
    if (tc.mismatched || !verified)
        tc.failed = tc.ops;
    return tc;
}

RunResult
runTraced(const Options &o, const hb::Workload &w, const std::string &tmpl,
          const GoldenRows *golden)
{
    RunResult res;
    DriftGate gate(golden);
    hb::SpanLog log(true);
    const bool batch = w.kind == hb::Kind::Batch;
    // Batch calls share one warm engine; scenario calls build their own.
    std::unique_ptr<workload::BatchEngine> engine;
    if (batch)
        engine = std::make_unique<workload::BatchEngine>(w.hostThreads);
    auto traced = [&](std::size_t call) {
        TracedCall tc = batch ? tracedBatchCall(o, w, *engine, log, call)
                              : tracedScenarioCall(o, w, tmpl, log, call);
        if (!gate.check(call, tc.totals))
            tc.failed = tc.ops;
        res.attempted += tc.ops;
        res.failed += tc.failed;
        return tc;
    };

    std::vector<TracedCall> calls;
    calls.push_back(traced(0)); // set-up: every cache build
    const auto w0 = hb::Clock::now();
    for (std::size_t call = 1;; ++call) {
        const double el = hb::secondsBetween(w0, hb::Clock::now());
        if ((el >= o.seconds && calls.size() > kMinTracedCalls) ||
            el >= kMaxWindowS)
            break;
        calls.push_back(traced(call));
    }

    const hb::LayerTimes self = log.selfMs();
    const hb::LayerTimes total = log.totalMs();
    auto at = [](const hb::LayerTimes &t, std::size_t call,
                 const char *name) {
        auto c = t.find(call);
        if (c == t.end())
            return 0.0;
        auto v = c->second.find(name);
        return v == c->second.end() ? 0.0 : v->second;
    };
    // Median over the timed (warm) calls of a per-call quantity.
    auto warm = [&](auto &&perCall) {
        std::vector<double> v;
        for (std::size_t c = 1; c < calls.size(); ++c)
            v.push_back(perCall(c));
        return median(v);
    };
    auto selfMed = [&](const char *name) {
        return warm([&](std::size_t c) { return at(self, c, name); });
    };
    auto sumOver = [&](const hb::LayerTimes &t, const char *name) {
        double s = 0;
        for (std::size_t c = 1; c < calls.size(); ++c)
            s += at(t, c, name);
        return s;
    };

    // Cache: build time per building call (all calls, so call 0's
    // builds count), hit ratio over the warm calls.
    std::vector<double> buildMs;
    std::size_t acquires = 0, builds = 0, checked = 0, mismatched = 0;
    double plainMs = 0;
    for (std::size_t c = 0; c < calls.size(); ++c) {
        if (calls[c].builds)
            buildMs.push_back(at(self, c, "workload.cache.build"));
        checked += calls[c].checked;
        mismatched += calls[c].mismatched;
        if (c == 0)
            continue;
        acquires += calls[c].acquires;
        builds += calls[c].builds;
        plainMs += calls[c].plainMs;
    }

    const double instanceMs = sumOver(total, "workload.instance");
    const double engineMs = sumOver(total, "bench.engine");
    // Scenario: the engine measured on a warm cache, so compare the
    // replayed instances without their builds, and take the memo-warm
    // fifo walk out of the engine's measuring run.
    const double farmSpeedup =
        batch ? instanceMs / engineMs
              : (instanceMs - sumOver(self, "workload.cache.build")) /
                    (engineMs - sumOver(total, "scenario.walk.fifo"));
    const double replayMs =
        sumOver(total, batch ? "bench.replay" : "scenario.measure");

    const TracedCall &first = calls[0];
    const std::uint64_t steps =
        batch ? first.totals.steps : first.replicaSteps;
    const std::uint64_t area = batch ? first.totals.area : first.replicaArea;

    res.metrics = {
        {"workload.spec.parse_ms", selfMed("workload.spec.parse"), "ms"},
        {"scenario.spec.parse_ms", selfMed("scenario.spec.parse"), "ms"},
        {"workload.cache.build_ms", median(buildMs), "ms"},
        {"workload.cache.hit_ratio",
         acquires ? 1.0 - static_cast<double>(builds) /
                              static_cast<double>(acquires)
                  : 0.0,
         "ratio"},
        {"workload.cache.acquires", static_cast<double>(acquires), "count"},
        {"workload.cache.rss_mb",
         static_cast<double>(calls[0].replayRssKb) / 1024.0, "MB"},
        {"topo.reset_ms", selfMed("topo.reset"), "ms"},
        {"topo.reset_share", sumOver(self, "topo.reset") / instanceMs,
         "ratio"},
        {"topo.run_ms.sort.otn", selfMed("topo.run.sort.otn"), "ms"},
        {"topo.run_ms.sort.otc", selfMed("topo.run.sort.otc"), "ms"},
        {"topo.run_ms.cc", selfMed("topo.run.cc"), "ms"},
        {"topo.run_ms.mst", selfMed("topo.run.mst"), "ms"},
        {"topo.run_ms.sssp", selfMed("topo.run.sssp"), "ms"},
        {"topo.run_ms.matmul", selfMed("topo.run.matmul"), "ms"},
        {"topo.run_ms.boolmm", selfMed("topo.run.boolmm"), "ms"},
        {"inputs.gen_ms", selfMed("inputs.gen"), "ms"},
        {"refs.verify_ms", selfMed("refs.verify"), "ms"},
        {"workload.report_ms", selfMed("workload.report"), "ms"},
        {"workload.engine.farm_speedup", farmSpeedup, "ratio"},
        {"scenario.arrivals_ms", selfMed("scenario.arrivals"), "ms"},
        {"scenario.measure_ms",
         warm([&](std::size_t c) { return at(total, c, "scenario.measure"); }),
         "ms"},
        {"scenario.measure_instances",
         batch ? 0.0
               : warm([&](std::size_t c) {
                     return static_cast<double>(calls[c].checked);
                 }),
         "count"},
    };
    for (std::size_t k = 0; k < kPolicies.size(); ++k) {
        // run(spec, X) on a warm memo regenerates the arrivals first;
        // the walk is what remains.
        const char *span = kWalkSpans[k];
        res.metrics.push_back(
            {std::string("scenario.walk_ms.") + kPolicyNames[k],
             batch ? 0.0 : warm([&](std::size_t c) {
                 return at(self, c, span) -
                        at(self, c, "scenario.arrivals");
             }),
             "ms"});
    }
    res.metrics.push_back(
        {"trace.overhead_ratio", replayMs / plainMs, "ratio"});
    res.metrics.push_back({"replica.checked", static_cast<double>(checked),
                           "count"});
    res.metrics.push_back(
        {"model.time_sum", static_cast<double>(first.totals.time), "count"});
    res.metrics.push_back(
        {"model.steps_sum", static_cast<double>(steps), "count"});
    res.metrics.push_back(
        {"model.area_sum", static_cast<double>(area), "count"});
    for (std::size_t k = 0; k < kPolicies.size(); ++k)
        res.metrics.push_back(
            {std::string("model.scenario_p95.") + kPolicyNames[k],
             static_cast<double>(first.totals.p95[k]), "count"});

    res.extra = {
        {"replica.mismatched", static_cast<double>(mismatched), "count"},
        {"traced_calls", static_cast<double>(calls.size()), "count"},
    };
    if (!o.spansOut.empty() && !log.write(o.spansOut))
        throw std::runtime_error("cannot write " + o.spansOut);
    return res;
}

// -------------------------------------------------------------- golden

/** Record kCallPeriod calls of every workload at the default seed. */
int
writeGoldenFile(Options o, const std::string &tmpl)
{
    o.seed = hb::kDefaultSeed;
    o.tiny = false;
    hb::Golden golden;
    for (const hb::Workload &w : hb::workloads()) {
        Caller caller = makeCaller(o, w, tmpl, w.hostThreads);
        for (std::size_t call = 0; call < hb::kCallPeriod; ++call) {
            const CallOutcome c = caller(call);
            if (c.failed)
                throw std::runtime_error(std::string(w.name) +
                                         ": unverified call " +
                                         std::to_string(call));
            golden[w.name][call] = c.totals;
        }
        std::fprintf(stderr, "hostbench: recorded %s\n", w.name);
    }
    if (!hb::writeGolden(o.writeGolden, golden))
        throw std::runtime_error("cannot write " + o.writeGolden);
    return 0;
}

// -------------------------------------------------------------- output

/** Every digit of a double (shortest round-trip form). */
std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printContext(const Options &o, const hb::Workload &w, unsigned nproc)
{
#ifdef NDEBUG
    const char *asserts = "off";
#else
    const char *asserts = "on";
#endif
    std::printf("context\t{\"workload\": \"%s\", \"seed\": %llu, "
                "\"held_out_seed\": %llu, \"trace\": %d, \"size\": \"%s\", "
                "\"build_type\": \"%s\", \"compiler\": \"%s\", "
                "\"asserts\": \"%s\", \"simd_backend\": \"%s\", "
                "\"host_threads\": %u, \"nproc\": %u}\n",
                w.name, static_cast<unsigned long long>(o.seed),
                static_cast<unsigned long long>(hb::kHeldOutSeed),
                o.trace ? 1 : 0, o.tiny ? "tiny" : "full",
                HOSTBENCH_BUILD_TYPE, HOSTBENCH_COMPILER " " __VERSION__,
                asserts, simd::toString(simd::activeBackend()),
                w.hostThreads, nproc);
}

int
run(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    const std::string tmpl = readFile(o.scn);
    if (!o.writeGolden.empty())
        return writeGoldenFile(o, tmpl);

    const hb::Workload *w = hb::findWorkload(o.workload);
    if (!w)
        throw UsageError("unknown workload " + o.workload);
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    if (w->hostThreads > nproc)
        throw UsageError(std::string(w->name) + " needs " +
                         std::to_string(w->hostThreads) +
                         " host threads; only " + std::to_string(nproc) +
                         " CPUs");
    setenv("OT_HOST_THREADS", std::to_string(w->hostThreads).c_str(), 1);

    // Stored totals hold for the default seed; the smoke configuration
    // reads rows named "<workload>.tiny" when a file provides them.
    hb::Golden golden;
    std::string err;
    if (!hb::readGolden(o.golden, golden, err))
        throw UsageError(err);
    const std::string key = std::string(w->name) + (o.tiny ? ".tiny" : "");
    const GoldenRows *rows = nullptr;
    if (o.seed == hb::kDefaultSeed) {
        auto it = golden.find(key);
        if (it != golden.end())
            rows = &it->second;
        else if (!o.tiny)
            throw UsageError("no stored model totals for " + key + " in " +
                             o.golden);
    }

    printContext(o, *w, nproc);
    const RunResult res = o.trace ? runTraced(o, *w, tmpl, rows)
                                  : runUntraced(o, *w, tmpl, rows);

    for (const std::vector<Metric> *list : {&res.metrics, &res.extra})
        for (const Metric &m : *list)
            std::printf("metric\t%s\t%s\t%s\n", m.name.c_str(),
                        number(m.value).c_str(), m.unit.c_str());
    std::printf("report_bytes\t%zu\n", g_reportBytes);

    std::string json = "{\"correct\": ";
    json += res.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(res.attempted);
    json += ", \"failed\": " + std::to_string(res.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < res.metrics.size(); ++i) {
        const Metric &m = res.metrics[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return res.failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const UsageError &e) {
        std::fprintf(stderr, "hostbench: %s\n%s", e.what(), kUsage);
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hostbench: run aborted: %s\n", e.what());
        return 1;
    }
}
