/**
 * @file
 * The benchmark's workloads, their seeded inputs and the stored model
 * totals (the model-drift gate).
 *
 * The workload seed is a benchmark argument; the simulator only ever
 * sees the generated inputs: a workload JSON document per batch call,
 * a .scn text per scenario call.  Call i draws its instance seeds from
 * (seed, i mod kCallPeriod), so every call in a run is fresh until the
 * period wraps, and a call index names the same inputs in every run.
 */

#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hostbench {

/** The seed the stored model totals were recorded with. */
inline constexpr std::uint64_t kDefaultSeed = 1;

/** A seed no tuning used: later claims must also hold on it. */
inline constexpr std::uint64_t kHeldOutSeed = 4093;

/** Calls per input cycle (and rows per workload in the golden file). */
inline constexpr std::size_t kCallPeriod = 256;

enum class Kind { Batch, Scenario };

/** One instance shape of a batch mix (sizes for the full/tiny runs). */
struct Shape
{
    const char *algo;
    const char *net;
    std::size_t n;
    std::size_t tinyN;
};

struct Workload
{
    const char *name;
    Kind kind;
    /** Host threads of the engine (OT_HOST_THREADS); <= nproc. */
    unsigned hostThreads;
    /** Batch mix, one instance per shape per call (empty: scenario). */
    std::vector<Shape> mix;
};

/** The workloads, in the order BENCHMARK.json lists them. */
const std::vector<Workload> &workloads();

/** Workload by name; nullptr when unknown. */
const Workload *findWorkload(const std::string &name);

/** The input seed of call `call` under workload seed `seed`. */
std::uint64_t callSeed(std::uint64_t seed, std::size_t call);

/** The workload JSON document of one batch call. */
std::string batchSpecJson(const Workload &w, bool tiny,
                          std::uint64_t seed, std::size_t call);

/** The .scn template with the call's arrival seed and size filled in. */
std::string scenarioText(const std::string &tmpl, bool tiny,
                         std::uint64_t seed, std::size_t call);

/** Model totals of one call; these repeat bit for bit. */
struct Totals
{
    /** Batch: summed instance model times; scenario: summed job
     *  service times. */
    std::uint64_t time = 0;
    /** Batch only (a ScenarioReport carries no steps or area). */
    std::uint64_t steps = 0;
    std::uint64_t area = 0;
    /** Scenario only: p95 sojourn under fifo, sjf, fair, edf. */
    std::array<std::uint64_t, 4> p95{};

    bool operator==(const Totals &other) const = default;
};

/** Stored totals: workload -> call index -> totals. */
using Golden = std::map<std::string, std::map<std::size_t, Totals>>;

/** Read a golden TSV; false (with `err`) on a missing/malformed file. */
bool readGolden(const std::string &path, Golden &out, std::string &err);

bool writeGolden(const std::string &path, const Golden &golden);

} // namespace hostbench
