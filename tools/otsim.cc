/**
 * @file
 * otsim — command-line driver for the orthotree simulators.
 *
 * Usage:
 *   otsim <algo>   [--net NAME] [--n N] [--seed S]
 *                  [--model log|const|linear] [--scaled]
 *                  [--trace-out FILE] [--trace-summary FILE]
 *   otsim trace    [<algo>] [the <algo> options]
 *   otsim layout   --net otn|otc [--n N] [--art] [--svg FILE]
 *   otsim tables   [--n N]
 *   otsim topo     --list
 *   otsim batch    [--demo] [--spec FILE.json]
 *                  [--inst algo:net:n:model[:scaled][:seed=K]]...
 *                  [--json FILE] [--trace-out FILE]
 *   otsim scenario --file FILE.scn | --demo [--scheduler POLICY]
 *                  [--compare POLICY,...] [--json FILE]
 *   otsim golden   --write FILE | --check FILE
 *   otsim simd
 *
 * <algo> is a topo::Algo spelling: sort, matmul, boolmm, cc, mst or
 * sssp.  An algorithm command is a one-instance workload: the flags
 * become a workload::InstanceSpec, rejected with exit 2 at the same
 * spec boundary `batch` uses (N a power of two in [2, 16384], --net
 * any registered topology, `otsim topo --list`).  The machine comes
 * from the topo registry and workload::runInstance — the batch
 * engine's per-instance runner — draws the inputs from --seed, runs
 * them and verifies the result against the sequential reference.  The
 * run prints `<instance token> — verified` and the machine's model
 * time, chip area and AT^2; a mismatch exits 1.
 *
 * `batch` executes a workload of heterogeneous instances on a machine
 * farm (one simulated machine per distinct shape, cached and reused;
 * see src/workload/engine.hh), printing a per-instance table and the
 * aggregate model-time throughput.  The report is deterministic:
 * byte-identical at every OT_HOST_THREADS setting.
 *
 * Tracing: `--trace-out FILE` on any algorithm command and any --net
 * records every primitive and clock tick in model time and writes a
 * Chrome trace-event JSON loadable in ui.perfetto.dev, with the
 * machine's counters as metadata; `--trace-summary FILE` writes the
 * analyzer's per-phase/per-tree breakdown as JSON.  The `trace`
 * subcommand runs an algorithm (default sort) and prints that
 * breakdown as text.
 *
 * `golden` runs every algorithm on every registered topology at
 * N = 16, 64, 256 (and 1024 for sort) under the log and const delay
 * models, each on a fresh machine with the default seed, and prints
 * one row per cell: exact model time, parallel steps and chip area.
 * `--write FILE` stores the table (tests/golden/cells.tsv is the
 * checked-in copy); `--check FILE` exits 1 on any row that differs,
 * so model-cost drift fails a test even when every output verifies.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "orthotree/orthotree.hh"
#include "trace/analysis.hh"
#include "trace/export.hh"
#include "trace/tracer.hh"
#include "vlsi/bitmath.hh"
#include "vlsi/delay.hh"

namespace {

using namespace ot;

struct Options
{
    std::string command;
    /** --net, --n, --model, --scaled and --seed (algo set at dispatch). */
    workload::InstanceSpec inst;
    std::string svg_path;
    std::string trace_out;
    std::string trace_summary;
    std::string spec_path;           // batch: JSON workload file
    std::string json_out;            // batch: report JSON output
    std::vector<std::string> insts;  // batch: CLI instance tokens
    bool demo = false;               // batch: the 12-instance demo mix
    std::string scn_path;            // scenario: .scn spec file
    std::string scheduler_override;  // scenario: --scheduler
    std::string compare;             // scenario: comma list of policies
    std::string golden_write;        // golden: --write FILE
    std::string golden_check;        // golden: --check FILE
    bool art = false;
    bool list = false;       // the `topo` subcommand: --list
    bool trace_text = false; // the `trace` subcommand: print the summary

    bool
    tracing() const
    {
        return trace_text || !trace_out.empty() || !trace_summary.empty();
    }
};

[[noreturn]] void
usage(const char *argv0)
{
    std::string algos;
    for (topo::Algo algo : topo::allAlgos())
        algos += topo::toString(algo) + "|";
    std::fprintf(
        stderr,
        "usage: %s <%slayout|tables|trace|batch|scenario|topo|golden|"
        "simd> "
        "[options]\n"
        "  --net <name>   any registered topology (otsim topo --list)\n"
        "  --n <size>     a power of two in [2, 16384]   --seed <seed>\n"
        "  --model <log|const|linear>   --scaled   --art   --svg <file>\n"
        "  --trace-out <file>      write a Perfetto (Chrome trace) JSON\n"
        "  --trace-summary <file>  write the trace analyzer JSON\n"
        "  trace [<algo>]   run traced, print the breakdown\n"
        "  batch --demo | --spec <file.json> |\n"
        "        --inst algo:net:n:model[:scaled][:seed=K] (repeatable)\n"
        "        [--json <file>]  run a workload batch on the machine "
        "farm\n"
        "  topo --list      list the registered topologies\n"
        "  scenario --file <file.scn> [--scheduler fifo|sjf|fair|edf]\n"
        "        [--compare fifo,sjf,...] [--json <file>]  run a "
        "traffic\n"
        "        scenario (arrival process + scheduler + SLO report)\n"
        "  golden --write <file> | --check <file>  the model-cost table\n"
        "        of every algo x topology x N x delay model\n"
        "  simd  print the dispatched SIMD backend (OT_SIMD overrides)\n",
        argv0, algos.c_str());
    std::exit(2);
}

/** A decimal flag value: digits only (no sign, no junk), else exit 2. */
std::uint64_t
parseCount(const std::string &flag, const char *value)
{
    std::uint64_t out = 0;
    if (!workload::parseUint(value, out)) {
        std::fprintf(stderr,
                     "otsim: %s needs a non-negative decimal integer, "
                     "got '%s'\n",
                     flag.c_str(), value);
        std::exit(2);
    }
    return out;
}

Options
parse(int argc, char **argv)
{
    if (argc < 2)
        usage(argv[0]);
    Options opt;
    opt.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--net") {
            opt.inst.net = next();
        } else if (arg == "--n" || arg == "-n") {
            opt.inst.n = parseCount(arg, next());
        } else if (arg == "--trace-out") {
            opt.trace_out = next();
        } else if (arg == "--trace-summary") {
            opt.trace_summary = next();
        } else if (arg == "--spec") {
            opt.spec_path = next();
        } else if (arg == "--json") {
            opt.json_out = next();
        } else if (arg == "--inst") {
            opt.insts.push_back(next());
        } else if (arg == "--demo") {
            opt.demo = true;
        } else if (arg == "--file") {
            opt.scn_path = next();
        } else if (arg == "--scheduler") {
            opt.scheduler_override = next();
        } else if (arg == "--compare") {
            opt.compare = next();
        } else if (arg == "--write") {
            opt.golden_write = next();
        } else if (arg == "--check") {
            opt.golden_check = next();
        } else if (opt.command == "trace" && !arg.empty() &&
                   arg[0] != '-') {
            // `otsim trace <algo>` — the algorithm rides in `command`
            // once parsing is done.
            opt.command = arg;
            opt.trace_text = true;
        } else if (arg == "--seed") {
            opt.inst.seed = parseCount(arg, next());
        } else if (arg == "--model") {
            if (!workload::modelFromString(next(), opt.inst.model))
                usage(argv[0]);
        } else if (arg == "--scaled") {
            opt.inst.scaled = true;
        } else if (arg == "--art") {
            opt.art = true;
        } else if (arg == "--list") {
            opt.list = true;
        } else if (arg == "--svg") {
            opt.svg_path = next();
        } else {
            usage(argv[0]);
        }
    }
    if (opt.command == "trace") {
        opt.command = "sort";
        opt.trace_text = true;
    }
    if (opt.inst.n < 2 || opt.inst.n > (1u << 14)) {
        std::fprintf(stderr, "otsim: --n must be in [2, 16384]\n");
        std::exit(2);
    }
    return opt;
}

/** Read all of `path` into `out`; false, with a diagnostic, if unreadable. */
bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream f(path);
    if (!f) {
        std::fprintf(stderr, "otsim: cannot read %s\n", path.c_str());
        return false;
    }
    std::ostringstream text;
    text << f.rdbuf();
    out = text.str();
    return true;
}

/** Write `text` to `path`; false, with a diagnostic, on failure. */
bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream f(path);
    if (!(f << text)) {
        std::fprintf(stderr, "otsim: cannot write %s\n", path.c_str());
        return false;
    }
    return true;
}

/**
 * Tracing glue for the runners: one Tracer attached to the machine or
 * engine under test, flushed to the requested outputs after the run.
 */
class TraceSession
{
  public:
    explicit TraceSession(const Options &opt) : _opt(opt)
    {
        _tracer.setEnabled(opt.tracing());
    }

    bool active() const { return _tracer.enabled(); }

    template <typename Net>
    void
    attach(Net &net)
    {
        if (active())
            net.setTracer(&_tracer);
    }

    /** Write/print the requested outputs.  Returns 0 or an exit code. */
    int
    finish(const sim::StatSet &stats)
    {
        if (!active())
            return 0;
        auto summary = trace::analyze(_tracer);
        if (!_opt.trace_out.empty()) {
            std::ostringstream json;
            trace::writeChromeTrace(json, _tracer, stats.toJson());
            if (!writeFile(_opt.trace_out, json.str()))
                return 1;
            std::printf("wrote %s (%zu events, %llu dropped) — load in "
                        "ui.perfetto.dev\n",
                        _opt.trace_out.c_str(), _tracer.events().size(),
                        static_cast<unsigned long long>(_tracer.dropped()));
        }
        if (!_opt.trace_summary.empty()) {
            if (!writeFile(_opt.trace_summary, summary.toJson()))
                return 1;
            std::printf("wrote %s\n", _opt.trace_summary.c_str());
        }
        if (_opt.trace_text)
            summary.writeText(std::cout);
        return 0;
    }

  private:
    const Options &_opt;
    trace::Tracer _tracer;
};

void
printCost(const std::string &what, vlsi::ModelTime time, double area)
{
    double t = static_cast<double>(time);
    std::printf("%s: model time %s, area %s lambda^2, AT^2 %s\n",
                what.c_str(), analysis::formatQuantity(t).c_str(),
                analysis::formatQuantity(area).c_str(),
                analysis::formatQuantity(area * t * t).c_str());
}

/**
 * `otsim <algo>`: the flags as a one-instance workload, run on a
 * registry machine by the batch engine's own per-instance runner.
 */
int
runAlgo(const Options &opt, topo::Algo algo)
{
    workload::InstanceSpec inst = opt.inst;
    inst.algo = algo;
    if (std::string bad = workload::describeInvalid({{inst}}); !bad.empty()) {
        std::fprintf(stderr, "otsim: %s\n", bad.c_str());
        return 2;
    }
    TraceSession ts(opt); // outlives the machine that points at it
    auto machine = topo::registry().build(workload::cacheKeyFor(inst));
    ts.attach(*machine);
    workload::InstanceReport report;
    workload::runInstance(inst, *machine, report);
    if (int rc = ts.finish(machine->stats()))
        return rc;

    const std::string token = workload::toToken(inst);
    if (!report.verified) {
        std::fprintf(stderr, "otsim: %s: MISMATCH against the reference\n",
                     token.c_str());
        return 1;
    }
    std::printf("%s — verified\n", token.c_str());
    printCost(topo::toString(algo), report.time,
              static_cast<double>(report.area));
    return 0;
}

int
runBatch(const Options &opt)
{
    workload::WorkloadSpec spec;
    if (opt.demo)
        spec = workload::demoWorkload();
    if (!opt.spec_path.empty()) {
        std::string text;
        if (!readFile(opt.spec_path, text))
            return 1;
        workload::WorkloadSpec parsed;
        std::string err;
        if (!workload::parseWorkloadJson(text, parsed, err)) {
            std::fprintf(stderr, "otsim: %s: %s\n", opt.spec_path.c_str(),
                         err.c_str());
            return 2;
        }
        spec.instances.insert(spec.instances.end(),
                              parsed.instances.begin(),
                              parsed.instances.end());
    }
    for (const std::string &token : opt.insts) {
        workload::InstanceSpec inst;
        std::string err;
        if (!workload::parseInstance(token, inst, err)) {
            std::fprintf(stderr, "otsim: --inst: %s\n", err.c_str());
            return 2;
        }
        spec.instances.push_back(inst);
    }
    if (spec.instances.empty()) {
        std::fprintf(stderr, "otsim: batch needs --demo, --spec or "
                             "--inst\n");
        return 2;
    }
    if (std::string bad = workload::describeInvalid(spec); !bad.empty()) {
        std::fprintf(stderr, "otsim: %s\n", bad.c_str());
        return 2;
    }

    workload::BatchEngine engine;
    TraceSession ts(opt);
    ts.attach(engine);
    auto report = engine.run(spec);

    report.writeText(std::cout);
    if (!opt.json_out.empty()) {
        if (!writeFile(opt.json_out, report.toJson()))
            return 1;
        std::printf("wrote %s\n", opt.json_out.c_str());
    }
    if (int rc = ts.finish(engine.stats()))
        return rc;
    if (!report.allVerified()) {
        std::fprintf(stderr, "otsim: BATCH VERIFICATION FAILED\n");
        return 1;
    }
    return 0;
}

int
runScenario(const Options &opt)
{
    if (opt.scn_path.empty() && !opt.demo) {
        std::fprintf(stderr,
                     "otsim: scenario needs --file <file.scn> or "
                     "--demo\n");
        return 2;
    }
    scenario::ScenarioSpec spec;
    if (opt.demo) {
        spec = scenario::demoScenario();
    } else {
        std::string text;
        if (!readFile(opt.scn_path, text))
            return 1;
        std::string err;
        if (!scenario::parseScenario(text, spec, err)) {
            std::fprintf(stderr, "otsim: %s: %s\n",
                         opt.scn_path.c_str(), err.c_str());
            return 2;
        }
    }
    if (std::string bad = scenario::describeInvalid(spec);
        !bad.empty()) {
        std::fprintf(stderr, "otsim: %s\n", bad.c_str());
        return 2;
    }

    // The schedulers to run: the spec's own directive, a --scheduler
    // override, or a --compare list producing one report each.
    std::vector<scenario::SchedulerKind> policies;
    if (!opt.compare.empty()) {
        std::string cur;
        std::string list = opt.compare + ",";
        for (char c : list) {
            if (c != ',') {
                cur += c;
                continue;
            }
            scenario::SchedulerKind kind;
            if (!scenario::schedulerFromString(cur, kind)) {
                std::fprintf(stderr,
                             "otsim: --compare: unknown scheduler "
                             "'%s' (fifo|sjf|fair|edf)\n",
                             cur.c_str());
                return 2;
            }
            policies.push_back(kind);
            cur.clear();
        }
    } else if (!opt.scheduler_override.empty()) {
        scenario::SchedulerKind kind;
        if (!scenario::schedulerFromString(opt.scheduler_override,
                                           kind)) {
            std::fprintf(stderr,
                         "otsim: --scheduler: unknown scheduler "
                         "'%s' (fifo|sjf|fair|edf)\n",
                         opt.scheduler_override.c_str());
            return 2;
        }
        policies.push_back(kind);
    } else {
        policies.push_back(spec.scheduler);
    }

    scenario::ScenarioEngine engine;
    TraceSession ts(opt);
    ts.attach(engine);
    std::vector<scenario::ScenarioReport> reports;
    for (scenario::SchedulerKind kind : policies) {
        reports.push_back(engine.run(spec, kind));
        reports.back().writeText(std::cout);
    }
    if (!opt.json_out.empty()) {
        const std::string json = reports.size() == 1
                                     ? reports[0].toJson() + "\n"
                                     : scenario::compareJson(reports);
        if (!writeFile(opt.json_out, json))
            return 1;
        std::printf("wrote %s\n", opt.json_out.c_str());
    }
    if (int rc = ts.finish(engine.stats()))
        return rc;
    for (const scenario::ScenarioReport &rep : reports) {
        if (!rep.verified) {
            std::fprintf(stderr,
                         "otsim: SCENARIO VERIFICATION FAILED\n");
            return 1;
        }
    }
    return 0;
}

int
runLayout(const Options &opt)
{
    const std::size_t n = opt.inst.n;
    auto cost = defaultCostModel(n, opt.inst.model);
    if (opt.inst.net == "otn") {
        layout::OtnLayout l(n, cost.word().bits());
        auto m = l.metrics();
        std::printf("(%zu x %zu)-OTN: pitch %lu, side %lu, area %lu, "
                    "%lu processors, longest wire %lu\n",
                    l.n(), l.n(),
                    static_cast<unsigned long>(l.pitch()),
                    static_cast<unsigned long>(m.width),
                    static_cast<unsigned long>(m.area()),
                    static_cast<unsigned long>(m.processors),
                    static_cast<unsigned long>(m.longestWire));
        if (opt.art)
            std::printf("%s", l.asciiArt().c_str());
        if (!opt.svg_path.empty()) {
            if (!writeFile(opt.svg_path, layout::renderOtnSvg(l)))
                return 1;
            std::printf("wrote %s\n", opt.svg_path.c_str());
        }
    } else if (opt.inst.net == "otc") {
        unsigned cl = vlsi::logCeilAtLeast1(n);
        layout::OtcLayout l(vlsi::ceilDiv(n, cl), cl, cost.word().bits());
        auto m = l.metrics();
        std::printf("(%zu x %zu)-OTC, cycles of %u: area %lu, "
                    "%lu processors\n",
                    l.cyclesPerSide(), l.cyclesPerSide(), l.cycleLength(),
                    static_cast<unsigned long>(m.area()),
                    static_cast<unsigned long>(m.processors));
        if (opt.art)
            std::printf("%s", l.asciiArt().c_str());
        if (!opt.svg_path.empty()) {
            if (!writeFile(opt.svg_path, layout::renderOtcSvg(l)))
                return 1;
            std::printf("wrote %s\n", opt.svg_path.c_str());
        }
    } else {
        std::fprintf(stderr, "otsim: layout supports otn/otc\n");
        return 2;
    }
    return 0;
}

int
runTables(const Options &opt)
{
    double n = static_cast<double>(opt.inst.n);
    const vlsi::DelayModel model = opt.inst.model;
    for (auto problem :
         {analysis::Problem::Sorting, analysis::Problem::BoolMatMul,
          analysis::Problem::ConnectedComponents, analysis::Problem::Mst}) {
        std::printf("\n%s at N = %.0f (paper formulas, constants = 1):\n",
                    analysis::toString(problem).c_str(), n);
        analysis::TextTable t({"network", "area", "time", "AT^2"});
        for (auto net :
             {analysis::Network::Mesh, analysis::Network::Psn,
              analysis::Network::Ccc, analysis::Network::Otn,
              analysis::Network::Otc}) {
            auto a = analysis::paperFormula(net, problem, model, n);
            t.addRow({analysis::toString(net),
                      analysis::formatQuantity(a.area),
                      analysis::formatQuantity(a.time),
                      analysis::formatQuantity(a.at2())});
        }
        std::printf("%s", t.str().c_str());
    }
    return 0;
}

/**
 * `otsim topo --list`: the registered topologies, one line each.  The
 * names are exactly what `--net` and the `algo:net:n` instance tokens
 * accept.
 */
int
runTopo(const Options &opt)
{
    if (!opt.list) {
        std::fprintf(stderr, "otsim: topo needs --list\n");
        return 2;
    }
    std::size_t width = 0;
    for (const auto &[name, info] : topo::registry().table())
        width = std::max(width, name.size());
    for (const auto &[name, info] : topo::registry().table())
        std::printf("%-*s  %s\n", static_cast<int>(width), name.c_str(),
                    info.summary.c_str());
    return 0;
}

/**
 * The golden model-cost table: one tab-separated row per
 * algo x registered topology x N x {log, const} cell.  `ok` turns
 * false if any cell's output fails verification (each is reported).
 */
std::string
goldenTable(bool &ok)
{
    std::string table =
        "# Exact model cost of every algo x topology x N x delay model\n"
        "# (seed 1, fresh machine).  Regenerate with `otsim golden "
        "--write FILE`.\n"
        "algo\tnet\tn\tmodel\ttime\tsteps\tarea\n";
    ok = true;
    for (topo::Algo algo : topo::allAlgos()) {
        std::vector<std::size_t> sizes = {16, 64, 256};
        if (algo == topo::Algo::Sort)
            sizes.push_back(1024);
        for (const std::string &net : topo::registry().names()) {
            for (std::size_t n : sizes) {
                for (vlsi::DelayModel model :
                     {vlsi::DelayModel::Logarithmic,
                      vlsi::DelayModel::Constant}) {
                    workload::InstanceSpec inst;
                    inst.algo = algo;
                    inst.net = net;
                    inst.n = n;
                    inst.model = model;
                    auto machine = topo::registry().build(
                        workload::cacheKeyFor(inst));
                    workload::InstanceReport r;
                    workload::runInstance(inst, *machine, r);
                    if (!r.verified) {
                        std::fprintf(stderr, "otsim: %s: MISMATCH\n",
                                     workload::toToken(inst).c_str());
                        ok = false;
                    }
                    for (const std::string &cell :
                         {topo::toString(algo), net, std::to_string(n),
                          topo::shortName(model), std::to_string(r.time),
                          std::to_string(r.steps), std::to_string(r.area)}) {
                        table += cell;
                        table += '\t';
                    }
                    table.back() = '\n';
                }
            }
        }
    }
    return table;
}

/** Split `text` into lines (no terminators). */
std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

/**
 * `otsim golden`: write (--write) or check (--check) the golden
 * model-cost table.  A cell that fails verification, or a
 * checked row that differs (each is printed), exits 1.
 */
int
runGolden(const Options &opt)
{
    if (opt.golden_write.empty() == opt.golden_check.empty()) {
        std::fprintf(stderr, "otsim: golden needs --write FILE or "
                             "--check FILE\n");
        return 2;
    }
    bool ok = true;
    const std::string table = goldenTable(ok);
    if (!ok) {
        std::fprintf(stderr, "otsim: golden: a cell failed verification\n");
        return 1;
    }
    if (!opt.golden_write.empty()) {
        if (!writeFile(opt.golden_write, table))
            return 1;
        std::printf("wrote %s\n", opt.golden_write.c_str());
    } else {
        std::string text;
        if (!readFile(opt.golden_check, text))
            return 1;
        const auto want = splitLines(text);
        const auto got = splitLines(table);
        std::size_t diffs = 0;
        for (std::size_t i = 0; i < std::max(want.size(), got.size());
             ++i) {
            const std::string w = i < want.size() ? want[i] : "(none)";
            const std::string g = i < got.size() ? got[i] : "(none)";
            if (w != g) {
                std::printf("golden: want %s\n        got  %s\n",
                            w.c_str(), g.c_str());
                ++diffs;
            }
        }
        if (diffs) {
            std::printf("golden: %zu of %zu rows differ from %s\n", diffs,
                        want.size(), opt.golden_check.c_str());
            return 1;
        }
        std::printf("golden: %zu rows match %s\n", got.size(),
                    opt.golden_check.c_str());
    }
    return 0;
}

/**
 * `otsim simd`: which kernel backend this process dispatches to
 * (resolving the OT_SIMD override, so a bad value aborts here rather
 * than mid-benchmark), plus the per-backend build/CPU status.
 */
int
runSimd(const Options &)
{
    std::printf("active: %s\n", simd::toString(simd::activeBackend()));
    for (simd::Backend b :
         {simd::Backend::Scalar, simd::Backend::Avx2, simd::Backend::Neon})
        std::printf("%-8s compiled=%s available=%s\n", simd::toString(b),
                    simd::backendCompiled(b) ? "yes" : "no",
                    simd::backendAvailable(b) ? "yes" : "no");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parse(argc, argv);
    if (topo::Algo algo{}; topo::algoFromString(opt.command, algo))
        return runAlgo(opt, algo);
    if (opt.command == "batch")
        return runBatch(opt);
    if (opt.command == "scenario")
        return runScenario(opt);
    if (opt.command == "layout")
        return runLayout(opt);
    if (opt.command == "tables")
        return runTables(opt);
    if (opt.command == "topo")
        return runTopo(opt);
    if (opt.command == "golden")
        return runGolden(opt);
    if (opt.command == "simd")
        return runSimd(opt);
    usage(argv[0]);
}
