#include "workloads.hh"

#include <fstream>
#include <sstream>

#include "sim/rng.hh"

namespace hostbench {

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"sort_large",
         Kind::Batch,
         1,
         {{"sort", "otn", 512, 16},
          {"sort", "otn", 1024, 32},
          {"sort", "otc", 512, 16},
          {"sort", "otc", 1024, 32}}},
        {"graph_mix",
         Kind::Batch,
         2,
         {{"cc", "otn", 128, 16},
          {"cc", "otc", 128, 16},
          {"mst", "otn", 64, 16},
          {"mst", "otc", 64, 16},
          {"sssp", "otn", 128, 16},
          {"matmul", "otn", 64, 8},
          {"boolmm", "otc", 64, 8},
          {"matmul", "mesh", 64, 8},
          {"matmul", "hex", 64, 8},
          {"cc", "mesh", 32, 16}}},
        {"scenario_replay", Kind::Scenario, 1, {}},
    };
    return all;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

std::uint64_t
callSeed(std::uint64_t seed, std::size_t call)
{
    ot::sim::Rng rng(seed * 0x100000001b3ULL + call % kCallPeriod);
    // 31 bits: a plain integer in every spec grammar.
    return rng.next() >> 33;
}

std::string
batchSpecJson(const Workload &w, bool tiny, std::uint64_t seed,
              std::size_t call)
{
    ot::sim::Rng rng(callSeed(seed, call));
    std::ostringstream os;
    os << "{\"instances\": [";
    for (std::size_t i = 0; i < w.mix.size(); ++i) {
        const Shape &s = w.mix[i];
        os << (i ? ",\n " : "\n ") << "{\"algo\": \"" << s.algo
           << "\", \"net\": \"" << s.net
           << "\", \"n\": " << (tiny ? s.tinyN : s.n)
           << ", \"model\": \"log\", \"seed\": " << (rng.next() >> 33)
           << "}";
    }
    os << "\n]}\n";
    return os.str();
}

namespace {

void
replaceAll(std::string &text, const std::string &from,
           const std::string &to)
{
    for (std::size_t at = text.find(from); at != std::string::npos;
         at = text.find(from, at + to.size()))
        text.replace(at, from.size(), to);
}

} // namespace

std::string
scenarioText(const std::string &tmpl, bool tiny, std::uint64_t seed,
             std::size_t call)
{
    std::string text = tmpl;
    replaceAll(text, "@SEED@", std::to_string(callSeed(seed, call)));
    replaceAll(text, "@MAX@", tiny ? "200" : "3000");
    return text;
}

bool
readGolden(const std::string &path, Golden &out, std::string &err)
{
    std::ifstream f(path);
    if (!f) {
        err = "cannot read " + path;
        return false;
    }
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(f, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream is(line);
        std::string name;
        std::size_t call = 0;
        Totals t;
        is >> name >> call >> t.time >> t.steps >> t.area >> t.p95[0] >>
            t.p95[1] >> t.p95[2] >> t.p95[3];
        if (!is) {
            err = path + ":" + std::to_string(lineNo) + ": malformed row";
            return false;
        }
        out[name][call] = t;
    }
    return true;
}

bool
writeGolden(const std::string &path, const Golden &golden)
{
    std::ofstream f(path);
    f << "# Model totals per call at seed " << kDefaultSeed
      << " (hostbench --write-golden).\n"
      << "# workload call time_sum steps_sum area_sum "
         "p95_fifo p95_sjf p95_fair p95_edf\n";
    for (const auto &[name, calls] : golden)
        for (const auto &[call, t] : calls)
            f << name << '\t' << call << '\t' << t.time << '\t' << t.steps
              << '\t' << t.area << '\t' << t.p95[0] << '\t' << t.p95[1]
              << '\t' << t.p95[2] << '\t' << t.p95[3] << '\n';
    return static_cast<bool>(f);
}

} // namespace hostbench
