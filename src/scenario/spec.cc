#include "scenario/spec.hh"

#include <cassert>
#include <cctype>
#include <limits>

#include "vlsi/bitmath.hh"
#include "workload/json_cursor.hh"

namespace ot::scenario {

namespace {

using workload::JsonCursor;
using workload::parseUint;

bool
arrivalFromString(const std::string &s, ArrivalKind &out)
{
    if (s == "poisson")
        out = ArrivalKind::Poisson;
    else if (s == "bursty")
        out = ArrivalKind::Bursty;
    else if (s == "diurnal")
        out = ArrivalKind::Diurnal;
    else
        return false;
    return true;
}

bool
shedFromString(const std::string &s, ShedPolicy &out)
{
    if (s == "drop")
        out = ShedPolicy::Drop;
    else if (s == "defer")
        out = ShedPolicy::Defer;
    else
        return false;
    return true;
}

/** Names appear bare in reports and JSON, so keep them word-like. */
bool
validName(const std::string &s)
{
    if (s.empty())
        return false;
    for (char c : s) {
        bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
                  c == '_' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

/** Split a directive line on blanks (never empty tokens). */
std::vector<std::string>
splitWords(const std::string &line)
{
    std::vector<std::string> words;
    std::string cur;
    for (char c : line) {
        if (std::isspace(static_cast<unsigned char>(c))) {
            if (!cur.empty())
                words.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        words.push_back(cur);
    return words;
}

/** Split "key=value"; false when there is no '='. */
bool
splitKeyValue(const std::string &word, std::string &key,
              std::string &value)
{
    std::size_t eq = word.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    key = word.substr(0, eq);
    value = word.substr(eq + 1);
    return true;
}

/** Split a mix value on commas (empty entries preserved -> errors). */
std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> parts;
    std::string cur;
    for (char c : s) {
        if (c == ',') {
            parts.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    parts.push_back(cur);
    return parts;
}

/** Shared by the .scn and JSON readers for mix instance tokens. */
bool
parseMix(const std::vector<std::string> &tokens,
         std::vector<workload::InstanceSpec> &out, std::string &badTok,
         std::string &instErr)
{
    for (const std::string &tok : tokens) {
        workload::InstanceSpec inst;
        if (!workload::parseInstance(tok, inst, instErr)) {
            badTok = tok;
            return false;
        }
        out.push_back(inst);
    }
    return true;
}

/** out = v when v fits an unsigned field; false otherwise. */
bool
narrow(std::uint64_t v, unsigned &out)
{
    if (v > std::numeric_limits<unsigned>::max())
        return false;
    out = static_cast<unsigned>(v);
    return true;
}

/** The diagnostic for a value too large for its unsigned field. */
std::string
outOfRange(const std::string &key, std::uint64_t v)
{
    return key + "=" + std::to_string(v) + " is out of range (max " +
           std::to_string(std::numeric_limits<unsigned>::max()) + ")";
}

/** The JSON readers' counterpart of ScnParser::field(). */
bool
jsonField(JsonCursor &cur, const std::string &key, std::uint64_t v,
          unsigned &out)
{
    return narrow(v, out) || cur.fail(outOfRange(key, v));
}

/**
 * Line-parser state: the spec under construction plus which
 * directives have been seen (duplicates are errors — a .scn file is
 * a description, not a program).
 */
struct ScnParser
{
    ScenarioSpec spec;
    std::string err;
    std::size_t lineNo = 0;
    bool sawScenario = false;
    bool sawArrival = false;
    bool sawScheduler = false;
    bool sawQueue = false;

    bool
    fail(const std::string &what)
    {
        err = "line " + std::to_string(lineNo) + ": " + what;
        return false;
    }

    bool
    number(const std::string &key, const std::string &value,
           std::uint64_t &out)
    {
        if (!parseUint(value, out))
            return fail("bad integer in '" + key + "=" + value + "'");
        return true;
    }

    /** number() into an unsigned field; rejects what would narrow. */
    bool
    field(const std::string &key, const std::string &value,
          unsigned &out)
    {
        std::uint64_t v = 0;
        return number(key, value, v) &&
               (narrow(v, out) || fail(outOfRange(key, v)));
    }

    bool
    directiveScenario(const std::vector<std::string> &words)
    {
        if (sawScenario)
            return fail("duplicate scenario directive");
        sawScenario = true;
        if (words.size() != 2)
            return fail("scenario needs a name");
        if (!validName(words[1]))
            return fail("scenario name must be [A-Za-z0-9_-]+");
        spec.name = words[1];
        return true;
    }

    bool
    directiveArrival(const std::vector<std::string> &words)
    {
        if (sawArrival)
            return fail("duplicate arrival directive");
        sawArrival = true;
        if (words.size() < 2)
            return fail("arrival needs a process "
                        "(poisson|bursty|diurnal)");
        if (!arrivalFromString(words[1], spec.arrival.kind))
            return fail("unknown arrival process '" + words[1] +
                        "' (poisson|bursty|diurnal)");
        for (std::size_t i = 2; i < words.size(); ++i) {
            std::string key, value;
            if (!splitKeyValue(words[i], key, value))
                return fail("expected key=value, got '" + words[i] +
                            "'");
            if (key == "seeds") {
                if (value == "vary")
                    spec.arrival.varySeeds = true;
                else if (value == "fixed")
                    spec.arrival.varySeeds = false;
                else
                    return fail("seeds must be vary or fixed");
                continue;
            }
            std::uint64_t v = 0;
            if (!number(key, value, v))
                return false;
            if (key == "mean")
                spec.arrival.mean = v;
            else if (key == "duration")
                spec.arrival.duration = v;
            else if (key == "max")
                spec.arrival.maxArrivals =
                    static_cast<std::size_t>(v);
            else if (key == "seed")
                spec.arrival.seed = v;
            else if (key == "on")
                spec.arrival.onMean = v;
            else if (key == "off")
                spec.arrival.offMean = v;
            else if (key == "period")
                spec.arrival.period = v;
            else if (key == "amp") {
                if (v > 99)
                    return fail("amp must be an integer percent "
                                "in [0, 99]");
                spec.arrival.ampPct = static_cast<unsigned>(v);
            } else
                return fail("unknown arrival option '" + key +
                            "' (mean|duration|max|seed|on|off|"
                            "period|amp|seeds)");
        }
        return true;
    }

    bool
    directiveScheduler(const std::vector<std::string> &words)
    {
        if (sawScheduler)
            return fail("duplicate scheduler directive");
        sawScheduler = true;
        if (words.size() < 2)
            return fail("scheduler needs a policy "
                        "(fifo|sjf|fair|edf)");
        if (!schedulerFromString(words[1], spec.scheduler))
            return fail("unknown scheduler '" + words[1] +
                        "' (fifo|sjf|fair|edf)");
        for (std::size_t i = 2; i < words.size(); ++i) {
            std::string key, value;
            if (!splitKeyValue(words[i], key, value))
                return fail("expected key=value, got '" + words[i] +
                            "'");
            if (key == "workers") {
                if (!field(key, value, spec.workers))
                    return false;
            } else
                return fail("unknown scheduler option '" + key +
                            "' (workers)");
        }
        return true;
    }

    bool
    directiveQueue(const std::vector<std::string> &words)
    {
        if (sawQueue)
            return fail("duplicate queue directive");
        sawQueue = true;
        for (std::size_t i = 1; i < words.size(); ++i) {
            std::string key, value;
            if (!splitKeyValue(words[i], key, value))
                return fail("expected key=value, got '" + words[i] +
                            "'");
            if (key == "cap") {
                std::uint64_t v = 0;
                if (!number(key, value, v))
                    return false;
                spec.queueCap = static_cast<std::size_t>(v);
            } else if (key == "shed") {
                if (!shedFromString(value, spec.shed))
                    return fail("shed must be drop or defer");
            } else
                return fail("unknown queue option '" + key +
                            "' (cap|shed)");
        }
        return true;
    }

    bool
    directiveClient(const std::vector<std::string> &words)
    {
        if (words.size() < 2)
            return fail("client needs a name");
        ClientConfig client;
        if (!validName(words[1]))
            return fail("client name must be [A-Za-z0-9_-]+");
        client.name = words[1];
        for (const ClientConfig &other : spec.clients)
            if (other.name == client.name)
                return fail("duplicate client '" + client.name + "'");
        for (std::size_t i = 2; i < words.size(); ++i) {
            std::string key, value;
            if (!splitKeyValue(words[i], key, value))
                return fail("expected key=value, got '" + words[i] +
                            "'");
            if (key == "mix") {
                std::string badTok, instErr;
                if (!parseMix(splitCommas(value), client.mix, badTok,
                              instErr))
                    return fail("bad mix instance '" + badTok +
                                "': " + instErr);
                continue;
            }
            bool ok = true;
            if (key == "weight")
                ok = field(key, value, client.weight);
            else if (key == "quota")
                ok = field(key, value, client.quota);
            else if (key == "slo")
                ok = number(key, value, client.slo);
            else if (key == "slo_pct")
                ok = field(key, value, client.sloPct);
            else
                return fail("unknown client option '" + key +
                            "' (weight|quota|slo|slo_pct|mix)");
            if (!ok)
                return false;
        }
        spec.clients.push_back(client);
        return true;
    }

    bool
    line(const std::string &text)
    {
        std::string stripped = text.substr(0, text.find('#'));
        std::vector<std::string> words = splitWords(stripped);
        if (words.empty())
            return true;
        if (words[0] == "scenario")
            return directiveScenario(words);
        if (words[0] == "arrival")
            return directiveArrival(words);
        if (words[0] == "scheduler")
            return directiveScheduler(words);
        if (words[0] == "queue")
            return directiveQueue(words);
        if (words[0] == "client")
            return directiveClient(words);
        return fail("unknown directive '" + words[0] +
                    "' (scenario|arrival|scheduler|queue|client)");
    }
};

bool
parseArrivalObject(JsonCursor &cur, ArrivalConfig &out)
{
    if (!cur.consume('{'))
        return false;
    bool first = true;
    while (cur.peek() != '}') {
        if (!first && !cur.consume(','))
            return false;
        first = false;
        std::string key;
        if (!cur.parseString(key) || !cur.consume(':'))
            return false;
        if (key == "process") {
            std::string v;
            if (!cur.parseString(v))
                return false;
            if (!arrivalFromString(v, out.kind))
                return cur.fail("unknown arrival process '" + v +
                                "'");
        } else if (key == "seeds") {
            std::string v;
            if (!cur.parseString(v))
                return false;
            if (v == "vary")
                out.varySeeds = true;
            else if (v == "fixed")
                out.varySeeds = false;
            else
                return cur.fail("seeds must be vary or fixed");
        } else {
            std::uint64_t v = 0;
            if (!cur.parseNumber(v))
                return false;
            if (key == "mean")
                out.mean = v;
            else if (key == "duration")
                out.duration = v;
            else if (key == "max")
                out.maxArrivals = static_cast<std::size_t>(v);
            else if (key == "seed")
                out.seed = v;
            else if (key == "on")
                out.onMean = v;
            else if (key == "off")
                out.offMean = v;
            else if (key == "period")
                out.period = v;
            else if (key == "amp") {
                if (!jsonField(cur, key, v, out.ampPct))
                    return false;
            } else
                return cur.fail("unknown arrival key '" + key + "'");
        }
    }
    return cur.consume('}');
}

bool
parseClientObject(JsonCursor &cur, ClientConfig &out)
{
    if (!cur.consume('{'))
        return false;
    bool first = true;
    while (cur.peek() != '}') {
        if (!first && !cur.consume(','))
            return false;
        first = false;
        std::string key;
        if (!cur.parseString(key) || !cur.consume(':'))
            return false;
        if (key == "name") {
            if (!cur.parseString(out.name))
                return false;
        } else if (key == "mix") {
            if (!cur.consume('['))
                return false;
            std::vector<std::string> tokens;
            while (cur.peek() != ']') {
                if (!tokens.empty() && !cur.consume(','))
                    return false;
                std::string tok;
                if (!cur.parseString(tok))
                    return false;
                tokens.push_back(tok);
            }
            if (!cur.consume(']'))
                return false;
            std::string badTok, instErr;
            if (!parseMix(tokens, out.mix, badTok, instErr))
                return cur.fail("bad mix token '" + badTok +
                                "': " + instErr);
        } else {
            std::uint64_t v = 0;
            if (!cur.parseNumber(v))
                return false;
            bool ok = true;
            if (key == "weight")
                ok = jsonField(cur, key, v, out.weight);
            else if (key == "quota")
                ok = jsonField(cur, key, v, out.quota);
            else if (key == "slo")
                out.slo = v;
            else if (key == "slo_pct")
                ok = jsonField(cur, key, v, out.sloPct);
            else
                return cur.fail("unknown client key '" + key + "'");
            if (!ok)
                return false;
        }
    }
    return cur.consume('}');
}

} // namespace

std::string
toString(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Poisson:
        return "poisson";
      case ArrivalKind::Bursty:
        return "bursty";
      case ArrivalKind::Diurnal:
        return "diurnal";
    }
    return "?";
}

std::string
toString(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::Fifo:
        return "fifo";
      case SchedulerKind::Sjf:
        return "sjf";
      case SchedulerKind::FairShare:
        return "fair";
      case SchedulerKind::Edf:
        return "edf";
    }
    return "?";
}

std::string
toString(ShedPolicy shed)
{
    return shed == ShedPolicy::Drop ? "drop" : "defer";
}

bool
schedulerFromString(const std::string &s, SchedulerKind &out)
{
    if (s == "fifo")
        out = SchedulerKind::Fifo;
    else if (s == "sjf")
        out = SchedulerKind::Sjf;
    else if (s == "fair")
        out = SchedulerKind::FairShare;
    else if (s == "edf")
        out = SchedulerKind::Edf;
    else
        return false;
    return true;
}

void
validate(const ScenarioSpec &spec)
{
    assert(describeInvalid(spec).empty() && "scenario: invalid spec");
    (void)spec;
}

std::string
describeInvalid(const ScenarioSpec &spec)
{
    if (spec.name.empty())
        return "scenario: missing name";
    const ArrivalConfig &a = spec.arrival;
    if (a.mean < 1)
        return "arrival: mean must be >= 1";
    if (a.duration < 1)
        return "arrival: duration must be >= 1";
    if (a.maxArrivals == 0 && a.duration / a.mean > kMaxArrivals)
        return "arrival: duration/mean implies more than 1M "
               "arrivals; set max=";
    if (a.maxArrivals > kMaxArrivals)
        return "arrival: max must be <= " + std::to_string(kMaxArrivals);
    if (a.kind == ArrivalKind::Bursty && (a.onMean < 1 || a.offMean < 1))
        return "bursty arrival: on and off dwell means must be >= 1";
    if (a.kind == ArrivalKind::Diurnal && a.period < 1)
        return "diurnal arrival: period must be >= 1";
    if (a.ampPct > 99)
        return "arrival: amp must be an integer percent in [0, 99]";
    if (spec.workers < 1)
        return "scheduler: workers must be >= 1";
    if (spec.workers > kMaxWorkers)
        return "scheduler: workers must be <= " +
               std::to_string(kMaxWorkers);
    if (spec.clients.empty())
        return "scenario: no clients";
    for (const ClientConfig &c : spec.clients) {
        if (c.weight < 1)
            return "client '" + c.name + "': weight must be >= 1";
        if (c.sloPct != 50 && c.sloPct != 95 && c.sloPct != 99)
            return "client '" + c.name +
                   "': slo_pct must be 50, 95 or 99";
        if (c.mix.empty())
            return "client '" + c.name + "': empty mix";
        for (std::size_t i = 0; i < c.mix.size(); ++i) {
            const workload::InstanceSpec &inst = c.mix[i];
            if (inst.n < 2 || inst.n > (std::size_t{1} << 14))
                return "client '" + c.name + "': mix instance " +
                       std::to_string(i) +
                       ": size out of range [2, 16384]";
            if (!vlsi::isPow2(inst.n))
                return "client '" + c.name + "': mix instance " +
                       std::to_string(i) + ": size " +
                       std::to_string(inst.n) +
                       " is not a power of two";
        }
    }
    return "";
}

bool
parseScenario(const std::string &text, ScenarioSpec &out,
              std::string &err)
{
    ScnParser parser;
    std::string line;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        line = text.substr(start, end - start);
        ++parser.lineNo;
        if (!parser.line(line)) {
            err = parser.err;
            return false;
        }
        start = end + 1;
    }
    out = std::move(parser.spec);
    return true;
}

bool
parseScenarioJson(const std::string &text, ScenarioSpec &out,
                  std::string &err)
{
    JsonCursor cur{text, 0, ""};
    ScenarioSpec spec;

    bool ok = [&] {
        if (!cur.consume('{'))
            return false;
        bool first = true;
        while (cur.peek() != '}') {
            if (!first && !cur.consume(','))
                return false;
            first = false;
            std::string key;
            if (!cur.parseString(key) || !cur.consume(':'))
                return false;
            if (key == "scenario") {
                if (!cur.parseString(spec.name))
                    return false;
            } else if (key == "arrival") {
                if (!parseArrivalObject(cur, spec.arrival))
                    return false;
            } else if (key == "scheduler") {
                std::string v;
                if (!cur.parseString(v))
                    return false;
                if (!schedulerFromString(v, spec.scheduler))
                    return cur.fail("unknown scheduler '" + v + "'");
            } else if (key == "workers") {
                std::uint64_t v = 0;
                if (!cur.parseNumber(v) ||
                    !jsonField(cur, key, v, spec.workers))
                    return false;
            } else if (key == "queue_cap") {
                std::uint64_t v = 0;
                if (!cur.parseNumber(v))
                    return false;
                spec.queueCap = static_cast<std::size_t>(v);
            } else if (key == "shed") {
                std::string v;
                if (!cur.parseString(v))
                    return false;
                if (!shedFromString(v, spec.shed))
                    return cur.fail("unknown shed policy '" + v +
                                    "'");
            } else if (key == "clients") {
                if (!cur.consume('['))
                    return false;
                while (cur.peek() != ']') {
                    if (!spec.clients.empty() && !cur.consume(','))
                        return false;
                    ClientConfig client;
                    if (!parseClientObject(cur, client))
                        return false;
                    spec.clients.push_back(client);
                }
                if (!cur.consume(']'))
                    return false;
            } else {
                return cur.fail("unknown scenario key '" + key +
                                "'");
            }
        }
        if (!cur.consume('}'))
            return false;
        cur.skipWs();
        if (cur.pos != text.size())
            return cur.fail("trailing garbage");
        return true;
    }();

    if (!ok) {
        err = cur.err.empty() ? "malformed scenario JSON" : cur.err;
        return false;
    }
    out = std::move(spec);
    return true;
}

std::string
toJson(const ScenarioSpec &spec)
{
    const ArrivalConfig &a = spec.arrival;
    std::string out = "{\"scenario\": \"" + spec.name + "\",\n";
    out += " \"arrival\": {\"process\": \"" + toString(a.kind) + "\"";
    out += ", \"mean\": " + std::to_string(a.mean);
    out += ", \"duration\": " + std::to_string(a.duration);
    out += ", \"max\": " + std::to_string(a.maxArrivals);
    out += ", \"seed\": " + std::to_string(a.seed);
    out += ", \"on\": " + std::to_string(a.onMean);
    out += ", \"off\": " + std::to_string(a.offMean);
    out += ", \"period\": " + std::to_string(a.period);
    out += ", \"amp\": " + std::to_string(a.ampPct);
    out += std::string(", \"seeds\": \"") +
           (a.varySeeds ? "vary" : "fixed") + "\"},\n";
    out += " \"scheduler\": \"" + toString(spec.scheduler) + "\"";
    out += ", \"workers\": " + std::to_string(spec.workers);
    out += ", \"queue_cap\": " + std::to_string(spec.queueCap);
    out += ", \"shed\": \"" + toString(spec.shed) + "\",\n";
    out += " \"clients\": [";
    for (std::size_t i = 0; i < spec.clients.size(); ++i) {
        const ClientConfig &c = spec.clients[i];
        if (i)
            out += ",";
        out += "\n  {\"name\": \"" + c.name + "\"";
        out += ", \"weight\": " + std::to_string(c.weight);
        out += ", \"quota\": " + std::to_string(c.quota);
        out += ", \"slo\": " + std::to_string(c.slo);
        out += ", \"slo_pct\": " + std::to_string(c.sloPct);
        out += ", \"mix\": [";
        for (std::size_t j = 0; j < c.mix.size(); ++j) {
            if (j)
                out += ", ";
            // Appends only: GCC 12's -Wrestrict misfires on
            // `"\"" + std::string` at -O3.
            out += '"';
            out += workload::toToken(c.mix[j]);
            out += '"';
        }
        out += "]}";
    }
    out += "\n]}\n";
    return out;
}

ScenarioSpec
demoScenario()
{
    // Two traffic classes over mixed sort/matmul shapes: enough load
    // on two workers that the queue forms (so the policies differ)
    // but bounded, so tests and benches stay fast.
    ScenarioSpec spec;
    spec.name = "smoke";
    spec.arrival.kind = ArrivalKind::Poisson;
    spec.arrival.mean = 130;
    spec.arrival.duration = 60000;
    spec.arrival.maxArrivals = 64;
    spec.arrival.seed = 42;
    spec.scheduler = SchedulerKind::Fifo;
    spec.workers = 2;
    spec.queueCap = 16;
    spec.shed = ShedPolicy::Drop;

    ClientConfig fast;
    fast.name = "interactive";
    fast.weight = 3;
    fast.slo = 2500;
    fast.sloPct = 95;
    fast.mix.push_back({workload::Algo::Sort, "otn", 16,
                        vlsi::DelayModel::Logarithmic, false, 1});
    fast.mix.push_back({workload::Algo::Sort, "otn", 32,
                        vlsi::DelayModel::Logarithmic, false, 1});
    spec.clients.push_back(fast);

    ClientConfig bulk;
    bulk.name = "batch";
    bulk.weight = 1;
    bulk.quota = 8;
    bulk.mix.push_back({workload::Algo::Sort, "otn", 64,
                        vlsi::DelayModel::Logarithmic, false, 1});
    bulk.mix.push_back({workload::Algo::MatMul, "otn", 16,
                        vlsi::DelayModel::Logarithmic, false, 1});
    spec.clients.push_back(bulk);
    return spec;
}

} // namespace ot::scenario
