/**
 * @file
 * The topology registry: name -> machine factory.
 *
 * Every topo::Machine family registers once, under a unique name; the
 * workload engine's NetworkCache, the `algo:net:n` spec tokens, the
 * scenario mixes and the conformance suites all resolve topologies
 * through this table, so a new network plugs into all of them by
 * registering here and nowhere else.  Registration of a duplicate
 * name aborts (two factories behind one cache key would be a silent
 * correctness bug); building an unknown name asserts — CLI front ends
 * validate names with isNetName() first and report the known set.
 *
 * resolveSpec() is the one place the user-facing net names ("otc" is
 * a *family*: SORT-OTC runs natively, everything else on the emulated
 * OTN, Section V-A/VI-B) map to concrete machines, cycle lengths and
 * word formats — the same resolution the pre-plugin engine hardwired,
 * so cache keys and model times are unchanged for the otn/otc
 * workloads.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "topo/machine.hh"
#include "vlsi/delay.hh"
#include "vlsi/word.hh"

namespace ot::topo {

/** One registered topology. */
struct TopoInfo
{
    /** Registry key and spec-token spelling ("fattree", "mot", ...). */
    std::string name;
    /** One-line description for `otsim topo --list`. */
    std::string summary;
    /** Build a machine for a spec (spec.topo must equal name). */
    std::unique_ptr<Machine> (*build)(const MachineSpec &spec);
};

/** The name -> factory table (iteration is name-ordered). */
class Registry
{
  public:
    /** Register a topology; a duplicate name aborts. */
    void add(TopoInfo info);

    /** Look up a name; nullptr when unknown. */
    const TopoInfo *find(const std::string &name) const;

    /** Registered names, sorted. */
    std::vector<std::string> names() const;

    /** All registrations, name-ordered. */
    const std::map<std::string, TopoInfo> &table() const { return _topos; }

    /** Build the machine for spec.topo (unknown names assert). */
    std::unique_ptr<Machine> build(const MachineSpec &spec) const;

  private:
    std::map<std::string, TopoInfo> _topos;
};

/** The process-wide registry, with the built-in topologies loaded. */
Registry &registry();

/** Is `name` a known topology (usable as a spec's net field)? */
bool isNetName(const std::string &name);

/** The known names joined with '|' (for diagnostics). */
std::string netNamesSummary();

/** The word format an algorithm's machine is built with at size n. */
vlsi::WordFormat wordFormatFor(Algo algo, std::size_t n);

/**
 * Resolve a user-facing (net, algo, n, model, scaled) instance to the
 * concrete machine spec the cache builds: the "otc" family splits
 * into the native streaming machine (sort) and the emulated OTN with
 * the algorithm's cycle length (everything else); all other names map
 * to themselves.  `net` must satisfy isNetName().
 */
MachineSpec resolveSpec(const std::string &net, Algo algo, std::size_t n,
                        vlsi::DelayModel model, bool scaled);

/**
 * resolveSpec() under the caller's own cost model: its delay model,
 * word format and tree scaling replace wordFormatFor().  The bench
 * drivers, tests and examples size their machines this way.
 */
MachineSpec resolveSpec(const std::string &net, Algo algo, std::size_t n,
                        const vlsi::CostModel &cost);

/** registry().build(resolveSpec(net, algo, n, cost)). */
std::unique_ptr<Machine> buildMachine(const std::string &net, Algo algo,
                                      std::size_t n,
                                      const vlsi::CostModel &cost);

} // namespace ot::topo
