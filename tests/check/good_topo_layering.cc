// otcheck:fixture-path src/topo/fixture_good_layering.cc
//
// Known-good layering fixture for the topology plugin layer: src/topo
// sits between the machine families and the workload engine, so it
// may include the orthogonal-tree simulators, its own plugins (the
// comparison networks live here) and every layer below them.  Must
// check clean.
#include "topo/machine.hh"

#include <cstdint>

#include "graph/graph.hh"
#include "layout/geometry.hh"
#include "linalg/matrix.hh"
#include "otc/network.hh"
#include "otn/network.hh"
#include "sim/time_accountant.hh"
#include "topo/mesh.hh"
#include "trace/tracer.hh"
#include "vlsi/delay.hh"

int
fixtureUnused()
{
    return 0;
}
