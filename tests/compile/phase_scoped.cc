// Must compile: the one sanctioned way to open a phase, nested and
// sequential, built by the same command as the must-fail fixtures.
#include "sim/time_accountant.hh"

ot::sim::ModelTime
chargePhases(ot::sim::TimeAccountant &acct)
{
    {
        ot::sim::ScopedPhase load(acct, "load");
        acct.advance(1);
        {
            ot::sim::ScopedPhase inner(acct, "inner");
            acct.advance(2);
        }
    }
    ot::sim::ScopedPhase compute(acct, "compute");
    acct.advance(3);
    return acct.phaseTimes().at("load");
}
