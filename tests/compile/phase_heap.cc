// Must not compile: a ScopedPhase on the heap could outlive its scope
// or leak, leaving its phase open, so operator new is deleted.
#include "sim/time_accountant.hh"

ot::sim::ScopedPhase *
leakPhase(ot::sim::TimeAccountant &acct)
{
    return new ot::sim::ScopedPhase(acct, "leaked");
}
