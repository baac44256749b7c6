// Must not compile: TimeAccountant::beginPhase/endPhase are private
// to ScopedPhase, so no caller can open a phase it might not close.
#include "sim/time_accountant.hh"

void
chargeLoad(ot::sim::TimeAccountant &acct)
{
    acct.beginPhase("load");
    acct.advance(1);
    acct.endPhase();
}
