#include "fault/watchdog.hpp"

#include <cstdio>
#include <sstream>

#include "fault/fault.hpp"
#include "sim/log.hpp"

namespace maple::fault {

bool
Watchdog::run(sim::Cycle max_cycles)
{
    if (!cfg_.enabled)
        return eq_.run(max_cycles);
    for (;;) {
        sim::Cycle bound = max_cycles;
        if (cfg_.check_interval < max_cycles - eq_.now())
            bound = eq_.now() + cfg_.check_interval;
        if (eq_.run(bound))
            return true;
        if (eq_.now() >= max_cycles)
            return false;
        checkStall(eq_, cfg_);
    }
}

void
Watchdog::checkStall(const sim::EventQueue &eq, const WatchdogConfig &cfg)
{
    const FaultInjector *fi = eq.faultInjector();
    // Masked owners (a device deliberately quiesced for recovery, or a
    // queue degraded to the software path) are intentional stalls, not
    // livelocks: only unmasked waiters count toward the stall bound.
    if (!fi || fi->unmaskedParkedWaiters() == 0)
        return;
    sim::Cycle oldest = fi->oldestUnmaskedParkCycle();
    if (oldest != sim::kCycleMax && eq.now() - oldest >= cfg.stall_bound) {
        failDeadlock(eq, sim::detail::formatString(
            "liveness watchdog: a waiter has been parked for %llu cycles "
            "(stall bound %llu) at cycle %llu",
            (unsigned long long)(eq.now() - oldest),
            (unsigned long long)cfg.stall_bound,
            (unsigned long long)eq.now()));
    }
}

std::string
Watchdog::diagnose(const sim::EventQueue &eq)
{
    std::ostringstream os;
    if (const FaultInjector *fi = eq.faultInjector())
        os << fi->livenessReport();
    else
        os << "(no fault injector attached: parked-waiter detail unavailable)\n";
    os << "event queue: " << eq.pending() << " pending, " << eq.executed()
       << " executed, now=" << eq.now();
    return os.str();
}

void
Watchdog::failDeadlock(const sim::EventQueue &eq, const std::string &summary)
{
    std::string report = diagnose(eq);
    std::fprintf(stderr, "deadlock: %s\n%s\n", summary.c_str(), report.c_str());
    std::fflush(stderr);
    throw sim::DeadlockError(summary, std::move(report));
}

}  // namespace maple::fault
