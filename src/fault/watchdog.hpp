/**
 * @file
 * Liveness watchdog: runs the event queue with deadlock detection instead
 * of hanging or silently quiescing with parked coroutines.
 *
 * The watchdog never schedules events. It drives EventQueue::run() in
 * bounded chunks — run(t1), run(t2), ... — which executes exactly the same
 * events at exactly the same cycles as one run(max) call (an early stop
 * only advances now() to the bound), so a guarded run is bit-identical to
 * an unguarded one. At each chunk boundary it consults the FaultInjector's
 * park registry (fault/fault.hpp):
 *
 *  - Stall bound: if the oldest parked waiter has been parked longer than
 *    `stall_bound` cycles, the run is declared dead even though events may
 *    still be churning (e.g. a polling loop), and a sim::DeadlockError
 *    carrying the structured diagnostic is thrown. Detection latency is
 *    bounded by stall_bound + check_interval.
 *
 *  - Drain with parked waiters: when the queue quiesces while coroutines
 *    are still parked on futures/queues, nothing can ever wake them — the
 *    discrete-event definition of deadlock. Callers (soc::Soc::run) use
 *    failDeadlock() to turn this into the same typed error at drain time,
 *    i.e. within zero idle cycles.
 */
#pragma once

#include <string>

#include "sim/error.hpp"
#include "sim/event_queue.hpp"
#include "sim/types.hpp"

namespace maple::fault {

struct WatchdogConfig {
    bool enabled = true;
    sim::Cycle check_interval = 1u << 16;   ///< chunk length between checks
    sim::Cycle stall_bound = 10'000'000;    ///< oldest-park age => deadlock
};

class Watchdog {
  public:
    explicit Watchdog(sim::EventQueue &eq, WatchdogConfig cfg = {})
        : eq_(eq), cfg_(cfg)
    {
    }

    /**
     * Run the queue until it drains or @p max_cycles, checking liveness at
     * every chunk boundary. Event order and timing are identical to a bare
     * eq.run(max_cycles). @return true when the queue drained.
     * @throws sim::DeadlockError when a waiter starves past the stall bound.
     */
    bool run(sim::Cycle max_cycles = sim::kCycleMax);

    /**
     * The full liveness diagnostic for @p eq: parked waiters, registered
     * component state, injected-fault summary, stall attribution, plus
     * event-queue statistics. Usable without a FaultInjector (degrades to
     * the queue statistics).
     */
    static std::string diagnose(const sim::EventQueue &eq);

    /** Throw sim::DeadlockError with @p summary and the full diagnostic. */
    [[noreturn]] static void failDeadlock(const sim::EventQueue &eq,
                                          const std::string &summary);

    /**
     * The chunk-boundary stall check on its own: throws sim::DeadlockError
     * when @p eq's oldest unmasked parked waiter is older than
     * @p cfg.stall_bound. Shared between run() and the sharded engine's
     * quantum-boundary hook (soc::SocGrid), so both paths declare livelock
     * by the same rule.
     */
    static void checkStall(const sim::EventQueue &eq,
                           const WatchdogConfig &cfg);

  private:
    sim::EventQueue &eq_;
    WatchdogConfig cfg_;
};

}  // namespace maple::fault
