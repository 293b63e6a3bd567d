/**
 * @file
 * Host-speed sampling for the end-to-end benchmark.
 *
 * On a shared host the same rep can run tens of percent slower while other
 * tenants contend for the core, its caches and memory; CPU time does not
 * show it, because it is not preemption. While sampling is on, a timer
 * interrupts the benchmark's thread every 20 ms and the handler times a
 * fixed discrete-event kernel local to the benchmark: a heap of timestamped
 * events, indirect calls and scattered table updates, the simulator's kind
 * of work but none of its code. The mean rate of the samples taken during a
 * rep tells how fast the host ran that rep, and run_benchmark.py rescales
 * the rep's host times by it. Span clocks leave out the time spent in
 * samples (busyNs()).
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace maple::perfbench::host_speed {

/** Start sampling on the calling thread. */
void start();

/** Stop sampling. */
void stop();

/** Samples taken so far. */
std::size_t count();

/**
 * Mean rate, in kernel events per host second, of the samples taken since
 * count() returned @p from. Takes one sample first if none was taken.
 */
double meanRateSince(std::size_t from);

/** Host nanoseconds spent taking samples so far. */
std::uint64_t busyNs();

}  // namespace maple::perfbench::host_speed
