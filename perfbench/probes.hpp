/**
 * @file
 * Layer probes: each one times a single layer's public entry point in
 * isolation, on a private EventQueue (or a minimal Soc), and reports host
 * nanoseconds per unit of that layer's work. Multiplying a probe by the
 * layer's count from a workload gives the `<layer>.busy_s_est` estimates;
 * they stay estimates until the simulator attributes host time itself.
 */
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace maple::perfbench {

/** (metric name, host ns per unit) for every probe, each the median of
 *  three runs. @p smoke shrinks every probe about tenfold. */
std::vector<std::pair<std::string, double>> runProbes(bool smoke);

}  // namespace maple::perfbench
