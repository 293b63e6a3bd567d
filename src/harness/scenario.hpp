/**
 * @file
 * Self-contained campaign scenarios: parameterized simulations split into a
 * *warm* phase (dataset allocation + cache/TLB warming) and a *measure*
 * phase (the timed kernel), with the boundary between them a quiesced
 * snapshot point.
 *
 * The split is what makes warm-image fan-out work: a campaign warms one SoC
 * per structural configuration, snapshots it, and every variant job restores
 * the image and runs only measure(). To keep that sound:
 *
 *  - warm() takes only parameters that are part of the warm key (dataset
 *    shape, seed, SoC structure). Measure-only knobs (technique,
 *    queue_entries) must not influence warm() -- MAPLE queue INIT happens in
 *    measure() precisely so queue depth stays a variant axis.
 *  - measure() never relies on host-side state from warm(): dataset
 *    addresses are recovered from the restored process via tagged regions
 *    (os::Process::regionBase), and the golden result is recomputed from the
 *    seed.
 */
#pragma once

#include <cstdint>
#include <string>

#include "harness/json.hpp"
#include "soc/soc.hpp"
#include "workloads/workload.hpp"

namespace maple::harness {

/** Parsed scenario job description. */
struct ScenarioSpec {
    std::string scenario = "spmv";  ///< only "spmv" is implemented
    /// @name Warm-key parameters (shape the dataset and the warm image)
    /// @{
    std::uint32_t rows = 256;
    std::uint32_t nnz_per_row = 8;
    std::uint32_t cols = 4096;      ///< x-vector length (gather target)
    std::uint64_t seed = 1;
    std::uint32_t warm_rows = 64;   ///< rows touched by the warm pass
    std::string soc_preset = "fpga";  ///< "fpga" or "simulated"
    unsigned num_cores = 2;
    std::string coherence = "none";   ///< "none" or "msi" (structural)
    unsigned llc_slices = 1;          ///< LLC/directory slices (msi only)
    /** "off" or "secded". Part of the warm key: ECC correction bubbles
     *  shape the warm image's timing, so an ECC warm image is its own. */
    std::string ecc = "off";
    /// @}
    /// @name Measure-only parameters (variant axes over one warm image)
    /// @{
    std::string technique = "doall";  ///< "doall" or "maple"
    unsigned queue_entries = 32;
    /// @}
};

/** Result of a measure() phase. */
struct ScenarioResult {
    app::RunResult result;   ///< cycles = measure-phase cycles
    sim::Cycle end_cycle = 0;  ///< soc clock at end of measure
};

/**
 * Parse a scenario job object; unknown scenarios and malformed fields throw
 * json::JsonError. Missing fields take the defaults above.
 */
ScenarioSpec parseScenarioSpec(const json::Value &job);

/** The spec's canonical JSON (fixed key order) -- hashed for the cache. */
json::Value scenarioSpecJson(const ScenarioSpec &s);

/**
 * Canonical JSON of the warm-key parameters only. Jobs with equal warm keys
 * share one warm image.
 */
json::Value scenarioWarmKey(const ScenarioSpec &s);

/** SoC configuration for this scenario (structural fields only). */
soc::SocConfig scenarioSocConfig(const ScenarioSpec &s);

/**
 * Phase 1 on a freshly-constructed SoC: create the "campaign" process,
 * allocate and fill the tagged dataset, run the warm pass. Returns with the
 * SoC quiesced (snapshot-safe).
 */
void warmScenario(soc::Soc &soc, const ScenarioSpec &s);

/**
 * Phase 2 on a warmed *or restored* SoC: run the measured kernel and
 * validate against the host-computed golden result.
 */
ScenarioResult measureScenario(soc::Soc &soc, const ScenarioSpec &s);

/// @name Spawn-phase API (multi-SoC driving)
/// A soc::SocGrid caller spawns each phase on every chip, then drives all
/// chips through one grid run. warmScenario/measureScenario are these same
/// pieces glued to a single Soc::run, so behavior is identical either way.
/// @{

/** Allocate + upload the dataset, spawn the warm workers; does not run. */
std::vector<sim::Join> spawnScenarioWarm(soc::Soc &soc, const ScenarioSpec &s);

/** Spawn the doall measure workers on a warmed/restored SoC; does not run. */
std::vector<sim::Join> spawnScenarioDoall(soc::Soc &soc, const ScenarioSpec &s);

/** Validate y against the recomputed golden and collect stats; @p start is
 *  the SoC clock at measure begin. */
ScenarioResult collectScenarioResult(soc::Soc &soc, const ScenarioSpec &s,
                                     sim::Cycle start);

/// @}

/** Convenience: ScenarioResult as a JSON document (for result files). */
json::Value scenarioResultJson(const ScenarioResult &r);

}  // namespace maple::harness
