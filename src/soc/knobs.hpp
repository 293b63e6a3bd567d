/**
 * @file
 * The MAPLE_* knobs, declared once. Every environment setting a Soc or a
 * SocGrid honours is one row of a static table: its variable, value syntax,
 * default, one line of help, and the setter that parses a value into the
 * config. Everything else is derived from the table:
 *
 *  - resolveConfig() overlays the environment onto a SocConfig and
 *    finishes its geometry. Soc::Soc and ckpt::configHash both call it,
 *    so a config hashes the same before and after construction;
 *  - the harness flags (harness::applyKnobFlags): MAPLE_FAULT_COH_DROP is
 *    --fault-coh-drop, and --list-knobs prints the table.
 *
 * A malformed value throws sim::ConfigError naming its variable; an empty
 * value counts as unset. The environment is read on every call, never
 * cached, so a harness may set and unset knobs between constructions.
 */
#pragma once

#include <span>
#include <string>

namespace maple::soc {

struct SocConfig;

/** What a knob row writes: one chip's config, or SocGrid's thread count. */
struct KnobTarget {
    SocConfig &soc;
    unsigned &host_threads;  ///< SocGridConfig::host_threads
};

struct Knob {
    const char *env;     ///< e.g. "MAPLE_FAULT_NOC"
    const char *syntax;  ///< value syntax, e.g. "<prob[:cycles]>"
    const char *def;     ///< default, as --list-knobs shows it
    const char *help;    ///< one line for --list-knobs
    /** Parse @p value into @p t; throws sim::ConfigError naming @p env. */
    void (*set)(KnobTarget &t, const char *env, const char *value);
};

/** The table: one row per MAPLE_* variable. */
std::span<const Knob> knobs();

/** The harness flag of @p k: MAPLE_FAULT_COH_DROP -> --fault-coh-drop. */
std::string knobFlag(const Knob &k);

/**
 * Overlay every set MAPLE_* variable onto @p cfg, force llc_slices to 1
 * without a coherence protocol, and size a 0x0 mesh to fit the cores,
 * MAPLEs and LLC slices. Idempotent. MAPLE_THREADS is validated here but
 * only a SocGrid applies it.
 * @throws sim::ConfigError on a malformed value.
 */
void resolveConfig(SocConfig &cfg);

/** @p fallback overlaid with MAPLE_THREADS (validating every knob). */
unsigned resolveHostThreads(unsigned fallback);

}  // namespace maple::soc
