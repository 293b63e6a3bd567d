#include "soc/knobs.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string_view>

#include "sim/error.hpp"
#include "soc/soc.hpp"

namespace maple::soc {

namespace {

// One parser per value syntax. Each accepts exactly its syntax (no sign,
// blank, base prefix or trailing text) and throws naming the variable.

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
constexpr unsigned kMaxU = std::numeric_limits<unsigned>::max();

/** Decimal integer in [lo, hi]. */
std::uint64_t
number(const char *env, const char *v, std::uint64_t lo, std::uint64_t hi)
{
    const char *end = v + std::strlen(v);
    std::uint64_t n = 0;
    auto [p, ec] = std::from_chars(v, end, n);
    if (ec != std::errc{} || p != end || n < lo || n > hi)
        MAPLE_THROW(sim::ConfigError,
                    "%s: expected an integer in [%llu, %llu], got \"%s\"", env,
                    (unsigned long long)lo, (unsigned long long)hi, v);
    return n;
}

/** Bounded unsigned: a count, width or budget. */
unsigned
count(const char *env, const char *v, unsigned lo, unsigned hi = kMaxU)
{
    return static_cast<unsigned>(number(env, v, lo, hi));
}

/** A cycle count of at least @p lo. */
sim::Cycle
cycles(const char *env, const char *v, sim::Cycle lo)
{
    return number(env, v, lo, kMax);
}

/** "<prob>[:<n>]": prob in [0, 1]; n >= 1 bounds the drawn magnitude. */
fault::FaultRate
rate(const char *env, const char *v, sim::Cycle default_extra)
{
    const char *end = v + std::strlen(v);
    const char *colon = std::find(v, end, ':');
    fault::FaultRate r{0.0, default_extra};
    auto [p, ec] = std::from_chars(v, colon, r.prob);
    bool ok = ec == std::errc{} && p == colon && r.prob >= 0.0 &&
              r.prob <= 1.0;
    if (ok && colon != end) {
        auto [q, ec2] = std::from_chars(colon + 1, end, r.max_extra);
        ok = ec2 == std::errc{} && q == end && r.max_extra >= 1;
    }
    if (!ok)
        MAPLE_THROW(sim::ConfigError,
                    "%s: expected <prob>[:<n>] with prob in [0, 1] and "
                    "n >= 1, got \"%s\"",
                    env, v);
    return r;
}

/** "0" or "1". */
bool
boolean(const char *env, const char *v)
{
    std::string_view s = v;
    if (s != "0" && s != "1")
        MAPLE_THROW(sim::ConfigError, "%s: expected 0 or 1, got \"%s\"", env,
                    v);
    return s == "1";
}

/** An enum name, as @p parsed from @p v by the enum's own parser. */
template <typename E>
E
named(const char *env, const char *v, std::optional<E> parsed,
      const char *names)
{
    if (!parsed)
        MAPLE_THROW(sim::ConfigError, "%s: expected %s, got \"%s\"", env,
                    names, v);
    return *parsed;
}

std::optional<bool>
parseEcc(std::string_view s)
{
    if (s == "secded")
        return true;
    if (s == "off" || s == "0")
        return false;
    return std::nullopt;
}

/** Comma-separated requester-class names, as a RequestMeta class mask. */
std::uint32_t
classes(const char *env, const char *v)
{
    std::uint32_t mask = 0;
    std::string_view rest = v;
    for (;;) {
        std::string_view tok = rest.substr(0, rest.find(','));
        std::uint32_t bit = 0;
        for (unsigned i = 0; i < mem::kNumRequesterClasses; ++i) {
            auto rc = static_cast<mem::RequesterClass>(i);
            if (tok == mem::requesterClassName(rc))
                bit = mem::requesterClassBit(rc);
        }
        if (!bit)
            MAPLE_THROW(sim::ConfigError,
                        "%s: unknown requester class \"%.*s\" in \"%s\"", env,
                        static_cast<int>(tok.size()), tok.data(), v);
        mask |= bit;
        if (tok.size() == rest.size())
            return mask;
        rest.remove_prefix(tok.size() + 1);
    }
}

// Row setters are captureless lambdas (env, value) -> target field.
using T = KnobTarget;
using V = const char *;

constexpr Knob kKnobs[] = {
    // Tracing (trace/trace.hpp).
    {"MAPLE_TRACE", "<path>", "unset",
     "enable tracing; write the Chrome trace JSON to this file",
     [](T &t, V, V v) {
         t.soc.trace.enabled = true;
         t.soc.trace.json_path = v;
     }},
    {"MAPLE_TRACE_CSV", "<path>", "unset",
     "enable tracing; write the probe time-series CSV to this file",
     [](T &t, V, V v) {
         t.soc.trace.enabled = true;
         t.soc.trace.csv_path = v;
     }},
    {"MAPLE_TRACE_INTERVAL", "<cycles>", "1000", "probe sampling cadence",
     [](T &t, V e, V v) { t.soc.trace.sample_interval = cycles(e, v, 1); }},

    // Fault injection (fault/fault.hpp): one rate per FaultClass.
    {"MAPLE_FAULT_SEED", "<u64>", "1", "seed of the per-class fault streams",
     [](T &t, V e, V v) { t.soc.fault.seed = number(e, v, 0, kMax); }},
    {"MAPLE_FAULT_NOC", "<prob[:cycles]>", "0:64",
     "extra cycles on one mesh-link reservation",
     [](T &t, V e, V v) { t.soc.fault.noc = rate(e, v, 64); }},
    {"MAPLE_FAULT_DRAM", "<prob[:cycles]>", "0:2000",
     "late data on one DRAM access",
     [](T &t, V e, V v) { t.soc.fault.dram = rate(e, v, 2000); }},
    {"MAPLE_FAULT_TLB", "<prob>", "0",
     "forced device-TLB re-walk (the walk is the cost)",
     [](T &t, V e, V v) { t.soc.fault.tlb = rate(e, v, 1); }},
    {"MAPLE_FAULT_MMIO", "<prob[:cycles]>", "0:200", "delayed MMIO response",
     [](T &t, V e, V v) { t.soc.fault.mmio = rate(e, v, 200); }},
    {"MAPLE_FAULT_HARD_SPAD", "<prob>", "0",
     "hard fault: a scratchpad fill is poisoned (device recovery)",
     [](T &t, V e, V v) { t.soc.fault.hard_spad = rate(e, v, 1); }},
    {"MAPLE_FAULT_HARD_TLB", "<prob>", "0",
     "hard fault: a device-TLB translation is corrupted",
     [](T &t, V e, V v) { t.soc.fault.hard_tlb = rate(e, v, 1); }},
    {"MAPLE_FAULT_COH", "<prob[:cycles]>", "0:64",
     "coherence-message delay (needs MAPLE_COHERENCE=msi)",
     [](T &t, V e, V v) { t.soc.fault.coh_delay = rate(e, v, 64); }},
    {"MAPLE_FAULT_COH_DROP", "<prob>", "0",
     "coherence-message loss: timeout + retransmit (needs msi)",
     [](T &t, V e, V v) { t.soc.fault.coh_drop = rate(e, v, 1); }},
    {"MAPLE_FAULT_BITFLIP_L1", "<prob[:sev]>", "0:2",
     "L1 soft error; sev 1 corrects, >= 2 poisons (needs MAPLE_ECC)",
     [](T &t, V e, V v) { t.soc.fault.bitflip_l1 = rate(e, v, 2); }},
    {"MAPLE_FAULT_BITFLIP_LLC", "<prob[:sev]>", "0:2",
     "LLC-slice soft error (needs MAPLE_ECC)",
     [](T &t, V e, V v) { t.soc.fault.bitflip_llc = rate(e, v, 2); }},
    {"MAPLE_FAULT_BITFLIP_DIR", "<prob[:sev]>", "0:2",
     "directory-entry soft error (needs MAPLE_ECC and msi)",
     [](T &t, V e, V v) { t.soc.fault.bitflip_dir = rate(e, v, 2); }},
    {"MAPLE_FAULT_BITFLIP_DRAM", "<prob[:sev]>", "0:2",
     "DRAM-read soft error (needs MAPLE_ECC)",
     [](T &t, V e, V v) { t.soc.fault.bitflip_dram = rate(e, v, 2); }},
    {"MAPLE_FAULT_ONLY", "<class[,class...]>", "all",
     "inject only into these requester classes: core, maple_consume, "
     "maple_produce, ptw, prefetch, mmio, coherence",
     [](T &t, V e, V v) { t.soc.fault.class_mask = classes(e, v); }},

    // OS recovery driver (os/maple_driver.hpp).
    {"MAPLE_FAULT_RECOVERY", "<0|1>", "0",
     "route MapleApi::*Reliable ops through the recovery driver",
     [](T &t, V e, V v) {
         t.soc.maple_proto.recovery.enabled = boolean(e, v);
     }},
    {"MAPLE_FAULT_RECOVERY_RETRIES", "<n>", "3",
     "timed-out retries before escalating to a recovery",
     [](T &t, V e, V v) {
         t.soc.maple_proto.recovery.retry_budget = count(e, v, 0);
     }},
    {"MAPLE_FAULT_RECOVERY_BUDGET", "<n>", "8",
     "recoveries per queue before it degrades to the software queue",
     [](T &t, V e, V v) {
         t.soc.maple_proto.recovery.recovery_budget = count(e, v, 0);
     }},
    {"MAPLE_FAULT_RECOVERY_BACKOFF", "<cycles>", "200",
     "first retry backoff (doubles, capped)",
     [](T &t, V e, V v) {
         t.soc.maple_proto.recovery.backoff_base = cycles(e, v, 0);
     }},
    {"MAPLE_FAULT_RECOVERY_TIMEOUT", "<cycles>", "10000",
     "device-side produce/consume wait bound",
     [](T &t, V e, V v) {
         t.soc.maple_proto.recovery.op_timeout = cycles(e, v, 1);
     }},

    // Liveness watchdog (fault/watchdog.hpp).
    {"MAPLE_WATCHDOG", "<0|1>", "1", "liveness watchdog",
     [](T &t, V e, V v) { t.soc.watchdog.enabled = boolean(e, v); }},
    {"MAPLE_WATCHDOG_STALL_BOUND", "<cycles>", "10000000",
     "park age that counts as a deadlock",
     [](T &t, V e, V v) { t.soc.watchdog.stall_bound = cycles(e, v, 1); }},
    {"MAPLE_WATCHDOG_INTERVAL", "<cycles>", "65536",
     "cycles between liveness checks",
     [](T &t, V e, V v) { t.soc.watchdog.check_interval = cycles(e, v, 1); }},

    // Fabric arbitration (mem/fabric.hpp).
    {"MAPLE_LLC_ARB", "<fifo|rr|core-priority>", "fifo",
     "arbitration at the shared-LLC front-end",
     [](T &t, V e, V v) {
         t.soc.llc_arb = named(e, v, mem::parseArbPolicy(v),
                               "fifo | rr | core-priority");
     }},
    {"MAPLE_DRAM_ARB", "<fifo|rr|core-priority>", "fifo",
     "arbitration at the DRAM queue",
     [](T &t, V e, V v) {
         t.soc.dram.arb = named(e, v, mem::parseArbPolicy(v),
                                "fifo | rr | core-priority");
     }},

    // Coherence (mem/coherence.hpp, mem/directory.hpp).
    {"MAPLE_COHERENCE", "<none|msi>", "none",
     "sparse-directory MSI protocol; none is the legacy hierarchy",
     [](T &t, V e, V v) {
         t.soc.coherence.mode =
             named(e, v, mem::parseCoherenceMode(v), "none | msi");
     }},
    {"MAPLE_COH_CHECK", "<0|1>", "0",
     "flat-memory reference checker on every protocol transition",
     [](T &t, V e, V v) { t.soc.coherence.checker = boolean(e, v); }},
    {"MAPLE_COH_DIR_ENTRIES", "<n>", "4096",
     "sparse-directory entries per LLC slice",
     [](T &t, V e, V v) { t.soc.coherence.dir_entries = count(e, v, 1); }},
    {"MAPLE_COH_DIR_ASSOC", "<n>", "8", "sparse-directory associativity",
     [](T &t, V e, V v) { t.soc.coherence.dir_assoc = count(e, v, 1); }},
    {"MAPLE_COH_MAX_SHARERS", "<n>", "8",
     "sharer-vector width; overflow invalidates the oldest sharer",
     [](T &t, V e, V v) { t.soc.coherence.max_sharers = count(e, v, 1); }},
    {"MAPLE_LLC_SLICES", "<1..1024>", "1",
     "address-interleaved LLC/directory slices (msi only)",
     [](T &t, V e, V v) { t.soc.llc_slices = count(e, v, 1, 1024); }},

    // Soft-error resilience (mem/resil.hpp).
    {"MAPLE_ECC", "<off|secded>", "off",
     "SECDED ECC on L1, LLC, directory and DRAM",
     [](T &t, V e, V v) {
         t.soc.resil.ecc = named(e, v, parseEcc(v), "off | secded");
     }},
    {"MAPLE_ECC_CORRECT_LATENCY", "<cycles>", "8",
     "penalty per corrected error",
     [](T &t, V e, V v) { t.soc.resil.correct_latency = cycles(e, v, 0); }},
    {"MAPLE_SCRUB_INTERVAL", "<cycles>", "0 (off)", "directory scrub period",
     [](T &t, V e, V v) { t.soc.resil.scrub_interval = cycles(e, v, 0); }},
    {"MAPLE_SCRUB_BATCH", "<n>", "16", "directory entries audited per pass",
     [](T &t, V e, V v) { t.soc.resil.scrub_batch = count(e, v, 1); }},

    // Host execution (soc/grid.hpp): never changes simulated results.
    {"MAPLE_THREADS", "<n>", "1", "host worker threads driving a SocGrid",
     [](T &t, V e, V v) { t.host_threads = count(e, v, 1); }},
};

/** Apply every set, non-empty MAPLE_* variable to @p t. */
void
overlay(KnobTarget t)
{
    for (const Knob &k : kKnobs) {
        const char *v = std::getenv(k.env);
        if (v && *v)
            k.set(t, k.env, v);
    }
}

}  // namespace

std::span<const Knob>
knobs()
{
    return kKnobs;
}

std::string
knobFlag(const Knob &k)
{
    std::string flag = "--";
    for (const char *p = k.env + std::strlen("MAPLE_"); *p; ++p)
        flag += *p == '_' ? '-'
                          : static_cast<char>(std::tolower(
                                static_cast<unsigned char>(*p)));
    return flag;
}

void
resolveConfig(SocConfig &cfg)
{
    unsigned grid_threads = 1;  // validated here, applied by SocGrid only
    overlay({cfg, grid_threads});
    // Without a protocol the slice knob is forced to 1, so the historical
    // single-home layout (and every downstream byte) is untouched.
    if (!cfg.coherence.enabled() || cfg.llc_slices < 1)
        cfg.llc_slices = 1;
    // Enough tiles for cores + MAPLEs + LLC slices.
    unsigned tiles = cfg.num_cores + cfg.num_maples + cfg.llc_slices;
    if (cfg.mesh_width == 0 || cfg.mesh_height == 0) {
        unsigned w = 1;
        while (w * w < tiles)
            ++w;
        cfg.mesh_width = w;
        cfg.mesh_height = (tiles + w - 1) / w;
    }
    cfg.mesh.width = cfg.mesh_width;
    cfg.mesh.height = cfg.mesh_height;
}

unsigned
resolveHostThreads(unsigned fallback)
{
    SocConfig unused;
    overlay({unused, fallback});
    return fallback;
}

}  // namespace maple::soc
