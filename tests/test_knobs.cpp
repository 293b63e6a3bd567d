/**
 * @file
 * Tests for the MAPLE_* knob table (soc/knobs.hpp): every row rejects a
 * malformed value with a typed error naming its variable, the table covers
 * every fault class exactly once, and the harness flags derived from the
 * names strip to their variables.
 */
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.hpp"
#include "harness/figures.hpp"
#include "sim/error.hpp"
#include "soc/knobs.hpp"
#include "soc/soc.hpp"

using namespace maple;

namespace {

/** Sets one variable for the scope, so a failing test leaks no knob. */
struct ScopedEnv {
    ScopedEnv(const char *name, const char *value) : name(name)
    {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name); }
    const char *name;
};

/** resolveConfig with @p env = @p value; the ConfigError text, or "". */
std::string
resolveError(const char *env, const char *value)
{
    ScopedEnv set(env, value);
    soc::SocConfig cfg = soc::SocConfig::fpga();
    try {
        soc::resolveConfig(cfg);
    } catch (const sim::ConfigError &e) {
        return e.what();
    }
    return "";
}

TEST(Knobs, EveryRowRejectsAMalformedValueNamingItsVariable)
{
    struct Case {
        std::string env;
        const char *value;
    };
    std::vector<Case> cases;
    for (const soc::Knob &k : soc::knobs()) {
        // Any string is a path; every other syntax rejects "x".
        if (std::string_view(k.syntax) != "<path>")
            cases.push_back({k.env, "x"});
    }
    // Values the hand-written parsers used to misread.
    cases.insert(cases.end(), {
        {"MAPLE_COH_CHECK", "off"},                  // turned the checker on
        {"MAPLE_WATCHDOG", "off"},                   // left the watchdog on
        {"MAPLE_FAULT_RECOVERY", "yes"},             // turned recovery off
        {"MAPLE_FAULT_RECOVERY_RETRIES", "-1"},      // became 4294967295
        {"MAPLE_COH_DIR_ENTRIES", "4294967297"},     // narrowed to 1
        {"MAPLE_THREADS", "4294967296"},             // would wrap to 0
        {"MAPLE_THREADS", "0"},
        {"MAPLE_LLC_SLICES", "1025"},
        {"MAPLE_SCRUB_BATCH", "0"},
        {"MAPLE_FAULT_RECOVERY_TIMEOUT", "0"},       // would never time out
        {"MAPLE_FAULT_SEED", "0x10"},
        {"MAPLE_FAULT_SEED", " 7"},
        {"MAPLE_FAULT_SEED", "+7"},
        {"MAPLE_FAULT_NOC", "0.1x"},
        {"MAPLE_FAULT_NOC", "1.5"},
        {"MAPLE_FAULT_NOC", "nan"},
        {"MAPLE_FAULT_NOC", "0.1:"},
        {"MAPLE_FAULT_NOC", "0.1:0"},
        {"MAPLE_FAULT_ONLY", "core,"},
        {"MAPLE_FAULT_ONLY", "maple_consume,bogus"},
    });
    ASSERT_GE(cases.size(), soc::knobs().size());
    for (const Case &c : cases) {
        std::string what = resolveError(c.env.c_str(), c.value);
        EXPECT_NE(what.find(c.env), std::string::npos)
            << c.env << "=\"" << c.value
            << "\" must throw a ConfigError naming it; got \"" << what
            << "\"";
    }
}

TEST(Knobs, ValidSpellingsParse)
{
    soc::SocConfig cfg = soc::SocConfig::fpga();
    {
        ScopedEnv a("MAPLE_FAULT_NOC", "0.01:16");
        ScopedEnv b("MAPLE_FAULT_TLB", "0.05");
        ScopedEnv c("MAPLE_FAULT_SEED", "18446744073709551615");
        ScopedEnv d("MAPLE_FAULT_RECOVERY", "1");
        ScopedEnv e("MAPLE_FAULT_RECOVERY_RETRIES", "0");
        ScopedEnv f("MAPLE_WATCHDOG", "0");
        ScopedEnv g("MAPLE_COHERENCE", "msi");
        ScopedEnv h("MAPLE_COH_CHECK", "1");
        ScopedEnv i("MAPLE_LLC_SLICES", "2");
        ScopedEnv j("MAPLE_ECC", "secded");
        ScopedEnv k("MAPLE_LLC_ARB", "core-priority");
        ScopedEnv l("MAPLE_FAULT_ONLY", "ptw,mmio");
        soc::resolveConfig(cfg);
    }
    EXPECT_EQ(cfg.fault.noc.prob, std::strtod("0.01", nullptr));
    EXPECT_EQ(cfg.fault.noc.max_extra, 16u);
    EXPECT_EQ(cfg.fault.tlb.prob, 0.05);
    EXPECT_EQ(cfg.fault.tlb.max_extra, 1u);
    EXPECT_EQ(cfg.fault.seed, ~std::uint64_t{0});
    EXPECT_TRUE(cfg.maple_proto.recovery.enabled);
    EXPECT_EQ(cfg.maple_proto.recovery.retry_budget, 0u);
    EXPECT_FALSE(cfg.watchdog.enabled);
    EXPECT_EQ(cfg.coherence.mode, mem::CoherenceMode::Msi);
    EXPECT_TRUE(cfg.coherence.checker);
    EXPECT_EQ(cfg.llc_slices, 2u);
    EXPECT_TRUE(cfg.resil.ecc);
    EXPECT_EQ(cfg.llc_arb, mem::ArbPolicy::CorePriority);
    EXPECT_EQ(cfg.fault.class_mask,
              mem::requesterClassBit(mem::RequesterClass::Ptw) |
                  mem::requesterClassBit(mem::RequesterClass::Mmio));
}

TEST(Knobs, EmptyValueIsUnset)
{
    ScopedEnv trace("MAPLE_TRACE", "");
    ScopedEnv check("MAPLE_COH_CHECK", "");
    soc::SocConfig cfg = soc::SocConfig::fpga();
    soc::resolveConfig(cfg);
    EXPECT_FALSE(cfg.trace.enabled);
    EXPECT_FALSE(cfg.coherence.checker);
}

TEST(Knobs, EnvNamesAreUnique)
{
    std::set<std::string_view> names;
    for (const soc::Knob &k : soc::knobs()) {
        EXPECT_TRUE(std::string_view(k.env).starts_with("MAPLE_")) << k.env;
        EXPECT_TRUE(names.insert(k.env).second) << "duplicate " << k.env;
    }
}

TEST(Knobs, EveryFaultClassHasExactlyOneRow)
{
    constexpr auto kClasses =
        static_cast<std::size_t>(fault::FaultClass::kCount);
    std::array<unsigned, kClasses> rows{};
    for (const soc::Knob &k : soc::knobs()) {
        if (!std::string_view(k.syntax).starts_with("<prob"))
            continue;
        EXPECT_TRUE(std::string_view(k.env).starts_with("MAPLE_FAULT_"))
            << k.env;
        soc::SocConfig cfg;
        unsigned threads = 1;
        soc::KnobTarget t{cfg, threads};
        k.set(t, k.env, "0.5");
        fault::FaultPlan plan(cfg.fault);
        unsigned hits = 0;
        for (std::size_t c = 0; c < kClasses; ++c) {
            if (plan.rate(static_cast<fault::FaultClass>(c)).prob == 0.5) {
                ++rows[c];
                ++hits;
            }
        }
        EXPECT_EQ(hits, 1u) << k.env << " must set exactly one class's rate";
    }
    for (std::size_t c = 0; c < kClasses; ++c)
        EXPECT_EQ(rows[c], 1u)
            << fault::faultClassName(static_cast<fault::FaultClass>(c));
}

/** applyKnobFlags over {"prog", @p args...}; returns what stayed in argv. */
std::vector<std::string>
strip(std::vector<std::string> args)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    int argc = static_cast<int>(args.size());
    harness::applyKnobFlags(argc, argv.data());
    return std::vector<std::string>(argv.begin() + 1, argv.begin() + argc);
}

TEST(Knobs, DerivedFlagsStripToTheirVariable)
{
    for (const soc::Knob &k : soc::knobs()) {
        const std::string flag = soc::knobFlag(k);
        EXPECT_EQ(strip({flag + "=probe", "--keep"}),
                  std::vector<std::string>{"--keep"});
        EXPECT_STREQ(std::getenv(k.env), "probe") << flag << "=v";
        ::unsetenv(k.env);
        EXPECT_EQ(strip({"--keep", flag, "probe"}),
                  std::vector<std::string>{"--keep"});
        EXPECT_STREQ(std::getenv(k.env), "probe") << flag << " v";
        ::unsetenv(k.env);
    }
    // A near miss is not a knob: it stays for the caller's own parsing.
    EXPECT_EQ(strip({"--fault-typo=1", "--fault-cohx=1"}),
              (std::vector<std::string>{"--fault-typo=1", "--fault-cohx=1"}));
}

TEST(Knobs, EveryHistoricalFlagSpellingIsARow)
{
    std::set<std::string> flags;
    for (const soc::Knob &k : soc::knobs())
        flags.insert(soc::knobFlag(k));
    for (const char *f : {
             "--trace", "--trace-csv", "--trace-interval", "--fault-seed",
             "--fault-noc", "--fault-dram", "--fault-tlb", "--fault-mmio",
             "--fault-hard-spad", "--fault-hard-tlb", "--fault-coh",
             "--fault-coh-drop", "--fault-bitflip-l1", "--fault-bitflip-llc",
             "--fault-bitflip-dir", "--fault-bitflip-dram",
             "--fault-recovery", "--fault-recovery-retries",
             "--fault-recovery-budget", "--fault-recovery-backoff",
             "--fault-recovery-timeout", "--watchdog",
             "--watchdog-stall-bound", "--llc-arb", "--dram-arb",
             "--fault-only", "--coherence", "--llc-slices", "--coh-check",
             "--ecc", "--ecc-correct-latency", "--scrub-interval",
             "--scrub-batch"})
        EXPECT_EQ(flags.count(f), 1u) << f;
}

}  // namespace
