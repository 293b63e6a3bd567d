/**
 * @file
 * Soft-error resilience tests (src/mem/resil): the SECDED ECC model, poison
 * propagation and machine-check containment, the MCA MMIO banks, and the
 * background directory scrub engine.
 *
 * The contract under test, end to end:
 *
 *  - correctable (severity-1) flips cost latency only — the workload's
 *    output is untouched and nothing is poisoned;
 *  - uncorrectable (severity-2) flips poison the line, and a core that
 *    consumes the poison triggers containment: flush the holders, retire
 *    the physical page, latch the MCA bank, resume with the right data;
 *  - directory flips corrupt sharer vectors and the scrub engine repairs
 *    them against CoherentCache ground truth, with the protocol checker
 *    silent throughout;
 *  - all of it is deterministic across host thread counts and across a
 *    snapshot/restore boundary.
 */
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/maple_runtime.hpp"
#include "mem/coherence.hpp"
#include "mem/resil.hpp"
#include "os/maple_driver.hpp"
#include "sim/coro.hpp"
#include "sim/random.hpp"
#include "soc/soc.hpp"

using namespace maple;

namespace {

// ---------------------------------------------------------------------------
// Shared driver: the quickstart-style gather, small enough to run many
// configurations, big enough to touch every structure (L1, LLC, DRAM).
// ---------------------------------------------------------------------------

constexpr std::uint32_t kN = 1024;

struct GatherAddrs {
    sim::Addr a = 0, b = 0, out = 0;
};

GatherAddrs
fillArrays(os::Process &proc)
{
    GatherAddrs at;
    at.a = proc.alloc(kN * 4, "A");
    at.b = proc.alloc(kN * 4, "B");
    at.out = proc.alloc(kN * 4, "out");
    for (std::uint32_t i = 0; i < kN; ++i) {
        proc.writeScalar<std::uint32_t>(at.a + 4 * i, i * 3);
        proc.writeScalar<std::uint32_t>(at.b + 4 * i, (i * 2654435761u) % kN);
    }
    return at;
}

GatherAddrs
setupGather(soc::Soc &soc, os::Process &proc, core::MapleApi &api)
{
    GatherAddrs at = fillArrays(proc);
    auto setup = [&](cpu::Core &c) -> sim::Task<void> {
        co_await api.init(c, 1, 32, 4);
        bool ok = co_await api.open(c, 0);
        MAPLE_ASSERT(ok, "queue open failed");
    };
    soc.run({sim::spawn(setup(soc.core(0)))});
    return at;
}

/** Core-only gather (no MAPLE): every consumer is core-class, so every
 *  uncorrectable error in the data path must end in containment. */
sim::Task<void>
coreGather(cpu::Core &core, GatherAddrs at)
{
    for (std::uint32_t i = 0; i < kN; ++i) {
        std::uint64_t idx = co_await core.load(at.b + 4 * i, 4);
        std::uint64_t v = co_await core.load(at.a + 4 * idx, 4);
        co_await core.compute(1);
        co_await core.store(at.out + 4 * i, v + 1, 4);
    }
}

sim::Task<void>
accessThread(cpu::Core &core, core::MapleApi &api, GatherAddrs at)
{
    for (std::uint32_t i = 0; i < kN; ++i) {
        std::uint64_t idx = co_await core.load(at.b + 4 * i, 4);
        co_await api.producePtrReliable(core, 0, at.a + 4 * idx);
    }
}

sim::Task<void>
executeThread(cpu::Core &core, core::MapleApi &api, GatherAddrs at)
{
    for (std::uint32_t i = 0; i < kN; ++i) {
        std::uint64_t v = co_await api.consumeReliable(core, 0);
        co_await core.compute(1);
        co_await core.store(at.out + 4 * i, v + 1, 4);
    }
}

sim::Cycle
runGather(soc::Soc &soc, core::MapleApi &api, GatherAddrs at)
{
    return soc.run({sim::spawn(accessThread(soc.core(0), api, at)),
                    sim::spawn(executeThread(soc.core(1), api, at))});
}

void
checkGatherOutput(os::Process &proc, const GatherAddrs &at)
{
    for (std::uint32_t i = 0; i < kN; ++i) {
        std::uint32_t idx = (i * 2654435761u) % kN;
        ASSERT_EQ(proc.readScalar<std::uint32_t>(at.out + 4 * i), idx * 3 + 1)
            << "output element " << i;
    }
}

/** Full gather on @p cfg; returns final cycles, checks the output. */
sim::Cycle
gatherCycles(soc::SocConfig cfg)
{
    soc::Soc soc(std::move(cfg));
    os::Process &proc = soc.createProcess("resil");
    core::MapleApi api = core::MapleApi::attach(proc, soc.maple());
    GatherAddrs at = setupGather(soc, proc, api);
    sim::Cycle cycles = runGather(soc, api, at);
    checkGatherOutput(proc, at);
    return cycles;
}

// ---------------------------------------------------------------------------
// Default-off: bit-flip rates without --ecc=secded change nothing
// ---------------------------------------------------------------------------

TEST(Resil, EccOffIgnoresBitFlipRatesEntirely)
{
    sim::Cycle clean = gatherCycles(soc::SocConfig::fpga());

    soc::SocConfig cfg = soc::SocConfig::fpga();
    cfg.fault.seed = 7;
    cfg.fault.bitflip_l1 = {0.05, 2};
    cfg.fault.bitflip_llc = {0.05, 2};
    cfg.fault.bitflip_dram = {0.05, 2};
    // resil.ecc stays false: no ResilManager is built, so the rates above
    // are never even drawn — the run is cycle-identical to a clean one.
    soc::Soc soc(cfg);
    EXPECT_EQ(soc.resil(), nullptr);
    EXPECT_EQ(gatherCycles(cfg), clean);
}

// ---------------------------------------------------------------------------
// Correctable errors: latency only
// ---------------------------------------------------------------------------

TEST(Resil, CorrectableErrorsCostLatencyOnly)
{
    sim::Cycle clean = gatherCycles(soc::SocConfig::fpga());

    soc::SocConfig cfg = soc::SocConfig::fpga();
    cfg.resil.ecc = true;
    cfg.fault.seed = 11;
    cfg.fault.bitflip_l1 = {0.02, 1};   // severity 1: always correctable
    cfg.fault.bitflip_dram = {0.02, 1};
    soc::Soc soc(cfg);
    ASSERT_NE(soc.resil(), nullptr);
    os::Process &proc = soc.createProcess("resil");
    core::MapleApi api = core::MapleApi::attach(proc, soc.maple());
    GatherAddrs at = setupGather(soc, proc, api);
    sim::Cycle cycles = runGather(soc, api, at);
    checkGatherOutput(proc, at);

    mem::ResilManager &r = *soc.resil();
    EXPECT_GT(r.correctedTotal(), 0u) << "2% over thousands of accesses";
    EXPECT_EQ(r.uncorrectableTotal(), 0u) << "severity 1 never poisons";
    EXPECT_EQ(r.containments(), 0u);
    EXPECT_EQ(r.backingPoisonedLines(), 0u);
    // The decoupled gather absorbs most correction bubbles (that is the
    // point of latency tolerance), so end-to-end time only has to *move*,
    // not grow.
    EXPECT_NE(cycles, clean) << "corrections must perturb the timing";
}

// ---------------------------------------------------------------------------
// Uncorrectable errors: poison -> containment -> page retirement
// ---------------------------------------------------------------------------

TEST(Resil, DramPoisonIsContainedAndPageRetired)
{
    soc::SocConfig cfg = soc::SocConfig::fpga();
    cfg.resil.ecc = true;
    cfg.fault.seed = 13;
    cfg.fault.bitflip_dram = {0.05, 2};  // severity 2: uncorrectable
    soc::Soc soc(cfg);
    os::Process &proc = soc.createProcess("resil");
    GatherAddrs at = fillArrays(proc);
    soc.run({sim::spawn(coreGather(soc.core(0), at))});
    // Containment must deliver the *right* data after the retry: the page
    // retire copies the frame, so the workload result is intact.
    checkGatherOutput(proc, at);

    mem::ResilManager &r = *soc.resil();
    EXPECT_GT(r.uncorrectableTotal(), 0u);
    EXPECT_GT(r.containments(), 0u) << "a consumer must have hit poison";
    EXPECT_GT(r.retiredPages(), 0u) << "containment retires the frame";
    bool any_mca = false;
    for (unsigned t = 0; t < r.numTiles(); ++t)
        any_mca |= r.mca(t).valid;
    EXPECT_TRUE(any_mca) << "uncorrectable errors latch an MCA bank";
}

TEST(Resil, McaBanksAreMmioReadableAndStickyUntilCleared)
{
    soc::SocConfig cfg = soc::SocConfig::fpga();
    cfg.resil.ecc = true;
    cfg.fault.seed = 13;
    cfg.fault.bitflip_dram = {0.05, 2};
    soc::Soc soc(cfg);
    os::Process &proc = soc.createProcess("resil");
    GatherAddrs at = fillArrays(proc);
    soc.run({sim::spawn(coreGather(soc.core(0), at))});

    mem::ResilManager &r = *soc.resil();
    unsigned tile = r.numTiles();
    for (unsigned t = 0; t < r.numTiles(); ++t)
        if (r.mca(t).valid) {
            tile = t;
            break;
        }
    ASSERT_LT(tile, r.numTiles()) << "need at least one latched bank";
    const mem::McaBank bank = r.mca(tile);

    // Software view: one 32-byte register bank per tile in the MCA MMIO
    // window (status, addr, count, first_cycle); a store clears the bank.
    sim::Addr va = proc.mapMmio(soc.mcaMmioBase(), mem::kPageSize);
    sim::Addr base = va + sim::Addr(tile) * 32;
    auto reader = [&](cpu::Core &c) -> sim::Task<void> {
        std::uint64_t status = co_await c.load(base + 0, 8);
        EXPECT_EQ(status & 0xff, 1u) << "valid bit";
        EXPECT_EQ((status >> 8) & 0xff, std::uint64_t(bank.structure));
        EXPECT_EQ((status >> 16) & 0xff, std::uint64_t(bank.cause));
        EXPECT_EQ(co_await c.load(base + 8, 8), bank.addr);
        EXPECT_EQ(co_await c.load(base + 16, 8), bank.count);
        EXPECT_EQ(co_await c.load(base + 24, 8), bank.first_cycle);
        co_await c.store(base + 0, 0, 8);  // W1C: clear the bank
        EXPECT_EQ(co_await c.load(base + 0, 8), 0u);
    };
    soc.run({sim::spawn(reader(soc.core(0)))});
    EXPECT_FALSE(r.mca(tile).valid) << "the MMIO store cleared the bank";
}

// ---------------------------------------------------------------------------
// Scrub engine: corrupted sharer vectors get repaired, checker silent
// ---------------------------------------------------------------------------

soc::SocConfig
msiResilConfig()
{
    soc::SocConfig cfg = soc::SocConfig::fpga();
    cfg.coherence.mode = mem::CoherenceMode::Msi;
    cfg.coherence.checker = true;
    cfg.resil.ecc = true;
    cfg.resil.scrub_interval = 2000;
    return cfg;
}

TEST(Resil, ScrubRepairsCorruptedDirectoryEntries)
{
    soc::SocConfig cfg = msiResilConfig();
    // Cover the whole (sparse) directory every few passes: the default
    // batch of 16 would take most of the run to reach a given stale entry.
    cfg.resil.scrub_batch = 256;
    cfg.fault.seed = 17;
    cfg.fault.bitflip_dir = {0.2, 2};  // corrupt sharer vectors
    soc::Soc soc(cfg);
    os::Process &proc = soc.createProcess("resil");
    GatherAddrs at = fillArrays(proc);
    // Both cores run the gather over the same arrays: every A/B line is
    // shared in S by two caches, and the 12 KiB working set overflows the
    // 8 KiB L1s, so silent S-evictions leave genuinely stale sharer bits
    // even before the injected directory corruption adds fake ones.
    soc.run({sim::spawn(coreGather(soc.core(0), at)),
             sim::spawn(coreGather(soc.core(1), at))});
    checkGatherOutput(proc, at);  // checker throws on any protocol breach

    mem::ResilManager &r = *soc.resil();
    EXPECT_GT(r.scrubPasses(), 0u) << "the background loop really ran";
    EXPECT_GT(r.scrubRepairs(), 0u)
        << "stale sharer bits (corruption + silent S-evictions) must be "
           "repaired against CoherentCache ground truth";
    EXPECT_FALSE(r.scrubRunning())
        << "the loop parks itself when the machine drains (snapshot-safe)";
}

// ---------------------------------------------------------------------------
// Unified poison taxonomy: memory-origin poison reaching MAPLE's fetch
// pipeline surfaces exactly like a device hard fault (MapleStatus::Poisoned)
// and rides the existing OS recovery driver.
// ---------------------------------------------------------------------------

TEST(Resil, MemoryPoisonInMapleStreamsUsesTheRecoveryPath)
{
    soc::SocConfig cfg = soc::SocConfig::fpga();
    cfg.resil.ecc = true;
    cfg.fault.seed = 29;
    cfg.fault.bitflip_dram = {0.02, 2};
    os::RecoveryConfig rc;
    rc.enabled = true;
    rc.recovery_budget = 8;
    soc::Soc soc(cfg);
    os::Process &proc = soc.createProcess("resil");
    core::MapleApi api = core::MapleApi::attach(proc, soc.maple(), rc);
    GatherAddrs at = setupGather(soc, proc, api);
    runGather(soc, api, at);
    checkGatherOutput(proc, at);  // reliable ops never deliver poison

    EXPECT_GT(soc.maple().counter(core::Counter::PoisonedResponses), 0u)
        << "memory-origin poison must surface as MapleStatus::Poisoned";
    EXPECT_GT(api.driver()->recoveries(), 0u)
        << "the driver recovers poisoned queues like device hard faults";
    EXPECT_GT(soc.resil()->uncorrectableTotal(), 0u);
}

// ---------------------------------------------------------------------------
// Fuzzer: every bit-flip class at once, checker as the oracle. This is the
// CI soft-error fuzzer: runs must complete (or end in contained recovery) —
// never a CoherenceError, never a hang.
// ---------------------------------------------------------------------------

TEST(ResilFuzz, SeededBitFlipStormsNeverBreachTheChecker)
{
    for (std::uint64_t seed : {1ull, 23ull, 0xfeedull}) {
        soc::SocConfig cfg = msiResilConfig();
        cfg.fault.seed = seed;
        cfg.fault.bitflip_l1 = {0.01, 1};
        cfg.fault.bitflip_llc = {0.005, 2};
        cfg.fault.bitflip_dram = {0.005, 2};
        cfg.fault.bitflip_dir = {0.02, 2};
        os::RecoveryConfig rc;
        rc.enabled = true;  // poisoned MAPLE slots recover instead of zeroing
        rc.recovery_budget = 8;
        soc::Soc soc(cfg);
        os::Process &proc = soc.createProcess("fuzz");
        core::MapleApi api = core::MapleApi::attach(proc, soc.maple(), rc);
        GatherAddrs at = setupGather(soc, proc, api);
        runGather(soc, api, at);  // CoherenceError would propagate here
        checkGatherOutput(proc, at);
        mem::ResilManager &r = *soc.resil();
        EXPECT_GT(r.correctedTotal() + r.uncorrectableTotal(), 0u)
            << "seed " << seed << ": the storm must actually fire";
    }
}

// ---------------------------------------------------------------------------
// Acceptance: 64-tile grid, checker on, all four fault classes seeded.
// Deterministic across snapshot/restore.
// ---------------------------------------------------------------------------

constexpr unsigned kGridCores = 55;  // + 1 MAPLE + 8 slices = 64 tiles
constexpr unsigned kOpsPerPhase = 128;

/** Per-core mixed traffic over a shared region (sharing, invalidations,
 *  S-evictions) plus a private stride (capacity evictions). */
sim::Task<void>
gridAgent(soc::Soc &soc, unsigned c, sim::Addr shared, sim::Addr priv,
          std::uint64_t seed)
{
    cpu::Core &core = soc.core(c);
    sim::Rng rng(seed);
    for (unsigned i = 0; i < kOpsPerPhase; ++i) {
        sim::Addr a = shared + (rng.next() % 512) * 8;
        if (rng.next() % 3)
            co_await core.load(a, 8);
        else
            co_await core.store(a, rng.next(), 8);
        co_await core.load(priv + (i % 64) * 64, 8);
    }
}

struct GridOutcome {
    std::string warm;   ///< snapshot at the phase-1/phase-2 boundary
    std::string fin;    ///< end-of-run snapshot
    std::uint64_t corrected = 0, containments = 0, scrub_repairs = 0;
    sim::Cycle cycles = 0;
};

soc::SocConfig
acceptanceConfig()
{
    soc::SocConfig cfg = soc::SocConfig::simulated(kGridCores);
    cfg.llc_slices = 8;
    cfg.coherence.mode = mem::CoherenceMode::Msi;
    cfg.coherence.checker = true;
    cfg.resil.ecc = true;
    cfg.resil.scrub_interval = 4000;
    cfg.resil.scrub_batch = 128;  // cover all 8 slice directories per run
    cfg.fault.seed = 9;
    cfg.fault.bitflip_l1 = {0.004, 1};
    cfg.fault.bitflip_llc = {0.002, 2};
    cfg.fault.bitflip_dram = {0.002, 2};
    cfg.fault.bitflip_dir = {0.02, 2};
    return cfg;
}

void
runGridPhase(soc::Soc &soc, sim::Addr shared, sim::Addr priv,
             std::uint64_t phase_seed)
{
    std::vector<sim::Join> joins;
    for (unsigned c = 0; c < kGridCores; ++c)
        joins.push_back(sim::spawn(gridAgent(
            soc, c, shared, priv + c * 4096, phase_seed + c)));
    sim::Cycle cycles = soc.run(std::move(joins), 200'000'000);
    ASSERT_LT(cycles, 200'000'000u) << "grid phase wedged";
}

GridOutcome
runAcceptanceGrid()
{
    GridOutcome out;
    soc::Soc soc(acceptanceConfig());
    EXPECT_EQ(soc.config().mesh_width * soc.config().mesh_height, 64u);
    os::Process &proc = soc.createProcess("acceptance");
    sim::Addr shared = proc.alloc(512 * 8, "shared");
    sim::Addr priv = proc.alloc(kGridCores * 4096, "priv");

    runGridPhase(soc, shared, priv, 0x1000);
    std::stringstream warm;
    soc.snapshot(warm);
    out.warm = warm.str();

    runGridPhase(soc, shared, priv, 0x2000);
    mem::ResilManager &r = *soc.resil();
    out.corrected = r.correctedTotal();
    out.containments = r.containments();
    out.scrub_repairs = r.scrubRepairs();
    out.cycles = soc.eq().now();
    std::stringstream fin;
    soc.snapshot(fin);
    out.fin = fin.str();
    return out;
}

TEST(ResilAcceptance, SixtyFourTileGridCorrectsContainsAndScrubs)
{
    GridOutcome ref = runAcceptanceGrid();
    // The three required recoveries all fired, and the checker (live on
    // every transition) never threw out of a join.
    EXPECT_GE(ref.corrected, 1u);
    EXPECT_GE(ref.containments, 1u);
    EXPECT_GE(ref.scrub_repairs, 1u);

    // Restore the phase boundary into a fresh SoC and run phase 2: the end
    // state must match the uninterrupted run, resilience state (poisoned
    // ways, MCA banks, backing poison, scrub cursor) included.
    soc::Soc soc(acceptanceConfig());
    std::istringstream warm(ref.warm);
    soc.restore(warm);
    os::Process &proc = *soc.kernel().processes()[0];
    sim::Addr shared = proc.regionBase("shared");
    sim::Addr priv = proc.regionBase("priv");
    runGridPhase(soc, shared, priv, 0x2000);
    EXPECT_EQ(soc.eq().now(), ref.cycles);
    std::stringstream fin;
    soc.snapshot(fin);
    EXPECT_EQ(fin.str(), ref.fin)
        << "snapshot->restore diverged from the uninterrupted run";
}

}  // namespace
