/**
 * @file
 * Determinism tests for the snapshot/restore subsystem (src/ckpt).
 *
 * The load-bearing guarantee: restore-then-run is *byte-identical* to an
 * uninterrupted run. Rather than compare a hand-picked subset of state, the
 * bit-identity tests compare full end-of-run snapshots — if any counter,
 * cache line, TLB entry, RNG stream, queue slot or trace event diverged,
 * the snapshots differ.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/serial.hpp"
#include "ckpt/snapshot.hpp"
#include "core/maple_runtime.hpp"
#include "mem/coherence.hpp"
#include "mem/resil.hpp"
#include "sim/coro.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "soc/soc.hpp"

using namespace maple;

namespace {

TEST(CkptSerial, ScalarsRoundTrip)
{
    std::stringstream ss;
    ckpt::Sink out(ss);
    out.u8(0xab);
    out.u32(0xdeadbeefu);
    out.u64(0x0123456789abcdefull);
    out.b(true);
    out.f64(-0.1);
    out.str("hello");
    out.vecU64({1, 2, 3});

    ckpt::Source in(ss);
    EXPECT_EQ(in.u8(), 0xab);
    EXPECT_EQ(in.u32(), 0xdeadbeefu);
    EXPECT_EQ(in.u64(), 0x0123456789abcdefull);
    EXPECT_TRUE(in.b());
    EXPECT_EQ(in.f64(), -0.1);
    EXPECT_EQ(in.str(), "hello");
    EXPECT_EQ(in.vecU64(), (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_TRUE(in.atEof());
}

TEST(CkptSerial, TruncatedStreamThrows)
{
    std::stringstream ss;
    ckpt::Sink out(ss);
    out.u32(7);
    ckpt::Source in(ss);
    (void)in.u8();
    (void)in.u8();
    EXPECT_THROW((void)in.u64(), ckpt::SnapshotError);
}

TEST(CkptRng, MidDrawSaveRestoreResumesStream)
{
    sim::Rng rng(20260809);
    for (int i = 0; i < 1000; ++i)
        (void)rng.next();

    sim::Rng::State mid = rng.state();
    std::vector<std::uint64_t> expect;
    for (int i = 0; i < 100; ++i)
        expect.push_back(rng.next());

    sim::Rng resumed(1);  // different seed: state must fully override it
    resumed.setState(mid);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(resumed.next(), expect[static_cast<size_t>(i)]) << "draw " << i;
}

TEST(CkptStats, StatGroupRoundTripKeepsBorrowedPointers)
{
    sim::StatGroup g("g");
    sim::Counter &hits = g.counter("hits");
    sim::Average &lat = g.average("lat");
    sim::Histogram &dist = g.histogram("dist", 8.0, 16);
    hits.inc(3);
    lat.sample(2.5);
    lat.sample(7.5);
    dist.sample(20.0);

    std::stringstream ss;
    ckpt::Sink out(ss);
    g.saveState(out);

    // Mutate after the save; loadState must restore the saved values through
    // the *same* objects (components hold borrowed pointers into the group).
    hits.inc(100);
    lat.sample(1e9);
    dist.sample(1e9);

    ckpt::Source in(ss);
    g.loadState(in);
    EXPECT_EQ(hits.value(), 3u);
    EXPECT_EQ(lat.count(), 2u);
    EXPECT_EQ(lat.mean(), 5.0);
    EXPECT_EQ(dist.total(), 1u);
    EXPECT_EQ(dist.maxSample(), 20.0);
}

sim::Task<void>
idleFor(sim::EventQueue &eq, sim::Cycle cycles)
{
    co_await sim::delay(eq, cycles);
}

TEST(Ckpt, SnapshotRequiresQuiescedSoc)
{
    soc::Soc soc(soc::SocConfig::fpga());
    sim::Join j = sim::spawn(idleFor(soc.eq(), 10));
    ASSERT_GT(soc.eq().pending(), 0u);
    std::stringstream ss;
    EXPECT_THROW(soc.snapshot(ss), ckpt::SnapshotError);

    soc.run({j});
    std::stringstream ok;
    EXPECT_NO_THROW(soc.snapshot(ok));
    EXPECT_GT(ok.str().size(), 0u);
}

TEST(Ckpt, ConfigHashIsStructuralOnly)
{
    soc::SocConfig a = soc::SocConfig::fpga();
    soc::SocConfig b = soc::SocConfig::fpga();
    b.name = "renamed";
    b.trace.enabled = true;
    b.fault.seed = 99;
    EXPECT_EQ(ckpt::configHash(a), ckpt::configHash(b));

    soc::SocConfig c = soc::SocConfig::fpga();
    c.l1.size_bytes *= 2;
    EXPECT_NE(ckpt::configHash(a), ckpt::configHash(c));

    soc::SocConfig d = soc::SocConfig::fpga();
    d.num_cores += 1;
    EXPECT_NE(ckpt::configHash(a), ckpt::configHash(d));
}

TEST(Ckpt, ConfigHashResolvesTheKnobsLikeTheSoc)
{
    // Structural knobs (protocol, slice count) and the 0x0 auto mesh must
    // resolve the same way before and after construction.
    soc::SocConfig cfg = soc::SocConfig::simulated(4);
    ASSERT_EQ(cfg.mesh_width, 0u);
    ::setenv("MAPLE_COHERENCE", "msi", 1);
    ::setenv("MAPLE_LLC_SLICES", "4", 1);
    soc::Soc soc(cfg);
    EXPECT_EQ(soc.config().llc_slices, 4u);
    EXPECT_EQ(ckpt::configHash(cfg), ckpt::configHash(soc.config()));
    ::unsetenv("MAPLE_COHERENCE");
    ::unsetenv("MAPLE_LLC_SLICES");
    EXPECT_NE(ckpt::configHash(cfg), ckpt::configHash(soc.config()))
        << "sanity: the knobs must have changed the structure";
}

TEST(Ckpt, RejectsBadMagicVersionConfigAndTruncation)
{
    soc::Soc src(soc::SocConfig::fpga());
    std::stringstream ss;
    src.snapshot(ss);
    const std::string bytes = ss.str();

    {
        std::string m = bytes;
        m[0] = static_cast<char>(m[0] ^ 0x7f);
        std::istringstream is(m);
        soc::Soc dst(soc::SocConfig::fpga());
        EXPECT_THROW(dst.restore(is), ckpt::SnapshotError);
    }
    {
        std::string m = bytes;
        m[8] = static_cast<char>(0x63);  // format version 99
        std::istringstream is(m);
        soc::Soc dst(soc::SocConfig::fpga());
        EXPECT_THROW(dst.restore(is), ckpt::SnapshotError);
    }
    {
        soc::SocConfig cfg = soc::SocConfig::fpga();
        cfg.llc.assoc *= 2;  // structurally different SoC
        std::istringstream is(bytes);
        soc::Soc dst(cfg);
        EXPECT_THROW(dst.restore(is), ckpt::SnapshotError);
    }
    {
        std::istringstream is(bytes.substr(0, bytes.size() / 2));
        soc::Soc dst(soc::SocConfig::fpga());
        EXPECT_THROW(dst.restore(is), ckpt::SnapshotError);
    }
}

TEST(Ckpt, ChecksumFooterCatchesCorruptionAndTruncation)
{
    soc::Soc src(soc::SocConfig::fpga());
    std::stringstream ss;
    src.snapshot(ss);
    const std::string bytes = ss.str();

    // Pristine stream restores.
    {
        std::istringstream is(bytes);
        soc::Soc dst(soc::SocConfig::fpga());
        EXPECT_NO_THROW(dst.restore(is));
    }
    // A flipped payload byte past the header must surface as BadChecksum
    // (structural checks can't see a value-only flip; the footer can).
    // DRAM fill data sits in the large middle of the stream.
    {
        std::string m = bytes;
        m[m.size() / 2] = static_cast<char>(m[m.size() / 2] ^ 0x01);
        std::istringstream is(m);
        soc::Soc dst(soc::SocConfig::fpga());
        EXPECT_THROW(dst.restore(is), ckpt::SnapshotError);
    }
    // A corrupted footer (the recorded hash itself) is a BadChecksum.
    {
        std::string m = bytes;
        m.back() = static_cast<char>(m.back() ^ 0x5a);
        std::istringstream is(m);
        soc::Soc dst(soc::SocConfig::fpga());
        EXPECT_THROW(dst.restore(is), ckpt::SnapshotError::BadChecksum);
    }
    // A stream cut exactly at a section boundary (footer dropped) used to
    // look complete; now it is a typed truncation error.
    {
        // 4 (tag) + 8 (len) + 8 (hash) = the 20-byte footer.
        std::istringstream is(bytes.substr(0, bytes.size() - 20));
        soc::Soc dst(soc::SocConfig::fpga());
        EXPECT_THROW(dst.restore(is), ckpt::SnapshotError::BadChecksum);
    }
}

// ---------------------------------------------------------------------------
// Bit-identity: the quickstart gather, decoupled through MAPLE, with a
// snapshot taken at the phase boundary after queue setup.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kN = 1024;

soc::SocConfig
tracedConfig()
{
    soc::SocConfig cfg = soc::SocConfig::fpga();
    cfg.trace.enabled = true;
    cfg.trace.report_to_stderr = false;
    cfg.trace.sample_interval = 100;
    return cfg;
}

struct GatherAddrs {
    sim::Addr a = 0, b = 0, out = 0;
};

/** Allocate and fill the gather inputs; run INIT/OPEN on queue 0. */
GatherAddrs
setupGather(soc::Soc &soc, os::Process &proc, core::MapleApi &api)
{
    GatherAddrs at;
    at.a = proc.alloc(kN * 4, "A");
    at.b = proc.alloc(kN * 4, "B");
    at.out = proc.alloc(kN * 4, "out");
    for (std::uint32_t i = 0; i < kN; ++i) {
        proc.writeScalar<std::uint32_t>(at.a + 4 * i, i * 3);
        proc.writeScalar<std::uint32_t>(at.b + 4 * i, (i * 2654435761u) % kN);
    }
    auto setup = [&](cpu::Core &c) -> sim::Task<void> {
        co_await api.init(c, 1, 32, 4);
        bool ok = co_await api.open(c, 0);
        MAPLE_ASSERT(ok, "queue open failed");
    };
    soc.run({sim::spawn(setup(soc.core(0)))});
    return at;
}

sim::Task<void>
accessThread(cpu::Core &core, core::MapleApi &api, GatherAddrs at)
{
    for (std::uint32_t i = 0; i < kN; ++i) {
        std::uint64_t idx = co_await core.load(at.b + 4 * i, 4);
        co_await api.producePtr(core, 0, at.a + 4 * idx);
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

void
runGather(soc::Soc &soc, core::MapleApi &api, GatherAddrs at)
{
    soc.run({sim::spawn(accessThread(soc.core(0), api, at)),
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

TEST(Ckpt, RestoreThenRunIsByteIdenticalToUninterruptedRun)
{
    std::string warm_image;     // snapshot at the setup/measure boundary
    std::string final_a;        // end-of-run snapshot, uninterrupted machine
    sim::Cycle cycles_a = 0;
    GatherAddrs at;
    {
        soc::Soc soc(tracedConfig());
        os::Process &proc = soc.createProcess("quickstart");
        core::MapleApi api = core::MapleApi::attach(proc, soc.maple());
        at = setupGather(soc, proc, api);

        std::stringstream warm;
        soc.snapshot(warm);
        warm_image = warm.str();

        runGather(soc, api, at);
        cycles_a = soc.eq().now();
        checkGatherOutput(proc, at);

        std::stringstream fin;
        soc.snapshot(fin);
        final_a = fin.str();
    }

    {
        soc::Soc soc(tracedConfig());
        std::istringstream warm(warm_image);
        soc.restore(warm);
        EXPECT_GT(soc.eq().now(), 0u) << "restore must resume the clock";

        ASSERT_EQ(soc.kernel().processes().size(), 1u);
        os::Process &proc = *soc.kernel().processes()[0];
        // Re-attach re-runs the host-side wiring (MMIO map, device MMU,
        // driver fault handler); all of it is idempotent against restored
        // state, so the warm device TLB survives.
        core::MapleApi api = core::MapleApi::attach(proc, soc.maple());

        runGather(soc, api, at);
        EXPECT_EQ(soc.eq().now(), cycles_a);
        checkGatherOutput(proc, at);

        std::stringstream fin;
        soc.snapshot(fin);
        EXPECT_EQ(fin.str(), final_a)
            << "restored-then-run machine state diverged from the "
               "uninterrupted run";
    }
}

TEST(Ckpt, SnapshotDoesNotPerturbTheRun)
{
    // Reference: run the gather with no snapshot anywhere.
    sim::Cycle ref_cycles = 0;
    {
        soc::Soc soc(soc::SocConfig::fpga());
        os::Process &proc = soc.createProcess("quickstart");
        core::MapleApi api = core::MapleApi::attach(proc, soc.maple());
        GatherAddrs at = setupGather(soc, proc, api);
        runGather(soc, api, at);
        ref_cycles = soc.eq().now();
    }
    // Same run, snapshotting at the phase boundary (and discarding it).
    {
        soc::Soc soc(soc::SocConfig::fpga());
        os::Process &proc = soc.createProcess("quickstart");
        core::MapleApi api = core::MapleApi::attach(proc, soc.maple());
        GatherAddrs at = setupGather(soc, proc, api);
        std::stringstream ss;
        soc.snapshot(ss);
        runGather(soc, api, at);
        EXPECT_EQ(soc.eq().now(), ref_cycles);
    }
}

// ---------------------------------------------------------------------------
// Resilience state: poisoned ways, MCA banks, backing poison and the scrub
// cursor all ride the snapshot (Section::Resil) and restore into any host
// thread count.
// ---------------------------------------------------------------------------

soc::SocConfig
resilCkptConfig()
{
    soc::SocConfig cfg = soc::SocConfig::fpga();
    cfg.coherence.mode = mem::CoherenceMode::Msi;
    cfg.resil.ecc = true;
    cfg.resil.scrub_interval = 2000;
    cfg.fault.seed = 21;
    // L1 severity-1 flips (correctable bubbles) and directory severity-2
    // flips (corrupt sharer vectors, MCA records, scrub work). Data-path
    // poison classes stay off: the gather runs MAPLE without the recovery
    // driver, and a poisoned queue slot would zero the output.
    cfg.fault.bitflip_l1 = {0.01, 1};
    cfg.fault.bitflip_dir = {0.03, 2};
    return cfg;
}

/** Everything Section::Resil must carry across a restore. */
struct ResilFingerprint {
    std::uint64_t corrected, uncorrectable, containments, retired, repairs;
    std::uint64_t cursor;
    std::size_t backing;
    std::vector<std::uint64_t> mca_counts;

    bool operator==(const ResilFingerprint &) const = default;

    static ResilFingerprint
    of(const mem::ResilManager &r)
    {
        ResilFingerprint fp{r.correctedTotal(), r.uncorrectableTotal(),
                            r.containments(),  r.retiredPages(),
                            r.scrubRepairs(),  r.scrubCursor(),
                            r.backingPoisonedLines(),
                            {}};
        for (unsigned t = 0; t < r.numTiles(); ++t)
            fp.mca_counts.push_back(r.mca(t).count);
        return fp;
    }
};

TEST(Ckpt, ResilStateRoundTripsThroughSnapshot)
{
    std::string warm_image, final_a;
    sim::Cycle cycles_a = 0;
    ResilFingerprint fp_warm{};
    GatherAddrs at;
    {
        soc::Soc soc(resilCkptConfig());
        os::Process &proc = soc.createProcess("quickstart");
        core::MapleApi api = core::MapleApi::attach(proc, soc.maple());
        at = setupGather(soc, proc, api);
        runGather(soc, api, at);  // phase 1: accumulate resilience state

        ASSERT_NE(soc.resil(), nullptr);
        // Pin the serialization freight the traffic can't be relied on to
        // leave behind: a sticky backing-poisoned line (parked on an
        // untouched frame so it never enters the data path) and a latched
        // MCA bank.
        soc.resil()->markBackingPoisoned(soc.config().dram_bytes - 64);
        soc.resil()->recordMca(0, mem::ResilStructure::Dram,
                               fault::FaultClass::BitFlipDram,
                               soc.config().dram_bytes - 64);
        fp_warm = ResilFingerprint::of(*soc.resil());
        EXPECT_GE(fp_warm.backing, 1u);
        EXPECT_GE(fp_warm.mca_counts[0], 1u);
        EXPECT_GT(fp_warm.corrected + fp_warm.uncorrectable, 0u)
            << "the snapshot must capture non-trivial resilience state";
        std::stringstream warm;
        soc.snapshot(warm);
        warm_image = warm.str();

        runGather(soc, api, at);  // phase 2
        cycles_a = soc.eq().now();
        checkGatherOutput(proc, at);
        std::stringstream fin;
        soc.snapshot(fin);
        final_a = fin.str();
    }
    {
        // Restore into a fresh SoC: the resilience state must arrive intact
        // and the resumed run must stay byte-identical.
        soc::Soc soc(resilCkptConfig());
        std::istringstream warm(warm_image);
        soc.restore(warm);
        ASSERT_NE(soc.resil(), nullptr);
        EXPECT_EQ(ResilFingerprint::of(*soc.resil()), fp_warm);

        os::Process &proc = *soc.kernel().processes()[0];
        core::MapleApi api = core::MapleApi::attach(proc, soc.maple());
        runGather(soc, api, at);
        EXPECT_EQ(soc.eq().now(), cycles_a);
        checkGatherOutput(proc, at);
        std::stringstream fin;
        soc.snapshot(fin);
        EXPECT_EQ(fin.str(), final_a)
            << "resil-enabled restore-then-run diverged";
    }
    {
        // The Resil section is a runtime variant axis: the same image
        // restores into a resilience-disabled SoC (section skipped, poison
        // bits inert) without error.
        soc::SocConfig cfg = resilCkptConfig();
        cfg.resil = mem::ResilConfig{};
        cfg.fault = fault::FaultConfig{};
        soc::Soc soc(cfg);
        std::istringstream warm(warm_image);
        soc.restore(warm);
        EXPECT_EQ(soc.resil(), nullptr);
        os::Process &proc = *soc.kernel().processes()[0];
        checkGatherOutput(proc, at);  // phase-1 results restored intact
        // Core traffic over possibly-poisoned restored ways: without a
        // resilience model the poison bit is inert metadata — loads return
        // the (correct) simulated data and the run completes.
        auto sweep = [&](cpu::Core &c) -> sim::Task<void> {
            for (std::uint32_t i = 0; i < kN; ++i) {
                std::uint64_t v = co_await c.load(at.a + 4 * i, 4);
                EXPECT_EQ(v, i * 3ull);
            }
        };
        soc.run({sim::spawn(sweep(soc.core(0)))});
    }
}

TEST(Ckpt, TraceRoundTripsThroughSnapshot)
{
    std::string json_a, csv_a;
    std::string warm_image;
    GatherAddrs at;
    {
        soc::Soc soc(tracedConfig());
        os::Process &proc = soc.createProcess("quickstart");
        core::MapleApi api = core::MapleApi::attach(proc, soc.maple());
        at = setupGather(soc, proc, api);
        std::stringstream warm;
        soc.snapshot(warm);
        warm_image = warm.str();
        runGather(soc, api, at);

        std::ostringstream js, cs;
        soc.tracer()->writeJson(js);
        soc.tracer()->writeCsv(cs);
        json_a = js.str();
        csv_a = cs.str();
    }
    {
        soc::Soc soc(tracedConfig());
        std::istringstream warm(warm_image);
        soc.restore(warm);
        os::Process &proc = *soc.kernel().processes()[0];
        core::MapleApi api = core::MapleApi::attach(proc, soc.maple());
        runGather(soc, api, at);

        std::ostringstream js, cs;
        soc.tracer()->writeJson(js);
        soc.tracer()->writeCsv(cs);
        EXPECT_EQ(js.str(), json_a);
        EXPECT_EQ(cs.str(), csv_a);
    }
}

}  // namespace
