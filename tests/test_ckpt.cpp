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
#include "harness/scenario.hpp"
#include "mem/coherence.hpp"
#include "mem/resil.hpp"
#include "sim/coro.hpp"
#include "sim/fnv.hpp"
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
    g.state(out);

    // Mutate after the save; restoring must put the saved values back through
    // the *same* objects (components hold borrowed pointers into the group).
    hits.inc(100);
    lat.sample(1e9);
    dist.sample(1e9);

    ckpt::Source in(ss);
    g.state(in);
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

// ---------------------------------------------------------------------------
// Pinned images. Every other snapshot test compares a binary with its own
// snapshots, so it still passes when the writer and the reader change
// together. These rows pin the bytes themselves, across the configurations
// that reach every section: tracing, msi with extra LLC slices and the
// checker, resilience with fault streams, and non-fifo arbiters.
// ---------------------------------------------------------------------------

/** Snapshot taken after the warm and measure phases of a maple scenario. */
std::string
scenarioImage(const soc::SocConfig &cfg, std::uint32_t rows)
{
    soc::Soc soc(cfg);
    harness::ScenarioSpec spec;
    spec.rows = rows;
    spec.technique = "maple";
    harness::warmScenario(soc, spec);
    harness::measureScenario(soc, spec);
    std::stringstream ss;
    soc.snapshot(ss);
    return ss.str();
}

TEST(Ckpt, SnapshotImagesArePinned)
{
    // The image bytes are the snapshot format. These constants change only
    // together with a ckpt::kFormatVersion bump.
    struct Row {
        const char *name;
        soc::SocConfig cfg;
        std::size_t bytes;
        std::uint64_t fnv;
    };
    soc::SocConfig msi = soc::SocConfig::simulated(4);
    msi.coherence.mode = mem::CoherenceMode::Msi;
    msi.coherence.checker = true;
    msi.llc_slices = 4;
    soc::SocConfig arb = soc::SocConfig::fpga();
    arb.llc_arb = mem::ArbPolicy::RoundRobinByClass;
    arb.dram.arb = mem::ArbPolicy::CorePriority;
    const Row rows[] = {
        {"fpga traced", tracedConfig(), 679623, 0xf6c50ebcd68b2300ull},
        {"simulated(4) msi", msi, 716229, 0x8efbf906f99009afull},
        {"fpga resil", resilCkptConfig(), 240807, 0xc3d6b606ee9b3e93ull},
        {"fpga arbiters", arb, 101820, 0xce02778151e3bf92ull},
    };
    for (const Row &r : rows) {
        SCOPED_TRACE(r.name);
        const std::string image = scenarioImage(r.cfg, 256);
        EXPECT_EQ(image.size(), r.bytes);
        EXPECT_EQ(sim::fnv1a(image), r.fnv)
            << std::hex << "image hashes to 0x" << sim::fnv1a(image);

        soc::Soc again(r.cfg);
        std::istringstream is(image);
        again.restore(is);
        std::stringstream out;
        again.snapshot(out);
        EXPECT_TRUE(out.str() == image)
            << "restore -> snapshot must reproduce the image";
    }
}

// ---------------------------------------------------------------------------
// Section-level probes: corrupt one field, or compare one section.
// ---------------------------------------------------------------------------

/** Payload offset and length of one section of an image. */
struct SectionSpan {
    std::size_t offset = 0;
    std::size_t len = 0;
};

SectionSpan
findSection(const std::string &image, ckpt::Section tag)
{
    std::istringstream is(image);
    ckpt::Source in(is);
    (void)in.u64();  // magic
    (void)in.u32();  // format version
    (void)in.u64();  // config hash
    (void)in.u64();  // cycle
    while (!in.atEof()) {
        const std::uint32_t t = in.u32();
        const std::uint64_t len = in.u64();
        const SectionSpan span{static_cast<std::size_t>(in.pos()),
                               static_cast<std::size_t>(len)};
        if (t == static_cast<std::uint32_t>(tag))
            return span;
        in.skip(len);
    }
    ADD_FAILURE() << "image has no section " << static_cast<std::uint32_t>(tag);
    return {};
}

std::string
sectionBytes(const std::string &image, ckpt::Section tag)
{
    const SectionSpan s = findSection(image, tag);
    return image.substr(s.offset, s.len);
}

std::string
snapshotOf(soc::Soc &soc)
{
    std::stringstream ss;
    soc.snapshot(ss);
    return ss.str();
}

TEST(Ckpt, CorruptLengthPrefixIsATypedError)
{
    soc::Soc src(soc::SocConfig::fpga());
    std::string image = snapshotOf(src);

    // MAPLE 0's payload: u32 device index, u32 queue count, then queue 0's
    // configured and open flags (a byte each), its capacity and entry width
    // (u32 each), and the u64 length prefix of its data slots.
    const SectionSpan maple = findSection(image, ckpt::Section::Maple);
    const std::size_t at = maple.offset + 18;
    ASSERT_LE(at + 8, maple.offset + maple.len);
    auto le = [&image](std::size_t off, int bytes) {
        std::uint64_t v = 0;
        for (int i = 0; i < bytes; ++i)
            v |= std::uint64_t(std::uint8_t(image[off + i])) << (8 * i);
        return v;
    };
    ASSERT_EQ(le(at, 8), le(maple.offset + 10, 4))
        << "queue 0 holds one data slot per entry of its capacity";

    // 2^39 slots is 4 TiB: a restore must reject the length as corrupt
    // instead of allocating for it.
    const std::uint64_t corrupt = 1ull << 39;
    for (int i = 0; i < 8; ++i)
        image[at + i] = static_cast<char>(corrupt >> (8 * i));
    std::istringstream is(image);
    soc::Soc dst(soc::SocConfig::fpga());
    EXPECT_THROW(dst.restore(is), ckpt::SnapshotError);
}

soc::SocConfig
dramFaultConfig(std::uint64_t seed)
{
    soc::SocConfig cfg = soc::SocConfig::fpga();
    cfg.fault.seed = seed;
    cfg.fault.dram = {0.05, 40};
    return cfg;
}

TEST(Ckpt, RestoreIntoAnotherFaultPlanKeepsItsOwnStreams)
{
    const std::string image = scenarioImage(dramFaultConfig(21), 128);
    const std::string fault = sectionBytes(image, ckpt::Section::Fault);
    {
        soc::Soc fresh(dramFaultConfig(21));
        ASSERT_NE(sectionBytes(snapshotOf(fresh), ckpt::Section::Fault), fault)
            << "the run must have drawn from the seed-21 streams";
    }
    {
        // Another plan: the restored injector keeps its own streams,
        // totals and log, which are still those of a fresh seed-22 SoC.
        soc::Soc fresh(dramFaultConfig(22));
        soc::Soc soc(dramFaultConfig(22));
        std::istringstream is(image);
        soc.restore(is);
        EXPECT_EQ(sectionBytes(snapshotOf(soc), ckpt::Section::Fault),
                  sectionBytes(snapshotOf(fresh), ckpt::Section::Fault));
    }
    {
        // The same plan: the section comes back as the image carries it.
        soc::Soc soc(dramFaultConfig(21));
        std::istringstream is(image);
        soc.restore(is);
        EXPECT_EQ(sectionBytes(snapshotOf(soc), ckpt::Section::Fault), fault);
    }
}

}  // namespace
