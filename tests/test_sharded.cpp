/**
 * @file
 * Tests for the sharded multi-threaded simulation engine (sim/sharded) and
 * its integrations: SocGrid multi-chip runs and cross-domain link ports.
 *
 * The load-bearing guarantee is *bit-identity across host thread counts*:
 * --threads=N must produce byte-for-byte the same simulation as
 * --threads=1. As in test_ckpt, the strongest form of that check is
 * comparing full end-of-run snapshots — any diverged counter, cache line,
 * RNG draw or queue slot shows up. Engine-level tests additionally pin the
 * deterministic cross-domain merge order (cycle, src domain, ticket) and
 * the conservative-window contract (in-window posts must land beyond the
 * window, zero-lookahead channels are rejected).
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#ifdef __SANITIZE_ADDRESS__
#define MAPLE_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MAPLE_TEST_ASAN 1
#endif
#endif
#ifdef MAPLE_TEST_ASAN
#include <sanitizer/lsan_interface.h>
#endif

#include "harness/scenario.hpp"
#include "mem/port.hpp"
#include "mem/shard_port.hpp"
#include "sim/coro.hpp"
#include "sim/error.hpp"
#include "sim/sharded.hpp"
#include "soc/grid.hpp"
#include "soc/soc.hpp"

using namespace maple;
using sim::Cycle;
using sim::EventQueue;
using sim::ShardedEngine;

namespace {

// ---------------------------------------------------------------------------
// Engine core: windows, merge order, conservative contract
// ---------------------------------------------------------------------------

TEST(ShardedEngine, SingleDomainMatchesPlainQueueRun)
{
    // The engine path over one domain must execute the exact same event
    // sequence as a plain eq.run(): same executed count, same final clock,
    // same order.
    auto seed = [](EventQueue &eq, std::vector<Cycle> &fired) {
        for (Cycle c : {5u, 1u, 1u, 900u, 70'000u}) {
            eq.schedule(c, [&fired, &eq] { fired.push_back(eq.now()); });
        }
        eq.schedule(10, [&eq, &fired] {
            eq.scheduleIn(3, [&fired, &eq] { fired.push_back(eq.now()); });
        });
    };
    EventQueue plain;
    std::vector<Cycle> plain_fired;
    seed(plain, plain_fired);
    EXPECT_TRUE(plain.run());

    EventQueue sharded;
    std::vector<Cycle> sharded_fired;
    seed(sharded, sharded_fired);
    ShardedEngine engine;
    engine.addDomain(sharded);
    EXPECT_TRUE(engine.run());

    EXPECT_EQ(sharded_fired, plain_fired);
    EXPECT_EQ(sharded.now(), plain.now());
    EXPECT_EQ(sharded.executed(), plain.executed());
    EXPECT_GT(engine.quanta(), 1u) << "70k-cycle span needs several quanta";
}

TEST(ShardedEngine, CrossDomainMergeOrderIsCycleSrcTicket)
{
    constexpr Cycle kLat = 16;
    ShardedEngine engine;
    EventQueue eq0, eq1, eq2;
    engine.addDomain(eq0, "a");
    engine.addDomain(eq1, "b");
    engine.addDomain(eq2, "c");
    engine.declareChannelLatency(kLat);

    // Domains 0 and 1 both post to domain 2 inside the same window. The
    // arrival order at domain 2 must be (cycle, src, ticket) regardless of
    // which domain's window ran first.
    std::vector<std::string> order;
    auto tag = [&order](std::string t) {
        return [&order, t = std::move(t)] { order.push_back(t); };
    };
    // Post from domain 1 first in wall-clock terms (it is seeded earlier in
    // its own queue) to prove src id, not post time, decides ties.
    eq1.schedule(1, [&] {
        engine.post(1, 2, 100, tag("src1#0"));
        engine.post(1, 2, 99, tag("src1-early"));
    });
    eq0.schedule(2, [&] {
        engine.post(0, 2, 100, tag("src0#0"));
        engine.post(0, 2, 100, tag("src0#1"));
    });
    EXPECT_TRUE(engine.run());
    EXPECT_EQ(order, (std::vector<std::string>{"src1-early", "src0#0",
                                               "src0#1", "src1#0"}));
    EXPECT_EQ(engine.messagesMerged(), 4u);
    EXPECT_EQ(eq2.now(), 100u);
}

TEST(ShardedEngine, ExternalPostsDeliverInTicketOrder)
{
    ShardedEngine engine;
    EventQueue eq;
    engine.addDomain(eq);
    std::vector<int> order;
    engine.post(ShardedEngine::kExternalSrc, 0, 10, [&] { order.push_back(1); });
    engine.post(ShardedEngine::kExternalSrc, 0, 10, [&] { order.push_back(2); });
    engine.post(ShardedEngine::kExternalSrc, 0, 5, [&] { order.push_back(0); });
    EXPECT_EQ(engine.pendingMessages(), 3u);
    EXPECT_TRUE(engine.run());
    EXPECT_EQ(engine.pendingMessages(), 0u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(ShardedEngine, HostPostBehindTheDestinationClockIsClampedUp)
{
    // Between runs the domain clocks rest at their own drain points; a post
    // computed from a lagging clock must still deliver (at the destination's
    // clock), not throw "delivered into the past".
    ShardedEngine engine;
    EventQueue lagging, ahead;
    engine.addDomain(lagging);
    engine.addDomain(ahead);
    ahead.schedule(500, [] {});
    EXPECT_TRUE(engine.run());
    ASSERT_EQ(ahead.now(), 500u);
    ASSERT_EQ(lagging.now(), 0u);

    Cycle delivered = 0;
    engine.post(0, 1, lagging.now() + 10, [&] { delivered = ahead.now(); });
    EXPECT_TRUE(engine.run());
    EXPECT_EQ(delivered, 500u);
}

TEST(ShardedEngine, InWindowPostInsideTheWindowIsRejected)
{
    ShardedEngine engine;
    EventQueue eq0, eq1;
    engine.addDomain(eq0);
    engine.addDomain(eq1);
    engine.declareChannelLatency(16);
    // A post that lands inside the current window would let one domain's
    // window depend on another's — the conservative contract forbids it.
    eq0.schedule(1, [&] { engine.post(0, 1, eq0.now() + 1, [] {}); });
    EXPECT_THROW(engine.run(), sim::ConfigError);
}

TEST(ShardedEngine, ZeroLatencyChannelIsRejected)
{
    ShardedEngine engine;
    EXPECT_THROW(engine.declareChannelLatency(0), sim::ConfigError);
}

TEST(ShardedEngine, QuantumBeyondLookaheadIsRejected)
{
    ShardedEngine engine;
    EventQueue eq;
    engine.addDomain(eq);
    engine.declareChannelLatency(8);
    eq.schedule(1, [] {});
    ShardedEngine::RunOptions ro;
    ro.quantum = 9;  // > lookahead: a window could outrun the channel
    EXPECT_THROW(engine.run(ro), sim::ConfigError);
    ro.quantum = 8;
    EXPECT_TRUE(engine.run(ro));
}

TEST(ShardedEngine, MaxCyclesEarlyStopMirrorsEventQueueContract)
{
    ShardedEngine engine;
    EventQueue eq0, eq1;
    engine.addDomain(eq0);
    engine.addDomain(eq1);
    bool fired = false;
    eq0.schedule(1000, [&] { fired = true; });

    ShardedEngine::RunOptions ro;
    ro.max_cycles = 100;
    EXPECT_FALSE(engine.run(ro));
    EXPECT_FALSE(fired);
    // Early stop advances a non-drained domain's clock to the bound, exactly
    // like EventQueue::run(max_cycles) — continuous time for back-to-back
    // runs. An idle queue is a no-op there, so the empty domain stays put.
    EXPECT_EQ(eq0.now(), 100u);
    EXPECT_EQ(eq1.now(), 0u);

    EXPECT_TRUE(engine.run());
    EXPECT_TRUE(fired);
    EXPECT_EQ(eq0.now(), 1000u);
}

TEST(ShardedEngine, DomainErrorsSurfaceInDomainIdOrder)
{
    ShardedEngine engine;
    EventQueue eq0, eq1;
    engine.addDomain(eq0, "first");
    engine.addDomain(eq1, "second");
    // Both domains throw in the same window; the surfaced error must be the
    // lowest domain id's, independent of scheduling.
    eq1.schedule(1, [] { throw std::runtime_error("second"); });
    eq0.schedule(1, [] { throw std::runtime_error("first"); });
    try {
        engine.run();
        FAIL() << "expected the domain error to propagate";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "first");
    }
}

TEST(ShardedEngine, BoundaryHookSeesQuiescedWindowEnds)
{
    ShardedEngine engine;
    EventQueue eq;
    engine.addDomain(eq);
    eq.schedule(5, [] {});
    eq.schedule(200'000, [] {});
    std::vector<Cycle> ends;
    engine.setBoundaryHook([&](Cycle end) { ends.push_back(end); });
    EXPECT_TRUE(engine.run());
    ASSERT_EQ(ends.size(), engine.quanta());
    for (size_t i = 1; i < ends.size(); ++i)
        EXPECT_LT(ends[i - 1], ends[i]);
    EXPECT_GE(ends.back(), 200'000u);
}

// ---------------------------------------------------------------------------
// Determinism: the same message storm, any thread count
// ---------------------------------------------------------------------------

struct StormState {
    std::vector<std::unique_ptr<EventQueue>> eqs;
    std::vector<std::uint64_t> hash;  ///< per-domain execution fingerprint
};

void
stormToken(ShardedEngine &engine, StormState &st, unsigned dom, unsigned hops)
{
    EventQueue &eq = *st.eqs[dom];
    std::uint64_t &h = st.hash[dom];
    h = (h ^ (eq.now() * 0x9e3779b97f4a7c15ull + dom)) * 0x100000001b3ull;
    // Some purely local follow-up work...
    if (hops % 3 == 0)
        eq.scheduleIn(1 + h % 7,
                      [&st, dom] { st.hash[dom] ^= st.eqs[dom]->now(); });
    // ...and a cross-domain hop until the token dies.
    if (hops < 48) {
        unsigned dst = (dom + 1 + hops % 2) % static_cast<unsigned>(st.eqs.size());
        Cycle when = eq.now() + 20 + h % 9;
        engine.post(dom, dst, when, [&engine, &st, dst, hops] {
            stormToken(engine, st, dst, hops + 1);
        });
    }
}

/** Fingerprints of a 4-domain message storm driven by @p threads workers. */
std::vector<std::uint64_t>
runStorm(unsigned threads)
{
    constexpr unsigned kDomains = 4;
    ShardedEngine engine;
    StormState st;
    for (unsigned d = 0; d < kDomains; ++d) {
        st.eqs.push_back(std::make_unique<EventQueue>());
        engine.addDomain(*st.eqs.back());
        st.hash.push_back(0x243f6a8885a308d3ull + d);
    }
    engine.declareChannelLatency(20);
    for (unsigned d = 0; d < kDomains; ++d) {
        for (unsigned t = 0; t < 6; ++t) {
            engine.post(ShardedEngine::kExternalSrc, d, 1 + d + 3 * t,
                        [&engine, &st, d] { stormToken(engine, st, d, 0); });
        }
    }
    ShardedEngine::RunOptions ro;
    ro.threads = threads;
    EXPECT_TRUE(engine.run(ro));
    std::vector<std::uint64_t> fp = st.hash;
    for (const auto &eq : st.eqs) {
        fp.push_back(eq->now());
        fp.push_back(eq->executed());
    }
    fp.push_back(engine.messagesMerged());
    fp.push_back(engine.quanta());
    return fp;
}

TEST(ShardedEngine, MessageStormIsByteIdenticalAcrossThreadCounts)
{
    std::vector<std::uint64_t> ref = runStorm(1);
    EXPECT_EQ(runStorm(2), ref);
    EXPECT_EQ(runStorm(4), ref);
    EXPECT_EQ(runStorm(16), ref) << "threads clamp to the domain count";
}

// ---------------------------------------------------------------------------
// CrossDomainPort: request/response across the BSP boundary
// ---------------------------------------------------------------------------

TEST(CrossDomainPort, RoundTripCostsTwoLinkHopsPlusService)
{
    constexpr Cycle kLink = 32;
    ShardedEngine engine;
    EventQueue eq0, eq1;
    engine.addDomain(eq0);
    engine.addDomain(eq1);
    mem::FixedLatencyMem target(eq1, 8);
    mem::CrossDomainPort link(engine, 0, eq0, 1, eq1, target, kLink);
    EXPECT_EQ(link.linkLatency(), kLink);
    EXPECT_EQ(engine.lookahead(), kLink);

    Cycle done_at = 0;
    auto client = [&]() -> sim::Task<void> {
        co_await sim::delay(eq0, 3);
        mem::MemRequest req = mem::MemRequest::make(
            eq0, mem::RequesterClass::Core, 0, 0x1000, 16,
            mem::AccessKind::Read);
        co_await link.request(req);
        done_at = eq0.now();
    };
    sim::Join j = sim::spawn(client());
    EXPECT_TRUE(engine.run());
    EXPECT_TRUE(j.done());
    j.get();
    // Issue at 3, one hop out (32), 8 cycles of service, one hop back (32).
    EXPECT_EQ(done_at, 3u + kLink + 8u + kLink);
}

// ---------------------------------------------------------------------------
// SocGrid: multi-chip runs with cross-chip link traffic
// ---------------------------------------------------------------------------

constexpr unsigned kChips = 3;

harness::ScenarioSpec
chipSpec(unsigned chip)
{
    harness::ScenarioSpec s;
    s.rows = 96;
    s.warm_rows = 24;
    s.seed = 1 + chip;  // distinct dataset per chip
    return s;
}

/** Remote reads against the next chip's LLC, interleaved with the kernel. */
sim::Task<void>
crossTraffic(soc::SocGrid &grid, mem::CrossDomainPort &link, unsigned chip)
{
    EventQueue &eq = grid.soc(chip).eq();
    for (int i = 0; i < 12; ++i) {
        mem::MemRequest req = mem::MemRequest::make(
            eq, mem::RequesterClass::Core, chip, 4096 + 256 * i, 16,
            mem::AccessKind::Read);
        co_await link.request(req);
    }
}

struct GridOutcome {
    std::vector<std::string> snaps;  ///< one full snapshot per chip
    std::vector<std::uint64_t> words;

    bool operator==(const GridOutcome &) const = default;
};

GridOutcome
runGrid(unsigned threads)
{
    soc::SocGridConfig gc = soc::SocGridConfig::uniform(
        soc::SocConfig::fpga(), kChips);
    gc.host_threads = threads;
    soc::SocGrid grid(gc);
    std::vector<mem::CrossDomainPort *> links;
    for (unsigned c = 0; c < kChips; ++c)
        links.push_back(&grid.linkPort(c, (c + 1) % kChips));
    for (unsigned c = 0; c < kChips; ++c)
        harness::warmScenario(grid.soc(c), chipSpec(c));

    std::vector<Cycle> starts;
    std::vector<sim::Join> joins;
    for (unsigned c = 0; c < kChips; ++c) {
        starts.push_back(grid.soc(c).eq().now());
        for (sim::Join &j :
             harness::spawnScenarioDoall(grid.soc(c), chipSpec(c)))
            joins.push_back(std::move(j));
        joins.push_back(sim::spawn(crossTraffic(grid, *links[c], c)));
    }
    GridOutcome out;
    out.words.push_back(grid.run(std::move(joins)));
    for (unsigned c = 0; c < kChips; ++c) {
        harness::ScenarioResult r = harness::collectScenarioResult(
            grid.soc(c), chipSpec(c), starts[c]);
        EXPECT_TRUE(r.result.valid) << "chip " << c;
        out.words.push_back(r.result.checksum);
        out.words.push_back(r.end_cycle);
        std::stringstream fin;
        grid.snapshot(c, fin);
        out.snaps.push_back(fin.str());
    }
    out.words.push_back(grid.engine().messagesMerged());
    return out;
}

TEST(ShardedGrid, MultiChipRunIsByteIdenticalAcrossThreadCounts)
{
    GridOutcome ref = runGrid(1);
    EXPECT_GT(ref.words.back(), 0u) << "cross-chip traffic must have flowed";
    EXPECT_EQ(runGrid(2), ref);
    EXPECT_EQ(runGrid(4), ref);
}

TEST(ShardedGrid, SnapshotRestoreRunMatchesUninterruptedRun)
{
    // Grid A: warm, snapshot every chip at the phase boundary, then measure.
    std::vector<std::string> warm_images;
    GridOutcome direct;
    {
        soc::SocGridConfig gc = soc::SocGridConfig::uniform(
            soc::SocConfig::fpga(), kChips);
        soc::SocGrid grid(gc);
        for (unsigned c = 0; c < kChips; ++c)
            harness::warmScenario(grid.soc(c), chipSpec(c));
        for (unsigned c = 0; c < kChips; ++c) {
            std::stringstream ss;
            grid.snapshot(c, ss);
            warm_images.push_back(ss.str());
        }
        std::vector<sim::Join> joins;
        for (unsigned c = 0; c < kChips; ++c)
            for (sim::Join &j :
                 harness::spawnScenarioDoall(grid.soc(c), chipSpec(c)))
                joins.push_back(std::move(j));
        grid.run(std::move(joins));
        for (unsigned c = 0; c < kChips; ++c) {
            std::stringstream fin;
            grid.snapshot(c, fin);
            direct.snaps.push_back(fin.str());
            direct.words.push_back(grid.soc(c).eq().now());
        }
    }
    // Grid B: restore every chip from the warm images and run the same
    // measure phase with 2 host threads.
    {
        soc::SocGridConfig gc = soc::SocGridConfig::uniform(
            soc::SocConfig::fpga(), kChips);
        gc.host_threads = 2;
        soc::SocGrid grid(gc);
        for (unsigned c = 0; c < kChips; ++c) {
            std::istringstream ss(warm_images[c]);
            grid.restore(c, ss);
            EXPECT_GT(grid.soc(c).eq().now(), 0u);
        }
        std::vector<sim::Join> joins;
        for (unsigned c = 0; c < kChips; ++c)
            for (sim::Join &j :
                 harness::spawnScenarioDoall(grid.soc(c), chipSpec(c)))
                joins.push_back(std::move(j));
        grid.run(std::move(joins));
        for (unsigned c = 0; c < kChips; ++c) {
            EXPECT_EQ(grid.soc(c).eq().now(), direct.words[c]) << "chip " << c;
            std::stringstream fin;
            grid.snapshot(c, fin);
            EXPECT_EQ(fin.str(), direct.snaps[c])
                << "restored chip " << c << " diverged";
        }
    }
}

TEST(ShardedGrid, HostThreadsComeFromTheEnvironment)
{
    soc::SocGridConfig gc =
        soc::SocGridConfig::uniform(soc::SocConfig::fpga(), 2);
    gc.host_threads = 3;
    ::setenv("MAPLE_THREADS", "4", 1);
    EXPECT_EQ(soc::SocGrid(gc).config().host_threads, 4u);
    ::setenv("MAPLE_THREADS", "not-a-number", 1);
    EXPECT_THROW(soc::SocGrid grid(gc), sim::ConfigError);
    ::setenv("MAPLE_THREADS", "4294967296", 1);  // 2^32 must not wrap to 0
    EXPECT_THROW(soc::SocGrid grid(gc), sim::ConfigError);
    ::unsetenv("MAPLE_THREADS");
    EXPECT_EQ(soc::SocGrid(gc).config().host_threads, 3u)
        << "unset keeps the configured count";
}

TEST(ShardedGrid, DeadlockReportsNameTheStuckChip)
{
#ifdef MAPLE_TEST_ASAN
    // The stuck coroutine's frame is stranded by design once the bounded
    // run gives up on it.
    __lsan::ScopedDisabler no_leak_check;
#endif
    soc::SocConfig proto = soc::SocConfig::fpga();
    proto.watchdog.enabled = false;
    soc::SocGridConfig gc = soc::SocGridConfig::uniform(proto, 2);
    soc::SocGrid grid(gc);
    auto stuck = [&]() -> sim::Task<void> {
        co_await sim::delay(grid.soc(1).eq(), 1'000'000);
    };
    std::vector<sim::Join> joins;
    joins.push_back(sim::spawn(stuck()));
    try {
        grid.run(std::move(joins), 1'000);  // bound well short of the delay
        FAIL() << "expected DeadlockError";
    } catch (const sim::DeadlockError &e) {
        EXPECT_NE(std::string(e.what()).find("(fpga).1"), std::string::npos)
            << "diagnostic names the chip with pending work: " << e.what();
    }
}

}  // namespace
