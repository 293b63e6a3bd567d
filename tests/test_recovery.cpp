/**
 * @file
 * Tests for fault recovery & graceful degradation: the architectural error
 * registers (ErrStatus/ErrCause/ErrAddr/AcceptCount), poison propagation,
 * Quiesce/DeviceReset semantics, the OS recovery driver (retry, replay,
 * degradation to the software queue), typed-error propagation out of
 * detached tasks, deadlock-report fault context, and the timed-op paths
 * under back-to-back timeouts.
 */
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define MAPLE_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MAPLE_TEST_ASAN 1
#endif
#endif
#ifdef MAPLE_TEST_ASAN
#include <sanitizer/lsan_interface.h>
#endif

#include "core/maple_runtime.hpp"
#include "fault/fault.hpp"
#include "os/maple_driver.hpp"
#include "sim/error.hpp"
#include "soc/soc.hpp"

using namespace maple;
using core::Counter;
using core::LoadOp;
using core::MapleApi;
using core::MapleStatus;
using core::StoreOp;

namespace {

struct Fixture {
    soc::Soc soc;
    os::Process &proc;
    MapleApi api;

    explicit Fixture(soc::SocConfig cfg = soc::SocConfig::fpga(),
                     os::RecoveryConfig rc = os::RecoveryConfig{})
        : soc(std::move(cfg)), proc(soc.createProcess("test")),
          api(MapleApi::attach(proc, soc.maple(), rc))
    {
    }
};

}  // namespace

// ---------------------------------------------------------------------------
// Typed-error propagation across coroutine boundaries (detached tasks)
// ---------------------------------------------------------------------------

TEST(DetachedTasks, EscapedFatalErrorSurfacesTypedFromRun)
{
    sim::EventQueue eq;
    auto boom = [](sim::EventQueue &q) -> sim::Task<void> {
        co_await sim::delay(q, 10);
        MAPLE_THROW(sim::FatalError, "detached task exploded");
    };
    sim::spawnDetached(eq, boom(eq));
    // Nobody joins a detached task; the error must still surface as the
    // typed exception from the driving run(), not std::terminate.
    try {
        eq.run();
        FAIL() << "expected sim::FatalError";
    } catch (const sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("detached task exploded"),
                  std::string::npos);
    }
    EXPECT_FALSE(eq.hasTaskError()) << "rethrow must clear the slot";
}

TEST(DetachedTasks, FirstOfSeveralErrorsWins)
{
#ifdef MAPLE_TEST_ASAN
    // The second task's frame is stranded by design: the first error
    // unwinds run() while "second" is still scheduled.
    __lsan::ScopedDisabler no_leak_check;
#endif
    sim::EventQueue eq;
    auto boom = [](sim::EventQueue &q, sim::Cycle at,
                   const char *msg) -> sim::Task<void> {
        co_await sim::delay(q, at);
        throw sim::FatalError(msg);
    };
    sim::spawnDetached(eq, boom(eq, 20, "second"));
    sim::spawnDetached(eq, boom(eq, 10, "first"));
    try {
        eq.run();
        FAIL() << "expected sim::FatalError";
    } catch (const sim::FatalError &e) {
        EXPECT_STREQ(e.what(), "fatal: first");
    }
}

// ---------------------------------------------------------------------------
// Deadlock diagnostics carry recent fault-injection context
// ---------------------------------------------------------------------------

TEST(DeadlockDiagnostics, ReportAppendsRecentInjectedFaults)
{
#ifdef MAPLE_TEST_ASAN
    // The deadlocked consumer's coroutine frame is stranded by design.
    __lsan::ScopedDisabler no_leak_check;
#endif
    soc::SocConfig cfg = soc::SocConfig::fpga();
    cfg.fault.seed = 21;
    cfg.fault.mmio = {0.5, 64};  // the init/open/consume MMIO ops draw
    Fixture f(cfg);
    auto consumer = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 1, 4, 8);
        EXPECT_TRUE(co_await f.api.open(c, 0));
        (void)co_await f.api.consume(c, 0);  // parks forever: no producer
    };
    std::vector<sim::Join> joins;
    joins.push_back(sim::spawn(consumer(f.soc.core(0))));
    try {
        f.soc.run(std::move(joins), 10'000'000);
        FAIL() << "expected sim::DeadlockError";
    } catch (const sim::DeadlockError &e) {
        EXPECT_NE(e.report().find("recent injected faults"), std::string::npos)
            << e.report();
        EXPECT_NE(e.report().find("mmio_delay"), std::string::npos)
            << e.report();
    }
}

// ---------------------------------------------------------------------------
// Timed ops under back-to-back timeouts (S3)
// ---------------------------------------------------------------------------

TEST(TimedOps, BackToBackTimeoutsCountAndStayConsistent)
{
    auto run = []() {
        soc::SocConfig cfg = soc::SocConfig::fpga();
        cfg.fault.seed = 11;
        cfg.fault.mmio = {0.3, 64};  // RNG draws interleave with the timeouts
        Fixture f(cfg);
        std::uint64_t timed_out = 0;
        auto t = [&](cpu::Core &c) -> sim::Task<void> {
            co_await f.api.init(c, 1, 2, 8);
            EXPECT_TRUE(co_await f.api.open(c, 0));
            co_await f.api.setQueueTimeout(c, 0, 2'000);
            // Back-to-back consume timeouts on an empty queue: every one
            // must report TimedOut and leave the queue empty.
            for (int i = 0; i < 4; ++i) {
                MapleStatus st = MapleStatus::Ok;
                std::uint64_t v = co_await f.api.consumeTimed(c, 0, st);
                EXPECT_EQ(st, MapleStatus::TimedOut) << "iteration " << i;
                EXPECT_EQ(v, 0u);
            }
            EXPECT_EQ(co_await f.api.occupancy(c, 0), 0u);
            // Fill the queue, then back-to-back produce timeouts: each
            // drops its value without corrupting the accepted entries.
            EXPECT_TRUE(co_await f.api.produceTimed(c, 0, 1));
            EXPECT_TRUE(co_await f.api.produceTimed(c, 0, 2));
            for (int i = 0; i < 3; ++i)
                EXPECT_FALSE(co_await f.api.produceTimed(c, 0, 90 + i));
            timed_out = co_await f.api.readCounter(c, Counter::TimedOutOps);
            EXPECT_EQ(co_await f.api.occupancy(c, 0), 2u);
            EXPECT_EQ(co_await f.api.consume(c, 0), 1u);
            EXPECT_EQ(co_await f.api.consume(c, 0), 2u);
            EXPECT_EQ(co_await f.api.occupancy(c, 0), 0u);
            EXPECT_EQ(co_await f.api.queueStatus(c, 0), MapleStatus::Ok);
        };
        std::vector<sim::Join> joins;
        joins.push_back(sim::spawn(t(f.soc.core(0))));
        sim::Cycle cycles = f.soc.run(std::move(joins), 50'000'000);
        return std::pair<sim::Cycle, std::uint64_t>(cycles, timed_out);
    };
    auto [c1, t1] = run();
    auto [c2, t2] = run();
    EXPECT_EQ(t1, 7u) << "4 consume + 3 produce timeouts";
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(c1, c2) << "timeout retries must not perturb the RNG streams";
}

// ---------------------------------------------------------------------------
// Architectural error registers & poison propagation
// ---------------------------------------------------------------------------

TEST(ErrorRegisters, HardFaultLatchesPoisonsAndResetClears)
{
    soc::SocConfig cfg = soc::SocConfig::fpga();
    cfg.fault.seed = 3;
    cfg.fault.hard_spad = {1.0, 1};  // every scratchpad fill poisons
    Fixture f(cfg);
    unsigned notified = 0;
    f.soc.maple().setErrorCallback([&] { ++notified; });
    bool done = false;
    auto t = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 1, 4, 8);
        EXPECT_TRUE(co_await f.api.open(c, 0));
        sim::Addr a = f.proc.alloc(8, "A");
        f.proc.writeScalar<std::uint64_t>(a, 42);
        co_await f.api.producePtr(c, 0, a);
        co_await c.storeFence();
        co_await sim::delay(f.soc.eq(), 5'000);  // let the fetch poison

        std::uint64_t errstat =
            co_await c.load(core::encodeLoad(f.api.base(), 0, LoadOp::ErrStatus));
        EXPECT_EQ(errstat & 1, 1u) << "error latched";
        EXPECT_EQ((errstat >> 1) & 1, 0u) << "not quiesced";
        EXPECT_EQ((errstat >> 8) & 0xff, 1u) << "one hard fault";
        EXPECT_EQ(co_await c.load(
                      core::encodeLoad(f.api.base(), 0, LoadOp::ErrCause)),
                  static_cast<std::uint64_t>(fault::FaultClass::HardSpad));
        EXPECT_NE(co_await c.load(
                      core::encodeLoad(f.api.base(), 0, LoadOp::ErrAddr)),
                  0u);
        EXPECT_TRUE(f.soc.maple().errorLatched(0));
        EXPECT_EQ(notified, 1u) << "error callback fired on the latch";

        // The poisoned entry surfaces as status, never as data.
        EXPECT_EQ(co_await f.api.consume(c, 0), 0u);
        EXPECT_EQ(co_await c.load(core::encodeLoad(f.api.base(), 0,
                                                   LoadOp::ConsumeStatus)),
                  static_cast<std::uint64_t>(MapleStatus::Poisoned));
        EXPECT_EQ(co_await f.api.readCounter(c, Counter::PoisonedResponses), 1u);
        EXPECT_EQ(co_await f.api.readCounter(c, Counter::HardFaults), 1u);

        // DeviceReset clears the latch; AcceptCount survives it.
        EXPECT_EQ(co_await c.load(
                      core::encodeLoad(f.api.base(), 0, LoadOp::AcceptCount)),
                  1u);
        co_await c.store(core::encodeStore(f.api.base(), 0, StoreOp::DeviceReset), 0);
        co_await c.storeFence();
        errstat = co_await c.load(
            core::encodeLoad(f.api.base(), 0, LoadOp::ErrStatus));
        EXPECT_EQ(errstat & 1, 0u) << "reset clears the latch";
        EXPECT_FALSE(f.soc.maple().errorLatched(0));
        EXPECT_EQ(co_await c.load(
                      core::encodeLoad(f.api.base(), 0, LoadOp::AcceptCount)),
                  1u)
            << "AcceptCount survives DeviceReset";
        EXPECT_EQ(co_await f.api.occupancy(c, 0), 0u);
        done = true;
    };
    std::vector<sim::Join> joins;
    joins.push_back(sim::spawn(t(f.soc.core(0))));
    f.soc.run(std::move(joins), 10'000'000);
    EXPECT_TRUE(done);
}

TEST(ErrorRegisters, QuiesceDropsOpsAndResumeRestoresService)
{
    Fixture f;
    bool done = false;
    auto t = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 1, 2, 8);
        EXPECT_TRUE(co_await f.api.open(c, 0));
        co_await f.api.setQueueTimeout(c, 0, 2'000);

        co_await c.store(core::encodeStore(f.api.base(), 0, StoreOp::Quiesce), 1);
        co_await c.storeFence();
        std::uint64_t errstat = co_await c.load(
            core::encodeLoad(f.api.base(), 0, LoadOp::ErrStatus));
        EXPECT_EQ((errstat >> 1) & 1, 1u) << "quiesced bit";

        // Produce- and consume-class ops drop with Quiesced status; the
        // config pipeline (used above) stays live throughout.
        EXPECT_FALSE(co_await f.api.produceTimed(c, 0, 5));
        EXPECT_EQ(co_await f.api.queueStatus(c, 0), MapleStatus::Quiesced);
        EXPECT_EQ(co_await f.api.consume(c, 0), 0u);
        EXPECT_EQ(co_await c.load(core::encodeLoad(f.api.base(), 0,
                                                   LoadOp::ConsumeStatus)),
                  static_cast<std::uint64_t>(MapleStatus::Quiesced));

        co_await c.store(core::encodeStore(f.api.base(), 0, StoreOp::Quiesce), 0);
        co_await c.storeFence();
        EXPECT_TRUE(co_await f.api.produceTimed(c, 0, 5));
        EXPECT_EQ(co_await f.api.consume(c, 0), 5u);
        done = true;
    };
    std::vector<sim::Join> joins;
    joins.push_back(sim::spawn(t(f.soc.core(0))));
    f.soc.run(std::move(joins), 10'000'000);
    EXPECT_TRUE(done);
}

TEST(ErrorRegisters, QuiesceDropsLimaProduces)
{
    // A LIMA command's produces obey Quiesce like PRODUCE_PTR: each element
    // is walked but dropped with status Quiesced, so the queue stays empty.
    Fixture f;
    constexpr unsigned kN = 8;
    sim::Addr a = f.proc.alloc(kN * 4, "A");
    sim::Addr b = f.proc.alloc(kN * 4, "B");
    for (unsigned i = 0; i < kN; ++i) {
        f.proc.writeScalar<std::uint32_t>(b + 4 * i, i);
        f.proc.writeScalar<std::uint32_t>(a + 4 * i, i + 100);
    }
    bool done = false;
    auto t = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 1, 16, 4);
        EXPECT_TRUE(co_await f.api.open(c, 0));
        co_await c.store(core::encodeStore(f.api.base(), 0, StoreOp::Quiesce), 1);
        co_await c.storeFence();

        core::LimaRequest req;
        req.a_base = a;
        req.b_base = b;
        req.end = kN;
        co_await f.api.lima(c, req);
        co_await c.storeFence();
        co_await sim::delay(f.soc.eq(), 5'000);  // long past the last element
        EXPECT_EQ(co_await f.api.occupancy(c, 0), 0u);
        EXPECT_EQ(co_await c.load(core::encodeLoad(f.api.base(), 0,
                                                   LoadOp::ProduceStatus)),
                  static_cast<std::uint64_t>(MapleStatus::Quiesced));
        done = true;
    };
    std::vector<sim::Join> joins;
    joins.push_back(sim::spawn(t(f.soc.core(0))));
    f.soc.run(std::move(joins), 10'000'000);
    EXPECT_TRUE(done);
    EXPECT_EQ(f.soc.maple().counter(Counter::LimaElements), kN);
}

TEST(ErrorRegisters, DeviceResetAbortsParkedConsumer)
{
    Fixture f;
    bool aborted = false;
    auto consumer = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 1, 4, 8);
        EXPECT_TRUE(co_await f.api.open(c, 0));
        // Parks on the empty queue (no timeout): only the reset frees it.
        EXPECT_EQ(co_await f.api.consume(c, 0), 0u);
        EXPECT_EQ(co_await c.load(core::encodeLoad(f.api.base(), 0,
                                                   LoadOp::ConsumeStatus)),
                  static_cast<std::uint64_t>(MapleStatus::Aborted));
        aborted = true;
    };
    auto resetter = [&](cpu::Core &c) -> sim::Task<void> {
        co_await sim::delay(f.soc.eq(), 20'000);
        co_await c.store(core::encodeStore(f.api.base(), 0, StoreOp::DeviceReset), 0);
        co_await c.storeFence();
    };
    std::vector<sim::Join> joins;
    joins.push_back(sim::spawn(consumer(f.soc.core(0))));
    joins.push_back(sim::spawn(resetter(f.soc.core(1))));
    f.soc.run(std::move(joins), 10'000'000);
    EXPECT_TRUE(aborted);
}

TEST(ErrorRegisters, DeviceResetOverwritesStatusesWithAborted)
{
    // Regression: a pre-reset Ok left in the status registers must not be
    // readable after DeviceReset, or the recovery driver would trust it and
    // retire a journal entry the replay is about to regenerate (duplicate
    // delivery). The reset overwrites all three with Aborted.
    Fixture f;
    bool done = false;
    auto t = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 1, 4, 8);
        EXPECT_TRUE(co_await f.api.open(c, 0));
        co_await f.api.produce(c, 0, 5);
        co_await c.storeFence();
        EXPECT_EQ(co_await c.load(core::encodeLoad(f.api.base(), 0,
                                                   LoadOp::ProduceStatus)),
                  static_cast<std::uint64_t>(MapleStatus::Ok));
        EXPECT_EQ(co_await f.api.consume(c, 0), 5u);
        EXPECT_EQ(co_await c.load(core::encodeLoad(f.api.base(), 0,
                                                   LoadOp::ConsumeStatus)),
                  static_cast<std::uint64_t>(MapleStatus::Ok));

        co_await c.store(core::encodeStore(f.api.base(), 0, StoreOp::DeviceReset), 0);
        co_await c.storeFence();
        EXPECT_EQ(co_await c.load(core::encodeLoad(f.api.base(), 0,
                                                   LoadOp::ProduceStatus)),
                  static_cast<std::uint64_t>(MapleStatus::Aborted))
            << "stale Ok must not survive the reset";
        EXPECT_EQ(co_await c.load(core::encodeLoad(f.api.base(), 0,
                                                   LoadOp::ConsumeStatus)),
                  static_cast<std::uint64_t>(MapleStatus::Aborted));
        EXPECT_EQ(co_await f.api.queueStatus(c, 0), MapleStatus::Aborted);

        // Service resumes normally after the reset.
        co_await f.api.produce(c, 0, 6);
        co_await c.storeFence();
        EXPECT_EQ(co_await f.api.consume(c, 0), 6u);
        done = true;
    };
    std::vector<sim::Join> joins;
    joins.push_back(sim::spawn(t(f.soc.core(0))));
    f.soc.run(std::move(joins), 10'000'000);
    EXPECT_TRUE(done);
}

TEST(ErrorRegisters, QuiesceIsPerQueue)
{
    // Regression: quiescing one queue must not drop ops on another, so two
    // queues can recover concurrently without voiding each other's quiesce
    // window.
    Fixture f;
    bool done = false;
    auto t = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 2, 2, 8);
        EXPECT_TRUE(co_await f.api.open(c, 0));
        EXPECT_TRUE(co_await f.api.open(c, 1));
        co_await f.api.setQueueTimeout(c, 0, 2'000);
        co_await f.api.setQueueTimeout(c, 1, 2'000);

        co_await c.store(core::encodeStore(f.api.base(), 0, StoreOp::Quiesce), 1);
        co_await c.storeFence();
        std::uint64_t s0 = co_await c.load(
            core::encodeLoad(f.api.base(), 0, LoadOp::ErrStatus));
        std::uint64_t s1 = co_await c.load(
            core::encodeLoad(f.api.base(), 1, LoadOp::ErrStatus));
        EXPECT_EQ((s0 >> 1) & 1, 1u) << "queue 0 quiesced";
        EXPECT_EQ((s1 >> 1) & 1, 0u) << "queue 1 not quiesced";

        EXPECT_FALSE(co_await f.api.produceTimed(c, 0, 5));
        EXPECT_EQ(co_await f.api.queueStatus(c, 0), MapleStatus::Quiesced);
        EXPECT_TRUE(co_await f.api.produceTimed(c, 1, 7))
            << "queue 1 keeps accepting while queue 0 is quiesced";
        EXPECT_EQ(co_await f.api.consume(c, 1), 7u);

        co_await c.store(core::encodeStore(f.api.base(), 0, StoreOp::Quiesce), 0);
        co_await c.storeFence();
        EXPECT_TRUE(co_await f.api.produceTimed(c, 0, 5));
        EXPECT_EQ(co_await f.api.consume(c, 0), 5u);
        done = true;
    };
    std::vector<sim::Join> joins;
    joins.push_back(sim::spawn(t(f.soc.core(0))));
    f.soc.run(std::move(joins), 10'000'000);
    EXPECT_TRUE(done);
}

TEST(ErrorRegisters, ErrorLatchIsPerQueue)
{
    // Regression: resetting one queue must not clear another queue's latched
    // fault — the victim's produce-side escalation check reads its own
    // ErrStatus bit 0.
    soc::SocConfig cfg = soc::SocConfig::fpga();
    cfg.fault.seed = 3;
    cfg.fault.hard_spad = {1.0, 1};  // every scratchpad fill poisons
    Fixture f(cfg);
    bool done = false;
    auto t = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 2, 4, 8);
        EXPECT_TRUE(co_await f.api.open(c, 0));
        EXPECT_TRUE(co_await f.api.open(c, 1));
        sim::Addr a = f.proc.alloc(8, "A");
        f.proc.writeScalar<std::uint64_t>(a, 42);
        co_await f.api.producePtr(c, 0, a);
        co_await c.storeFence();
        co_await sim::delay(f.soc.eq(), 5'000);  // let the fetch poison

        std::uint64_t s0 = co_await c.load(
            core::encodeLoad(f.api.base(), 0, LoadOp::ErrStatus));
        std::uint64_t s1 = co_await c.load(
            core::encodeLoad(f.api.base(), 1, LoadOp::ErrStatus));
        EXPECT_EQ(s0 & 1, 1u) << "fault latched on queue 0";
        EXPECT_EQ(s1 & 1, 0u) << "queue 1 untouched";
        EXPECT_TRUE(f.soc.maple().errorLatched(0));
        EXPECT_FALSE(f.soc.maple().errorLatched(1));

        // Resetting the *other* queue must leave queue 0's latch alone.
        co_await c.store(core::encodeStore(f.api.base(), 1, StoreOp::DeviceReset), 0);
        co_await c.storeFence();
        s0 = co_await c.load(
            core::encodeLoad(f.api.base(), 0, LoadOp::ErrStatus));
        EXPECT_EQ(s0 & 1, 1u) << "queue 1's reset must not clear queue 0";

        co_await c.store(core::encodeStore(f.api.base(), 0, StoreOp::DeviceReset), 0);
        co_await c.storeFence();
        s0 = co_await c.load(
            core::encodeLoad(f.api.base(), 0, LoadOp::ErrStatus));
        EXPECT_EQ(s0 & 1, 0u) << "own reset clears the latch";
        done = true;
    };
    std::vector<sim::Join> joins;
    joins.push_back(sim::spawn(t(f.soc.core(0))));
    f.soc.run(std::move(joins), 10'000'000);
    EXPECT_TRUE(done);
}

TEST(TimedOps, ArmingTimeoutUnparksFullQueueProduce)
{
    // Regression: a produce parked on a full queue with bound 0 (an app INIT
    // zeroed the register) must pick up a QueueTimeout armed *while it is
    // parked* — the recovery drain depends on such ops eventually timing
    // out instead of holding the in-flight count up forever.
    Fixture f;
    bool produced = false;
    auto producer = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 1, 2, 8);
        EXPECT_TRUE(co_await f.api.open(c, 0));
        co_await f.api.produce(c, 0, 1);
        co_await f.api.produce(c, 0, 2);
        co_await c.storeFence();
        // Queue full, bound 0: this parks until the helper arms the bound.
        co_await f.api.produce(c, 0, 3);
        co_await c.storeFence();
        EXPECT_EQ(co_await c.load(core::encodeLoad(f.api.base(), 0,
                                                   LoadOp::ProduceStatus)),
                  static_cast<std::uint64_t>(MapleStatus::TimedOut))
            << "the armed bound must take effect on the parked produce";
        EXPECT_EQ(co_await f.api.occupancy(c, 0), 2u)
            << "the timed-out value is dropped, accepted entries intact";
        EXPECT_EQ(co_await f.api.consume(c, 0), 1u);
        EXPECT_EQ(co_await f.api.consume(c, 0), 2u);
        produced = true;
    };
    auto helper = [&](cpu::Core &c) -> sim::Task<void> {
        co_await sim::delay(f.soc.eq(), 20'000);
        co_await f.api.setQueueTimeout(c, 0, 500);
    };
    std::vector<sim::Join> joins;
    joins.push_back(sim::spawn(producer(f.soc.core(0))));
    joins.push_back(sim::spawn(helper(f.soc.core(1))));
    f.soc.run(std::move(joins), 10'000'000);
    EXPECT_TRUE(produced);
}

TEST(TimedOps, EveryQueueOpLeavesTheWaitAlike)
{
    // Every produce kind meets a full 2-entry queue and every consume kind
    // an empty one. Each leaves by each exit: the bound, a quiesce (dropped
    // before it waits), or a DeviceReset from core 1 while it is parked.
    enum class Op { Data, Ptr, Amo, Consume, ConsumePair };
    enum class Exit { TimedOut, Quiesced, Aborted };
    const char *const op_names[] = {"data", "ptr", "amo", "consume",
                                    "consume_pair"};
    const char *const exit_names[] = {"timed_out", "quiesced", "aborted"};
    for (Op op : {Op::Data, Op::Ptr, Op::Amo, Op::Consume, Op::ConsumePair}) {
        for (Exit exit : {Exit::TimedOut, Exit::Quiesced, Exit::Aborted}) {
            SCOPED_TRACE(std::string(op_names[static_cast<int>(op)]) + " / " +
                         exit_names[static_cast<int>(exit)]);
            Fixture f;
            const bool produce = op == Op::Data || op == Op::Ptr || op == Op::Amo;
            const sim::Addr base = f.api.base();
            const sim::Addr target = f.proc.alloc(8, "target");
            f.proc.writeScalar<std::uint64_t>(target, 7);
            bool done = false;
            auto t = [&](cpu::Core &c) -> sim::Task<void> {
                co_await f.api.init(c, 1, 2, 4);
                EXPECT_TRUE(co_await f.api.open(c, 0));
                co_await f.api.setAmoAddend(c, 0, 5);
                if (produce) {
                    co_await f.api.produce(c, 0, 1);
                    co_await f.api.produce(c, 0, 2);
                }
                if (exit == Exit::TimedOut)
                    co_await f.api.setQueueTimeout(c, 0, 500);
                if (exit == Exit::Quiesced)
                    co_await c.store(core::encodeStore(base, 0, StoreOp::Quiesce), 1);
                co_await c.storeFence();

                std::uint64_t got = 0;
                switch (op) {
                  case Op::Data:
                    co_await f.api.produce(c, 0, 3);
                    break;
                  case Op::Ptr:
                    co_await f.api.producePtr(c, 0, target);
                    break;
                  case Op::Amo:
                    co_await f.api.produceAmoAdd(c, 0, target);
                    break;
                  case Op::Consume:
                    got = co_await f.api.consume(c, 0);
                    break;
                  case Op::ConsumePair:
                    got = co_await f.api.consumePair(c, 0);
                    break;
                }
                co_await c.storeFence();  // a produce has left the wait

                const MapleStatus want = exit == Exit::TimedOut ? MapleStatus::TimedOut
                    : exit == Exit::Quiesced                    ? MapleStatus::Quiesced
                                                                : MapleStatus::Aborted;
                const LoadOp status =
                    produce ? LoadOp::ProduceStatus : LoadOp::ConsumeStatus;
                EXPECT_EQ(co_await c.load(core::encodeLoad(base, 0, status)),
                          static_cast<std::uint64_t>(want));
                EXPECT_EQ(got, 0u);
                EXPECT_EQ(co_await f.api.readCounter(c, Counter::TimedOutOps),
                          exit == Exit::TimedOut ? 1u : 0u);
                // Only an op that reached the wait charges stall cycles.
                const Counter stall =
                    produce ? Counter::FullStallCycles : Counter::EmptyStallCycles;
                EXPECT_EQ(co_await f.api.readCounter(c, stall) > 0,
                          exit != Exit::Quiesced);
                EXPECT_EQ(f.soc.maple().produceInflight(), 0u);
                EXPECT_EQ(co_await f.api.occupancy(c, 0),
                          produce && exit != Exit::Aborted ? 2u : 0u);
                EXPECT_EQ(f.proc.readScalar<std::uint64_t>(target), 7u);
                done = true;
            };
            auto resetter = [&](cpu::Core &c) -> sim::Task<void> {
                if (exit != Exit::Aborted)
                    co_return;
                co_await sim::delay(f.soc.eq(), 20'000);
                co_await c.store(core::encodeStore(base, 0, StoreOp::DeviceReset), 0);
                co_await c.storeFence();
            };
            std::vector<sim::Join> joins;
            joins.push_back(sim::spawn(t(f.soc.core(0))));
            joins.push_back(sim::spawn(resetter(f.soc.core(1))));
            f.soc.run(std::move(joins), 10'000'000);
            EXPECT_TRUE(done);
        }
    }
}

// ---------------------------------------------------------------------------
// Watchdog owner masking (degraded devices leave the parked accounting)
// ---------------------------------------------------------------------------

TEST(WatchdogMask, MaskedOwnersLeaveParkedWaiterAccounting)
{
    sim::EventQueue eq;
    fault::FaultInjector fi(eq, fault::FaultConfig{});
    const std::string owner = "maple0";
    auto parked = [&]() -> sim::Task<void> {
        fault::ParkGuard g(eq, "consume_empty", owner);
        co_await sim::delay(eq, 100);
    };
    sim::Join j = sim::spawn(parked());
    EXPECT_EQ(fi.parkedWaiters(), 1u);
    EXPECT_EQ(fi.unmaskedParkedWaiters(), 1u);

    fi.maskOwner(owner);  // permanent mask, as degrade() applies
    EXPECT_EQ(fi.parkedWaiters(), 1u);
    EXPECT_EQ(fi.unmaskedParkedWaiters(), 0u);
    {
        // A recovery's scoped mask nests on top without disturbing it.
        fault::OwnerMaskGuard scoped(eq, owner);
        EXPECT_EQ(fi.unmaskedParkedWaiters(), 0u);
    }
    EXPECT_EQ(fi.unmaskedParkedWaiters(), 0u) << "permanent mask still holds";
    fi.unmaskOwner(owner);
    EXPECT_EQ(fi.unmaskedParkedWaiters(), 1u);

    eq.run();
    EXPECT_TRUE(j.done());
    EXPECT_EQ(fi.parkedWaiters(), 0u);
}

// ---------------------------------------------------------------------------
// The OS recovery driver end to end
// ---------------------------------------------------------------------------

namespace {

struct RecoveryRun {
    sim::Cycle cycles = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t replayed = 0;
    std::uint64_t degraded = 0;
    bool values_ok = true;
};

/**
 * A decoupled gather under hard scratchpad faults with the recovery driver
 * armed: @p n pointer-produces on core 0, @p n reliable consumes on core 1,
 * exact FIFO-order value validation (replay must preserve order).
 */
RecoveryRun
recoveryGather(unsigned recovery_budget, double hard_rate = 0.02,
               unsigned n = 256, std::uint64_t seed = 5)
{
    soc::SocConfig cfg = soc::SocConfig::fpga();
    cfg.fault.seed = seed;
    cfg.fault.hard_spad = {hard_rate, 1};
    os::RecoveryConfig rc;
    rc.enabled = true;
    rc.recovery_budget = recovery_budget;
    Fixture f(cfg, rc);

    sim::Addr a = f.proc.alloc(n * 8, "A");
    for (unsigned i = 0; i < n; ++i)
        f.proc.writeScalar<std::uint64_t>(a + 8 * i, 100 + 3 * i);

    RecoveryRun r;
    auto producer = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 1, 8, 8);
        EXPECT_TRUE(co_await f.api.open(c, 0));
        for (unsigned i = 0; i < n; ++i)
            EXPECT_TRUE(co_await f.api.producePtrReliable(c, 0, a + 8 * i));
    };
    auto consumer = [&](cpu::Core &c) -> sim::Task<void> {
        co_await sim::delay(f.soc.eq(), 2'000);  // let init land
        for (unsigned i = 0; i < n; ++i) {
            std::uint64_t v = co_await f.api.consumeReliable(c, 0);
            if (v != 100 + 3 * static_cast<std::uint64_t>(i))
                r.values_ok = false;
        }
    };
    std::vector<sim::Join> joins;
    joins.push_back(sim::spawn(producer(f.soc.core(0))));
    joins.push_back(sim::spawn(consumer(f.soc.core(1))));
    r.cycles = f.soc.run(std::move(joins), 200'000'000);
    os::MapleDriver *drv = f.api.driver();
    EXPECT_NE(drv, nullptr);
    r.recoveries = drv->recoveries();
    r.replayed = drv->replayedOps();
    r.degraded = drv->degradedQueues();
    return r;
}

}  // namespace

TEST(RecoveryDriver, HardFaultsRecoverWithCorrectInOrderValues)
{
    RecoveryRun r = recoveryGather(/*recovery_budget=*/64);
    EXPECT_TRUE(r.values_ok) << "every value exact and in FIFO order";
    EXPECT_GT(r.recoveries, 0u) << "rate 0.02 over 256 fetches must fire";
    EXPECT_EQ(r.degraded, 0u) << "budget 64 never degrades here";
}

TEST(RecoveryDriver, RecoveryIsDeterministicPerSeed)
{
    RecoveryRun a = recoveryGather(64);
    RecoveryRun b = recoveryGather(64);
    EXPECT_GT(a.recoveries, 0u);
    EXPECT_EQ(a.cycles, b.cycles) << "same seed, bit-identical recovery";
    EXPECT_EQ(a.recoveries, b.recoveries);
    EXPECT_EQ(a.replayed, b.replayed);
}

TEST(RecoveryDriver, ExhaustedBudgetDegradesToSoftwareQueueCorrectly)
{
    // Budget 0: the first recovery immediately degrades the queue to the
    // software ring; the workload must still complete with exact values.
    RecoveryRun r = recoveryGather(/*recovery_budget=*/0);
    EXPECT_TRUE(r.values_ok)
        << "degraded path must deliver every value in order";
    EXPECT_EQ(r.degraded, 1u);
    EXPECT_GT(r.recoveries, 0u);
}

TEST(RecoveryDriver, DisabledRecoveryIsAnExactPassThrough)
{
    // Without the driver the *Reliable ops are aliases of the raw ops: a
    // faults-off run must be cycle-identical either way.
    auto run = [](bool reliable) {
        Fixture f;
        constexpr unsigned n = 64;
        sim::Addr a = f.proc.alloc(n * 8, "A");
        for (unsigned i = 0; i < n; ++i)
            f.proc.writeScalar<std::uint64_t>(a + 8 * i, 7 + i);
        std::uint64_t sum = 0;
        auto producer = [&](cpu::Core &c) -> sim::Task<void> {
            co_await f.api.init(c, 1, 8, 8);
            EXPECT_TRUE(co_await f.api.open(c, 0));
            for (unsigned i = 0; i < n; ++i) {
                if (reliable)
                    EXPECT_TRUE(co_await f.api.producePtrReliable(c, 0, a + 8 * i));
                else
                    co_await f.api.producePtr(c, 0, a + 8 * i);
            }
        };
        auto consumer = [&](cpu::Core &c) -> sim::Task<void> {
            co_await sim::delay(f.soc.eq(), 2'000);
            // Deliberately if/else, not a conditional expression: GCC
            // miscompiles `cond ? co_await a : co_await b` (the awaiting
            // frame's continuation is lost and the task never resumes).
            for (unsigned i = 0; i < n; ++i) {
                if (reliable)
                    sum += co_await f.api.consumeReliable(c, 0);
                else
                    sum += co_await f.api.consume(c, 0);
            }
        };
        std::vector<sim::Join> joins;
        joins.push_back(sim::spawn(producer(f.soc.core(0))));
        joins.push_back(sim::spawn(consumer(f.soc.core(1))));
        sim::Cycle cycles = f.soc.run(std::move(joins), 10'000'000);
        EXPECT_EQ(f.api.driver(), nullptr);
        return std::pair<sim::Cycle, std::uint64_t>(cycles, sum);
    };
    auto [raw_cycles, raw_sum] = run(false);
    auto [rel_cycles, rel_sum] = run(true);
    EXPECT_EQ(raw_sum, rel_sum);
    EXPECT_EQ(raw_cycles, rel_cycles);
}

TEST(RecoveryDriver, HardTlbFaultsAlsoRecover)
{
    soc::SocConfig cfg = soc::SocConfig::fpga();
    cfg.fault.seed = 9;
    cfg.fault.hard_tlb = {0.02, 1};
    os::RecoveryConfig rc;
    rc.enabled = true;
    rc.recovery_budget = 64;
    Fixture f(cfg, rc);
    constexpr unsigned n = 256;
    sim::Addr a = f.proc.alloc(n * 8, "A");
    for (unsigned i = 0; i < n; ++i)
        f.proc.writeScalar<std::uint64_t>(a + 8 * i, 100 + 3 * i);
    bool ok = true;
    auto producer = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 1, 8, 8);
        EXPECT_TRUE(co_await f.api.open(c, 0));
        for (unsigned i = 0; i < n; ++i)
            EXPECT_TRUE(co_await f.api.producePtrReliable(c, 0, a + 8 * i));
    };
    auto consumer = [&](cpu::Core &c) -> sim::Task<void> {
        co_await sim::delay(f.soc.eq(), 2'000);
        for (unsigned i = 0; i < n; ++i)
            ok &= co_await f.api.consumeReliable(c, 0) ==
                  100 + 3 * static_cast<std::uint64_t>(i);
    };
    std::vector<sim::Join> joins;
    joins.push_back(sim::spawn(producer(f.soc.core(0))));
    joins.push_back(sim::spawn(consumer(f.soc.core(1))));
    f.soc.run(std::move(joins), 200'000'000);
    EXPECT_TRUE(ok);
    EXPECT_GT(f.api.driver()->recoveries(), 0u);
    EXPECT_GT(f.soc.maple().counter(Counter::HardFaults), 0u);
}

TEST(RecoveryDriver, TwoQueuesRecoverIndependently)
{
    // Regression for the per-queue quiesce/error/in-flight split: recoveries
    // on two queues of the same device may overlap, and neither may void the
    // other's quiesce window, clear its latched fault, or stall its drain on
    // the other queue's in-flight produces. Values on both streams must
    // arrive exact and in order.
    soc::SocConfig cfg = soc::SocConfig::fpga();
    cfg.fault.seed = 7;
    cfg.fault.hard_spad = {0.02, 1};
    os::RecoveryConfig rc;
    rc.enabled = true;
    rc.recovery_budget = 64;
    Fixture f(cfg, rc);
    constexpr unsigned n = 128;
    sim::Addr a = f.proc.alloc(n * 8, "A");
    sim::Addr b = f.proc.alloc(n * 8, "B");
    for (unsigned i = 0; i < n; ++i) {
        f.proc.writeScalar<std::uint64_t>(a + 8 * i, 100 + 3 * i);
        f.proc.writeScalar<std::uint64_t>(b + 8 * i, 900 + 7 * i);
    }
    bool ok = true;
    auto producer = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 2, 8, 8);
        EXPECT_TRUE(co_await f.api.open(c, 0));
        EXPECT_TRUE(co_await f.api.open(c, 1));
        for (unsigned i = 0; i < n; ++i) {
            EXPECT_TRUE(co_await f.api.producePtrReliable(c, 0, a + 8 * i));
            EXPECT_TRUE(co_await f.api.producePtrReliable(c, 1, b + 8 * i));
        }
    };
    auto consumer = [&](cpu::Core &c) -> sim::Task<void> {
        co_await sim::delay(f.soc.eq(), 2'000);
        for (unsigned i = 0; i < n; ++i) {
            ok &= co_await f.api.consumeReliable(c, 0) ==
                  100 + 3 * static_cast<std::uint64_t>(i);
            ok &= co_await f.api.consumeReliable(c, 1) ==
                  900 + 7 * static_cast<std::uint64_t>(i);
        }
    };
    std::vector<sim::Join> joins;
    joins.push_back(sim::spawn(producer(f.soc.core(0))));
    joins.push_back(sim::spawn(consumer(f.soc.core(1))));
    f.soc.run(std::move(joins), 400'000'000);
    EXPECT_TRUE(ok) << "both streams exact and in FIFO order";
    EXPECT_GT(f.api.driver()->recoveries(), 0u);
    EXPECT_EQ(f.api.driver()->degradedQueues(), 0u);
}
