/**
 * @file
 * Integration and property tests for the MAPLE device driven through the
 * full SoC: MMIO encode/decode, produce/consume ordering, pointer-produce
 * reordering, backpressure, LIMA, virtual-memory faults, shootdowns, the
 * pipeline-separation deadlock ablation, and performance counters.
 */
#include <gtest/gtest.h>

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
#include "soc/soc.hpp"

using namespace maple;
using core::Counter;
using core::LimaRequest;
using core::MapleApi;
using core::StoreOp;

namespace {

struct Fixture {
    soc::Soc soc;
    os::Process &proc;
    MapleApi api;

    explicit Fixture(soc::SocConfig cfg = soc::SocConfig::fpga())
        : soc(std::move(cfg)), proc(soc.createProcess("test")),
          api(MapleApi::attach(proc, soc.maple()))
    {
    }
};

}  // namespace

TEST(MapleIsa, EncodeDecodeRoundTrip)
{
    sim::Addr base = 0x40000000;
    for (unsigned q = 0; q < core::kMaxQueuesPerPage; ++q) {
        for (unsigned op = 0; op < 64; ++op) {
            sim::Addr a = core::encodeOp(base, q, op);
            EXPECT_EQ(core::decodeQueue(a), q);
            EXPECT_EQ(core::decodeOp(a), op);
            EXPECT_EQ(a & ~sim::Addr(0xfff), base);
        }
    }
}

TEST(MapleIsa, PayloadPackingRoundTrips)
{
    auto qc = core::unpackQueueConfig(core::packQueueConfig(8, 32, 4));
    EXPECT_EQ(qc.count, 8u);
    EXPECT_EQ(qc.entries, 32u);
    EXPECT_EQ(qc.entry_bytes, 4u);

    core::LimaControl c;
    c.target_queue = 5;
    c.b_elem_bytes = 8;
    c.a_elem_bytes = 4;
    c.speculative = true;
    auto c2 = core::unpackLimaControl(core::packLimaControl(c));
    EXPECT_EQ(c2.target_queue, 5);
    EXPECT_EQ(c2.b_elem_bytes, 8);
    EXPECT_EQ(c2.a_elem_bytes, 4);
    EXPECT_TRUE(c2.speculative);
}

TEST(Maple, DataProduceConsumeFifoOrder)
{
    Fixture f;
    std::vector<std::uint64_t> got;

    auto producer = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 4, 16, 8);
        EXPECT_TRUE(co_await f.api.open(c, 0));
        for (std::uint64_t i = 0; i < 50; ++i)
            co_await f.api.produce(c, 0, 1000 + i);
    };
    auto consumer = [&](cpu::Core &c) -> sim::Task<void> {
        co_await sim::delay(f.soc.eq(), 200);  // let init land first
        for (int i = 0; i < 50; ++i)
            got.push_back(co_await f.api.consume(c, 0));
    };

    std::vector<sim::Join> joins;
    joins.push_back(sim::spawn(producer(f.soc.core(0))));
    joins.push_back(sim::spawn(consumer(f.soc.core(1))));
    f.soc.run(std::move(joins), 10'000'000);

    ASSERT_EQ(got.size(), 50u);
    for (std::uint64_t i = 0; i < 50; ++i)
        EXPECT_EQ(got[i], 1000 + i) << "FIFO order violated at " << i;
}

TEST(Maple, PointerProduceFetchesFromMemoryInProgramOrder)
{
    Fixture f;
    constexpr int kN = 200;
    // A[i] = i*i; pointers produced in a scrambled-but-known order.
    sim::Addr a = f.proc.alloc(kN * 8, "A");
    for (int i = 0; i < kN; ++i)
        f.proc.writeScalar<std::uint64_t>(a + 8 * i, std::uint64_t(i) * i);

    std::vector<std::uint64_t> got;
    auto access = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 1, 32, 8);
        EXPECT_TRUE(co_await f.api.open(c, 0));
        for (int i = 0; i < kN; ++i) {
            // Stride around so consecutive fetches hit different lines/pages.
            int j = (i * 37) % kN;
            co_await f.api.producePtr(c, 0, a + 8 * j);
        }
    };
    auto execute = [&](cpu::Core &c) -> sim::Task<void> {
        co_await sim::delay(f.soc.eq(), 300);
        for (int i = 0; i < kN; ++i)
            got.push_back(co_await f.api.consume(c, 0));
    };

    std::vector<sim::Join> joins;
    joins.push_back(sim::spawn(access(f.soc.core(0))));
    joins.push_back(sim::spawn(execute(f.soc.core(1))));
    f.soc.run(std::move(joins), 50'000'000);

    ASSERT_EQ(got.size(), size_t(kN));
    for (int i = 0; i < kN; ++i) {
        std::uint64_t j = std::uint64_t((i * 37) % kN);
        EXPECT_EQ(got[i], j * j) << "response reordering broke program order";
    }
    EXPECT_EQ(f.soc.maple().counter(Counter::ProducedPtrs), unsigned(kN));
    EXPECT_EQ(f.soc.maple().counter(Counter::Consumed), unsigned(kN));
}

TEST(Maple, FullQueueBackpressuresProducerWithoutLoss)
{
    Fixture f;
    constexpr int kN = 64;
    std::vector<std::uint64_t> got;

    auto producer = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 1, 4, 8);  // tiny queue: constant back-pressure
        EXPECT_TRUE(co_await f.api.open(c, 0));
        for (std::uint64_t i = 0; i < kN; ++i)
            co_await f.api.produce(c, 0, i);
    };
    auto consumer = [&](cpu::Core &c) -> sim::Task<void> {
        co_await sim::delay(f.soc.eq(), 5000);  // let the queue fill up
        for (int i = 0; i < kN; ++i) {
            co_await sim::delay(f.soc.eq(), 50);  // slow consumer
            got.push_back(co_await f.api.consume(c, 0));
        }
    };

    std::vector<sim::Join> joins;
    joins.push_back(sim::spawn(producer(f.soc.core(0))));
    joins.push_back(sim::spawn(consumer(f.soc.core(1))));
    f.soc.run(std::move(joins), 50'000'000);

    ASSERT_EQ(got.size(), size_t(kN));
    for (int i = 0; i < kN; ++i)
        EXPECT_EQ(got[i], std::uint64_t(i));
    EXPECT_GT(f.soc.maple().counter(Counter::FullStallCycles), 0u);
}

TEST(Maple, ConsumeOnEmptyQueueParksUntilDataArrives)
{
    Fixture f;
    std::uint64_t got = 0;
    sim::Cycle consume_done = 0;

    auto consumer = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 1, 8, 8);
        EXPECT_TRUE(co_await f.api.open(c, 0));
        got = co_await f.api.consume(c, 0);  // parks: queue is empty
        consume_done = f.soc.eq().now();
    };
    auto producer = [&](cpu::Core &c) -> sim::Task<void> {
        co_await sim::delay(f.soc.eq(), 9000);
        co_await f.api.produce(c, 0, 777);
    };

    std::vector<sim::Join> joins;
    joins.push_back(sim::spawn(consumer(f.soc.core(0))));
    joins.push_back(sim::spawn(producer(f.soc.core(1))));
    f.soc.run(std::move(joins), 1'000'000);

    EXPECT_EQ(got, 777u);
    EXPECT_GE(consume_done, 9000u);
    EXPECT_GT(f.soc.maple().counter(Counter::EmptyStallCycles), 0u);
}

TEST(Maple, OperationsToOtherQueuesProceedWhileOneIsFull)
{
    Fixture f;
    sim::Cycle q1_done = 0;

    auto driver = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 2, 4, 8);
        EXPECT_TRUE(co_await f.api.open(c, 0));
        EXPECT_TRUE(co_await f.api.open(c, 1));
        // Fill queue 0 beyond capacity: the 5th produce parks in the buffer.
        for (int i = 0; i < 5; ++i)
            co_await f.api.produce(c, 0, i);
        co_return;
    };
    auto other = [&](cpu::Core &c) -> sim::Task<void> {
        co_await sim::delay(f.soc.eq(), 2000);
        // Queue 1 must stay usable even though queue 0 is saturated.
        co_await f.api.produce(c, 1, 42);
        std::uint64_t v = co_await f.api.consume(c, 1);
        EXPECT_EQ(v, 42u);
        q1_done = f.soc.eq().now();
        // Unblock queue 0 so the parked produce can finish.
        (void)co_await f.api.consume(c, 0);
    };

    std::vector<sim::Join> joins;
    joins.push_back(sim::spawn(driver(f.soc.core(0))));
    joins.push_back(sim::spawn(other(f.soc.core(1))));
    f.soc.run(std::move(joins), 1'000'000);
    EXPECT_GT(q1_done, 0u);
}

TEST(Maple, SharedPipelineAblationDeadlocks)
{
#ifdef MAPLE_TEST_ASAN
    // The deadlock under test strands both tasks' coroutine frames by
    // design; they are not reclaimable, so exempt them from LeakSanitizer.
    __lsan::ScopedDisabler no_leak_check;
#endif
    // Once per produce kind: data, pointer and AMO produces all hold the
    // shared pipe head while parked on a full queue.
    for (StoreOp kind :
         {StoreOp::ProduceData, StoreOp::ProducePtr, StoreOp::ProduceAmoAdd}) {
        SCOPED_TRACE(static_cast<unsigned>(kind));
        soc::SocConfig cfg = soc::SocConfig::fpga();
        cfg.maple_proto.shared_pipeline_hazard = true;
        Fixture f(cfg);
        const sim::Addr a = f.proc.alloc(8, "A");

        auto driver = [&](cpu::Core &c) -> sim::Task<void> {
            co_await f.api.init(c, 1, 2, 8);
            EXPECT_TRUE(co_await f.api.open(c, 0));
            co_await f.api.produce(c, 0, 0);
            co_await f.api.produce(c, 0, 1);
            // The 3rd produce parks on the full queue.
            co_await c.store(core::encodeStore(f.api.base(), 0, kind),
                             kind == StoreOp::ProduceData ? 2 : a);
            co_await c.storeFence();  // wait for the parked produce's ack
        };
        auto consumer = [&](cpu::Core &c) -> sim::Task<void> {
            co_await sim::delay(f.soc.eq(), 3000);
            // With a single shared pipeline this consume serializes *behind*
            // the parked produce and can never free the space it is waiting
            // for.
            (void)co_await f.api.consume(c, 0);
        };

        sim::Join j1 = sim::spawn(driver(f.soc.core(0)));
        sim::Join j2 = sim::spawn(consumer(f.soc.core(1)));
        // Deadlock: the event queue drains with both tasks incomplete, which
        // the liveness machinery converts into a typed, catchable error whose
        // report names the parked waiters (instead of the pre-watchdog silent
        // hang).
        try {
            f.soc.run({j1, j2}, 2'000'000);
            ADD_FAILURE() << "expected sim::DeadlockError";
        } catch (const sim::DeadlockError &e) {
            EXPECT_NE(std::string(e.report()).find("pipe_head"),
                      std::string::npos)
                << e.report();
        }
        EXPECT_TRUE(f.soc.eq().empty());
        EXPECT_FALSE(j1.done());
        EXPECT_FALSE(j2.done());
    }
}

TEST(Maple, ConsumePairPacksTwo32BitEntries)
{
    Fixture f;
    std::vector<std::uint32_t> got;

    auto driver = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 1, 16, 4);
        EXPECT_TRUE(co_await f.api.open(c, 0));
        for (std::uint32_t i = 0; i < 10; ++i)
            co_await f.api.produce(c, 0, 0xa0 + i);
        for (int i = 0; i < 5; ++i) {
            std::uint64_t pair = co_await f.api.consumePair(c, 0);
            got.push_back(static_cast<std::uint32_t>(pair & 0xffffffff));
            got.push_back(static_cast<std::uint32_t>(pair >> 32));
        }
    };
    f.soc.run({sim::spawn(driver(f.soc.core(0)))}, 1'000'000);

    ASSERT_EQ(got.size(), 10u);
    for (std::uint32_t i = 0; i < 10; ++i)
        EXPECT_EQ(got[i], 0xa0 + i);
}

TEST(Maple, LimaNonSpeculativeFillsQueueWithIndirectData)
{
    Fixture f;
    constexpr int kN = 128;
    // B[i] = permutation index; A[j] = j + 5000.
    sim::Addr a = f.proc.alloc(kN * 4, "A");
    sim::Addr b = f.proc.alloc(kN * 4, "B");
    for (int i = 0; i < kN; ++i) {
        f.proc.writeScalar<std::uint32_t>(b + 4 * i, std::uint32_t((i * 61) % kN));
        f.proc.writeScalar<std::uint32_t>(a + 4 * i, std::uint32_t(i + 5000));
    }

    std::vector<std::uint32_t> got;
    auto driver = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 1, 32, 4);
        EXPECT_TRUE(co_await f.api.open(c, 0));
        LimaRequest req;
        req.a_base = a;
        req.b_base = b;
        req.start = 0;
        req.end = kN;
        req.b_elem_bytes = 4;
        req.a_elem_bytes = 4;
        req.speculative = false;
        req.target_queue = 0;
        co_await f.api.lima(c, req);
        for (int i = 0; i < kN; ++i)
            got.push_back(
                static_cast<std::uint32_t>(co_await f.api.consume(c, 0)));
    };
    f.soc.run({sim::spawn(driver(f.soc.core(0)))}, 50'000'000);

    ASSERT_EQ(got.size(), size_t(kN));
    for (int i = 0; i < kN; ++i)
        EXPECT_EQ(got[i], std::uint32_t((i * 61) % kN + 5000));
    EXPECT_EQ(f.soc.maple().counter(Counter::LimaElements), unsigned(kN));
    EXPECT_EQ(f.soc.maple().counter(Counter::LimaCommands), 1u);
}

TEST(Maple, LimaSpeculativePrefetchesIntoLlc)
{
    Fixture f;
    constexpr int kN = 64;
    sim::Addr a = f.proc.alloc(kN * 64, "A");  // one line per element
    sim::Addr b = f.proc.alloc(kN * 4, "B");
    for (int i = 0; i < kN; ++i)
        f.proc.writeScalar<std::uint32_t>(b + 4 * i, std::uint32_t(i * 16));

    auto driver = [&](cpu::Core &c) -> sim::Task<void> {
        LimaRequest req;
        req.a_base = a;
        req.b_base = b;
        req.start = 0;
        req.end = kN;
        req.speculative = true;
        co_await f.api.lima(c, req);
    };
    f.soc.run({sim::spawn(driver(f.soc.core(0)))}, 10'000'000);

    EXPECT_EQ(f.soc.maple().counter(Counter::PrefetchesIssued), unsigned(kN));
    // Spot-check: prefetched lines are now resident in the LLC.
    auto pa = f.proc.pageTable().translate(a, mem::Perms{});
    ASSERT_TRUE(pa.has_value());
    EXPECT_TRUE(f.soc.llc().probe(*pa));
}

TEST(Maple, PageFaultIsResolvedByDriverAndFetchCompletes)
{
    Fixture f;
    constexpr int kN = 16;
    sim::Addr a = f.proc.allocLazy(kN * 8, "lazy");  // unmapped until touched
    // Functional writes demand-map zeroed pages, then fill them.
    for (int i = 0; i < kN; ++i)
        f.proc.writeScalar<std::uint64_t>(a + 8 * i, 100 + i);
    // Unmap one page again so MAPLE's PTW faults on it.
    f.proc.unmapPage(a);

    std::vector<std::uint64_t> got;
    auto driver = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 1, 16, 8);
        EXPECT_TRUE(co_await f.api.open(c, 0));
        for (int i = 0; i < kN; ++i)
            co_await f.api.producePtr(c, 0, a + 8 * i);
        for (int i = 0; i < kN; ++i)
            got.push_back(co_await f.api.consume(c, 0));
    };
    f.soc.run({sim::spawn(driver(f.soc.core(0)))}, 10'000'000);

    ASSERT_EQ(got.size(), size_t(kN));
    EXPECT_GE(f.soc.maple().counter(Counter::PageFaults), 1u);
    EXPECT_GE(f.soc.kernel().faultsServiced(), 1u);
    // The remapped page is a *fresh* zero frame (the data went away with the
    // unmap; this matches demand-zero paging), so values must read as zero.
    for (int i = 0; i < kN; ++i)
        EXPECT_EQ(got[i], 0u);
}

TEST(Maple, TlbShootdownInvalidatesMapleTranslations)
{
    Fixture f;
    sim::Addr a = f.proc.alloc(mem::kPageSize, "A");
    f.proc.writeScalar<std::uint64_t>(a, 11);

    auto driver = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 1, 8, 8);
        EXPECT_TRUE(co_await f.api.open(c, 0));
        co_await f.api.producePtr(c, 0, a);
        EXPECT_EQ(co_await f.api.consume(c, 0), 11u);
    };
    f.soc.run({sim::spawn(driver(f.soc.core(0)))}, 1'000'000);

    // MAPLE's TLB now caches the page; a shootdown must drop it.
    EXPECT_TRUE(f.soc.maple().mmu().tlb().lookup(a).has_value());
    f.proc.unmapPage(a);
    EXPECT_FALSE(f.soc.maple().mmu().tlb().lookup(a).has_value());
}

TEST(Maple, OpenIsExclusiveUntilClosed)
{
    Fixture f;
    auto driver = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 2, 8, 8);
        EXPECT_TRUE(co_await f.api.open(c, 0));
        EXPECT_FALSE(co_await f.api.open(c, 0));  // already bound
        EXPECT_TRUE(co_await f.api.open(c, 1));
        co_await f.api.close(c, 0);
        EXPECT_TRUE(co_await f.api.open(c, 0));  // rebindable after close
    };
    f.soc.run({sim::spawn(driver(f.soc.core(0)))}, 1'000'000);
}

TEST(Maple, CloseDiscardsInFlightFetches)
{
    Fixture f;
    sim::Addr a = f.proc.alloc(64 * 8, "A");
    for (int i = 0; i < 64; ++i)
        f.proc.writeScalar<std::uint64_t>(a + 8 * i, i);

    auto driver = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 1, 32, 8);
        EXPECT_TRUE(co_await f.api.open(c, 0));
        for (int i = 0; i < 8; ++i)
            co_await f.api.producePtr(c, 0, a + 8 * i);
        // Close immediately: DRAM responses are still in flight and must be
        // dropped by the generation check, not corrupt the reset queue.
        co_await f.api.close(c, 0);
        EXPECT_TRUE(co_await f.api.open(c, 0));
        EXPECT_EQ(co_await f.api.occupancy(c, 0), 0u);
        // The queue still works normally afterwards.
        co_await f.api.produce(c, 0, 99);
        EXPECT_EQ(co_await f.api.consume(c, 0), 99u);
    };
    f.soc.run({sim::spawn(driver(f.soc.core(0)))}, 10'000'000);
}

TEST(Maple, CountersReadableOverMmioAndResettable)
{
    Fixture f;
    auto driver = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 1, 8, 8);
        EXPECT_TRUE(co_await f.api.open(c, 0));
        for (int i = 0; i < 7; ++i)
            co_await f.api.produce(c, 0, i);
        for (int i = 0; i < 7; ++i)
            (void)co_await f.api.consume(c, 0);
        EXPECT_EQ(co_await f.api.readCounter(c, Counter::ProducedData), 7u);
        EXPECT_EQ(co_await f.api.readCounter(c, Counter::Consumed), 7u);
        co_await f.api.resetCounters(c);
        EXPECT_EQ(co_await f.api.readCounter(c, Counter::ProducedData), 0u);
    };
    f.soc.run({sim::spawn(driver(f.soc.core(0)))}, 1'000'000);
}

TEST(Maple, ScratchpadBudgetIsEnforced)
{
    Fixture f;
    auto driver = [&](cpu::Core &c) -> sim::Task<void> {
        // 8 queues x 64 entries x 8B = 4KB > the 1KB scratchpad: rejected,
        // previous configuration (power-on default) stays in place.
        co_await f.api.init(c, 8, 64, 8);
        EXPECT_EQ(f.soc.maple().queue(0).capacity() *
                      f.soc.maple().queue(0).entryBytes() * 8,
                  f.soc.maple().params().scratchpad_bytes);
    };
    f.soc.run({sim::spawn(driver(f.soc.core(0)))}, 1'000'000);
}
