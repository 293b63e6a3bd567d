/**
 * @file
 * Unit tests for the baseline models: the shared-memory software queue,
 * DeSC's architectural queue pair, and the DROPLET memory-side prefetcher.
 */
#include <gtest/gtest.h>

#include "baselines/desc.hpp"
#include "baselines/droplet.hpp"
#include "baselines/sw_queue.hpp"
#include "soc/soc.hpp"

using namespace maple;

// ---------------------------------------------------------------------------
// Software queue
// ---------------------------------------------------------------------------

TEST(SwQueue, FifoOrderAcrossCores)
{
    soc::Soc soc(soc::SocConfig::fpga());
    os::Process &proc = soc.createProcess("swq");
    baselines::SwQueue q(proc, 16);

    std::vector<std::uint64_t> got;
    auto producer = [&](cpu::Core &c) -> sim::Task<void> {
        for (std::uint64_t i = 0; i < 100; ++i)
            co_await q.produce(c, i * 3);
    };
    auto consumer = [&](cpu::Core &c) -> sim::Task<void> {
        for (int i = 0; i < 100; ++i)
            got.push_back(co_await q.consume(c));
    };
    soc.run({sim::spawn(producer(soc.core(0))),
             sim::spawn(consumer(soc.core(1)))},
            50'000'000);
    ASSERT_EQ(got.size(), 100u);
    for (std::uint64_t i = 0; i < 100; ++i)
        EXPECT_EQ(got[i], i * 3);
}

TEST(SwQueue, BackpressureOnTinyRing)
{
    soc::Soc soc(soc::SocConfig::fpga());
    os::Process &proc = soc.createProcess("swq");
    baselines::SwQueue q(proc, 2);

    std::vector<std::uint64_t> got;
    auto producer = [&](cpu::Core &c) -> sim::Task<void> {
        for (std::uint64_t i = 0; i < 20; ++i)
            co_await q.produce(c, i);
    };
    auto consumer = [&](cpu::Core &c) -> sim::Task<void> {
        co_await sim::delay(soc.eq(), 10'000);  // force the ring full
        for (int i = 0; i < 20; ++i)
            got.push_back(co_await q.consume(c));
    };
    soc.run({sim::spawn(producer(soc.core(0))),
             sim::spawn(consumer(soc.core(1)))},
            50'000'000);
    ASSERT_EQ(got.size(), 20u);
    for (std::uint64_t i = 0; i < 20; ++i)
        EXPECT_EQ(got[i], i);
}

TEST(SwQueue, CostsRealInstructionsAndSharedAccesses)
{
    soc::Soc soc(soc::SocConfig::fpga());
    os::Process &proc = soc.createProcess("swq");
    baselines::SwQueue q(proc, 64);
    auto t = [&](cpu::Core &c) -> sim::Task<void> {
        for (int i = 0; i < 10; ++i)
            co_await q.produce(c, i);
        for (int i = 0; i < 10; ++i)
            (void)co_await q.consume(c);
    };
    soc.run({sim::spawn(t(soc.core(0)))}, 10'000'000);
    // Each produce/consume costs several instructions plus LLC-level
    // shared accesses -- the software overhead MAPLE eliminates.
    EXPECT_GT(soc.core(0).instructions(), 100u);
    EXPECT_GT(soc.core(0).stats().counterValue("shared_loads"), 10u);
}

// ---------------------------------------------------------------------------
// DeSC
// ---------------------------------------------------------------------------

namespace {

struct DescFixture {
    soc::Soc soc{soc::SocConfig::fpga()};
    os::Process &proc{soc.createProcess("desc")};
    baselines::DescQueue dq{soc.eq(), soc.physMem(),
                            soc.addLlcPort(soc.coreTile(0))};
};

}  // namespace

TEST(Desc, ValuesFlowSupplyToCompute)
{
    DescFixture f;
    std::vector<std::uint64_t> got;
    auto supply = [&](cpu::Core &c) -> sim::Task<void> {
        for (std::uint64_t i = 0; i < 32; ++i)
            co_await f.dq.produceValue(c, 1000 + i);
    };
    auto compute = [&](cpu::Core &c) -> sim::Task<void> {
        for (int i = 0; i < 32; ++i)
            got.push_back(co_await f.dq.consume(c));
    };
    f.soc.run({sim::spawn(supply(f.soc.core(0))),
               sim::spawn(compute(f.soc.core(1)))},
              10'000'000);
    ASSERT_EQ(got.size(), 32u);
    for (std::uint64_t i = 0; i < 32; ++i)
        EXPECT_EQ(got[i], 1000 + i);
}

TEST(Desc, TerminalLoadsCommitEarlyAndArriveInOrder)
{
    DescFixture f;
    constexpr int kN = 64;
    sim::Addr a = f.proc.alloc(kN * 4, "A");
    for (int i = 0; i < kN; ++i)
        f.proc.writeScalar<std::uint32_t>(a + 4 * i, 7000 + i);

    std::vector<std::uint64_t> got;
    sim::Cycle supply_done = 0;
    auto supply = [&](cpu::Core &c) -> sim::Task<void> {
        for (int i = 0; i < kN; ++i) {
            // Scrambled order, cold lines: responses return out of order.
            int j = (i * 29) % kN;
            co_await f.dq.produceLoad(c, a + 4 * j, 4);
        }
        supply_done = f.soc.eq().now();
    };
    auto compute = [&](cpu::Core &c) -> sim::Task<void> {
        for (int i = 0; i < kN; ++i)
            got.push_back(co_await f.dq.consume(c));
    };
    f.soc.run({sim::spawn(supply(f.soc.core(0))),
               sim::spawn(compute(f.soc.core(1)))},
              10'000'000);
    ASSERT_EQ(got.size(), size_t(kN));
    for (int i = 0; i < kN; ++i)
        EXPECT_EQ(got[i], 7000u + (i * 29) % kN);
    // Early commit: Supply finished long before kN x DRAM-latency.
    EXPECT_LT(supply_done, sim::Cycle(kN) * 300);
}

TEST(Desc, ComputeStoresArePerformedBySupply)
{
    DescFixture f;
    sim::Addr out = f.proc.alloc(256, "out");
    auto compute = [&](cpu::Core &c) -> sim::Task<void> {
        for (std::uint64_t i = 0; i < 8; ++i)
            co_await f.dq.produceStore(c, out + 4 * i, 40 + i);
        f.dq.finishCompute();
    };
    auto supply = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.dq.drainStoresToEnd(c);
        co_await c.storeFence();
    };
    f.soc.run({sim::spawn(compute(f.soc.core(1))),
               sim::spawn(supply(f.soc.core(0)))},
              10'000'000);
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(f.proc.readScalar<std::uint32_t>(out + 4 * i), 40 + i);
}

TEST(Desc, SupplyBufferBoundsOutstandingLoads)
{
    baselines::DescParams p;
    p.supply_buffer = 2;
    soc::Soc soc(soc::SocConfig::fpga());
    os::Process &proc = soc.createProcess("desc");
    baselines::DescQueue dq(soc.eq(), soc.physMem(),
                            soc.addLlcPort(soc.coreTile(0)), p);
    sim::Addr a = proc.alloc(64 * 64, "A");

    sim::Cycle supply_done = 0;
    auto supply = [&](cpu::Core &c) -> sim::Task<void> {
        for (int i = 0; i < 16; ++i)
            co_await dq.produceLoad(c, a + 64 * i, 4);  // all cold misses
        supply_done = soc.eq().now();
    };
    auto compute = [&](cpu::Core &c) -> sim::Task<void> {
        for (int i = 0; i < 16; ++i)
            (void)co_await dq.consume(c);
    };
    soc.run({sim::spawn(supply(soc.core(0))),
             sim::spawn(compute(soc.core(1)))},
            10'000'000);
    // With only 2 outstanding slots the supply itself throttles: 16 misses
    // in waves of 2 -> at least (16/2 - 1) x ~300 cycles.
    EXPECT_GT(supply_done, 2000u);
}

// ---------------------------------------------------------------------------
// DROPLET
// ---------------------------------------------------------------------------

TEST(Droplet, BufferHitsAccelerateIndirectDemands)
{
    soc::Soc soc(soc::SocConfig::fpga());
    os::Process &proc = soc.createProcess("droplet");
    constexpr int kN = 256;
    sim::Addr b = proc.alloc(kN * 4, "B");
    sim::Addr a = proc.alloc(kN * 64, "A");
    for (int i = 0; i < kN; ++i)
        proc.writeScalar<std::uint32_t>(b + 4 * i, std::uint32_t((i * 53) % kN) * 16);

    baselines::DropletPrefetcher droplet(soc);
    droplet.bind(proc, b, kN, 4, a, 4);

    auto worker = [&](cpu::Core &c) -> sim::Task<void> {
        for (int i = 0; i < kN; ++i) {
            std::uint64_t idx = co_await c.load(b + 4 * i, 4);
            (void)co_await c.load(a + idx * 4, 4);  // the indirect access
            co_await c.compute(1);
        }
    };
    soc.run({sim::spawn(worker(soc.core(0)))}, 50'000'000);
    EXPECT_GT(droplet.prefetchesIssued(), unsigned(kN) / 2);
    EXPECT_GT(droplet.bufferHits(), 10u) << "prefetched lines never used";
}

TEST(Droplet, UnboundTrafficPassesThroughUntouched)
{
    soc::Soc soc(soc::SocConfig::fpga());
    os::Process &proc = soc.createProcess("droplet");
    sim::Addr buf = proc.alloc(4096, "buf");
    baselines::DropletPrefetcher droplet(soc);  // no bindings

    auto worker = [&](cpu::Core &c) -> sim::Task<void> {
        for (int i = 0; i < 32; ++i)
            (void)co_await c.load(buf + 64 * i, 4);
    };
    soc.run({sim::spawn(worker(soc.core(0)))}, 10'000'000);
    EXPECT_EQ(droplet.prefetchesIssued(), 0u);
    EXPECT_EQ(droplet.bufferHits(), 0u);
}

TEST(Droplet, DetachRestoresDirectLlcPath)
{
    soc::Soc soc(soc::SocConfig::fpga());
    os::Process &proc = soc.createProcess("droplet");
    sim::Addr buf = proc.alloc(4096, "buf");
    {
        baselines::DropletPrefetcher droplet(soc);
    }  // destructor detaches the interposer
    auto worker = [&](cpu::Core &c) -> sim::Task<void> {
        (void)co_await c.load(buf, 4);
    };
    soc.run({sim::spawn(worker(soc.core(0)))}, 10'000'000);
    SUCCEED();
}
