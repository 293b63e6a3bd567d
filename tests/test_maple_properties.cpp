/**
 * @file
 * Property-based tests of MAPLE's correctness invariants -- the simulation
 * stand-in for the paper's JasperGold/SVA unit-level verification (Section
 * 3.9). Randomized stimulus is checked against a reference model across
 * parameter sweeps:
 *
 *  P1. FIFO property: values leave a queue in exactly the order their
 *      produces entered, for any interleaving of data- and pointer-produces,
 *      any queue geometry, and out-of-order memory responses.
 *  P2. No loss / no duplication / no invention of entries.
 *  P3. Liveness: every produce is eventually consumable and every parked
 *      consume eventually completes, under randomized timing.
 *  P4. Occupancy never exceeds the configured capacity (no overflow), and
 *      the scratchpad budget bounds total configured storage.
 *  P5. Independence: traffic on other queues never reorders a queue.
 */
#include <gtest/gtest.h>

#include <deque>

#include "core/maple_runtime.hpp"
#include "sim/random.hpp"
#include "soc/soc.hpp"

using namespace maple;
using core::MapleApi;

namespace {

struct PropFixture {
    soc::Soc soc;
    os::Process &proc;
    MapleApi api;

    PropFixture()
        : soc(soc::SocConfig::fpga()), proc(soc.createProcess("prop")),
          api(MapleApi::attach(proc, soc.maple()))
    {
    }
};

}  // namespace

/** P1+P2+P3 under a randomized mix of data/pointer produces. */
class MapleFifoProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned, unsigned>> {
};

TEST_P(MapleFifoProperty, RandomizedMixedProduceStream)
{
    auto [entries, entry_bytes, seed] = GetParam();
    PropFixture f;

    constexpr int kOps = 300;
    sim::Rng rng(seed);

    // Backing array for pointer produces; data scattered across pages.
    sim::Addr mem = f.proc.alloc(kOps * 64, "mem");
    std::vector<std::uint64_t> expected;
    struct Item {
        bool is_ptr;
        std::uint64_t payload;  // value or pointer
    };
    std::vector<Item> plan;
    for (int i = 0; i < kOps; ++i) {
        bool is_ptr = rng.below(2) == 0;
        std::uint64_t value = rng.next() & (entry_bytes == 4 ? 0xffffffffull
                                                             : ~0ull);
        if (is_ptr) {
            sim::Addr slot = mem + 64 * sim::Addr(i);  // distinct per op
            f.proc.writeBytes(slot, &value, entry_bytes);
            plan.push_back({true, slot});
        } else {
            plan.push_back({false, value});
        }
        expected.push_back(value);
    }

    std::vector<std::uint64_t> got;
    auto producer = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 1, entries, entry_bytes);
        bool ok = co_await f.api.open(c, 0);
        EXPECT_TRUE(ok);
        sim::Rng delay_rng(seed ^ 0x1234);
        for (const Item &item : plan) {
            if (delay_rng.below(4) == 0)
                co_await sim::delay(f.soc.eq(), delay_rng.below(100));
            if (item.is_ptr)
                co_await f.api.producePtr(c, 0, item.payload);
            else
                co_await f.api.produce(c, 0, item.payload);
        }
    };
    auto consumer = [&](cpu::Core &c) -> sim::Task<void> {
        co_await sim::delay(f.soc.eq(), 500);
        sim::Rng delay_rng(seed ^ 0x5678);
        for (int i = 0; i < kOps; ++i) {
            if (delay_rng.below(4) == 0)
                co_await sim::delay(f.soc.eq(), delay_rng.below(150));
            got.push_back(co_await f.api.consume(c, 0));
        }
    };

    f.soc.run({sim::spawn(producer(f.soc.core(0))),
               sim::spawn(consumer(f.soc.core(1)))},
              200'000'000);

    // P2: nothing lost, invented or duplicated; P1: exact order.
    ASSERT_EQ(got.size(), expected.size());
    for (int i = 0; i < kOps; ++i) {
        std::uint64_t mask = entry_bytes == 4 ? 0xffffffffull : ~0ull;
        ASSERT_EQ(got[i] & mask, expected[i] & mask)
            << "FIFO violated at " << i << " (entries=" << entries
            << " bytes=" << entry_bytes << " seed=" << seed << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MapleFifoProperty,
    ::testing::Values(std::make_tuple(4u, 8u, 1u), std::make_tuple(8u, 4u, 2u),
                      std::make_tuple(16u, 8u, 3u), std::make_tuple(32u, 4u, 4u),
                      std::make_tuple(32u, 8u, 5u), std::make_tuple(64u, 4u, 6u),
                      std::make_tuple(2u, 8u, 7u), std::make_tuple(128u, 4u, 8u)));

/** P4: occupancy is bounded by capacity at every consume observation. */
TEST(MapleProperties, OccupancyNeverExceedsCapacity)
{
    PropFixture f;
    constexpr unsigned kCap = 8;
    bool violated = false;

    auto producer = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 1, kCap, 8);
        bool ok = co_await f.api.open(c, 0);
        EXPECT_TRUE(ok);
        for (int i = 0; i < 200; ++i)
            co_await f.api.produce(c, 0, i);
    };
    auto watcher = [&](cpu::Core &c) -> sim::Task<void> {
        co_await sim::delay(f.soc.eq(), 400);
        for (int i = 0; i < 200; ++i) {
            std::uint64_t occ = co_await f.api.occupancy(c, 0);
            violated |= occ > kCap;
            (void)co_await f.api.consume(c, 0);
        }
    };
    f.soc.run({sim::spawn(producer(f.soc.core(0))),
               sim::spawn(watcher(f.soc.core(1)))},
              100'000'000);
    EXPECT_FALSE(violated);
    // Direct structural check too.
    EXPECT_LE(f.soc.maple().queue(0).occupancy(), kCap);
}

/** P5: heavy traffic on queue 1 never perturbs queue 0's order. */
TEST(MapleProperties, IndependentQueuesDoNotInterfere)
{
    PropFixture f;
    std::vector<std::uint64_t> got0;
    sim::Signal configured;  // queues must exist before the noise starts

    auto setup_and_q0 = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 2, 16, 8);
        bool a = co_await f.api.open(c, 0);
        bool b = co_await f.api.open(c, 1);
        EXPECT_TRUE(a && b);
        configured.set();
        for (std::uint64_t i = 0; i < 100; ++i) {
            co_await f.api.produce(c, 0, 5000 + i);
            got0.push_back(co_await f.api.consume(c, 0));
        }
    };
    auto noise_q1 = [&](cpu::Core &c) -> sim::Task<void> {
        co_await configured;
        // Bursts of 8 produces drained by 8 consumes: constant pressure on
        // queue 1 without ever exceeding its own capacity.
        for (int burst = 0; burst < 40; ++burst) {
            for (std::uint64_t i = 0; i < 8; ++i)
                co_await f.api.produce(c, 1, burst * 8 + i);
            for (int i = 0; i < 8; ++i)
                (void)co_await f.api.consume(c, 1);
        }
    };
    f.soc.run({sim::spawn(setup_and_q0(f.soc.core(0))),
               sim::spawn(noise_q1(f.soc.core(1)))},
              100'000'000);
    ASSERT_EQ(got0.size(), 100u);
    for (std::uint64_t i = 0; i < 100; ++i)
        EXPECT_EQ(got0[i], 5000 + i);
}

/** P3 liveness under pathological geometry: capacity-1 queue. */
TEST(MapleProperties, CapacityOneQueueStaysLive)
{
    PropFixture f;
    std::vector<std::uint64_t> got;
    auto producer = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 1, 1, 8);
        bool ok = co_await f.api.open(c, 0);
        EXPECT_TRUE(ok);
        for (int i = 0; i < 64; ++i)
            co_await f.api.produce(c, 0, i);
    };
    auto consumer = [&](cpu::Core &c) -> sim::Task<void> {
        co_await sim::delay(f.soc.eq(), 2000);
        for (int i = 0; i < 64; ++i)
            got.push_back(co_await f.api.consume(c, 0));
    };
    f.soc.run({sim::spawn(producer(f.soc.core(0))),
               sim::spawn(consumer(f.soc.core(1)))},
              100'000'000);
    ASSERT_EQ(got.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(got[i], std::uint64_t(i));
}

/** TLB-size sweep: translation behavior is invariant, only timing moves. */
class MapleTlbSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(MapleTlbSweep, PointerProducesCorrectAcrossTlbSizes)
{
    soc::SocConfig cfg = soc::SocConfig::fpga();
    cfg.maple_proto.tlb_entries = GetParam();
    soc::Soc soc(cfg);
    os::Process &proc = soc.createProcess("tlb");
    MapleApi api = MapleApi::attach(proc, soc.maple());

    constexpr int kN = 64;
    // One element per page: maximal TLB pressure.
    sim::Addr mem = proc.alloc(kN * mem::kPageSize, "pages");
    for (int i = 0; i < kN; ++i)
        proc.writeScalar<std::uint64_t>(mem + i * mem::kPageSize, 900 + i);

    std::vector<std::uint64_t> got;
    auto t = [&](cpu::Core &c) -> sim::Task<void> {
        co_await api.init(c, 1, 16, 8);
        bool ok = co_await api.open(c, 0);
        EXPECT_TRUE(ok);
        // Interleave in batches below the queue+buffer capacity: a single
        // thread producing everything up front would stall on its own
        // backpressure with nobody consuming.
        for (int base = 0; base < kN; base += 8) {
            for (int i = base; i < base + 8; ++i)
                co_await api.producePtr(c, 0, mem + i * mem::kPageSize);
            for (int i = 0; i < 8; ++i)
                got.push_back(co_await api.consume(c, 0));
        }
    };
    soc.run({sim::spawn(t(soc.core(0)))}, 100'000'000);
    ASSERT_EQ(got.size(), size_t(kN));
    for (int i = 0; i < kN; ++i)
        EXPECT_EQ(got[i], 900u + i);
    if (GetParam() < kN) {
        EXPECT_GT(soc.maple().mmu().tlb().misses(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MapleTlbSweep,
                         ::testing::Values(2u, 4u, 16u, 64u, 128u));

/** ConsumePair preserves pairing across arbitrary stream lengths. */
class PairSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(PairSweep, PairedConsumptionReassemblesStream)
{
    const unsigned n = GetParam();
    PropFixture f;
    std::vector<std::uint32_t> got;
    auto t = [&](cpu::Core &c) -> sim::Task<void> {
        co_await f.api.init(c, 1, 32, 4);
        bool ok = co_await f.api.open(c, 0);
        EXPECT_TRUE(ok);
        // Produce in batches that fit the queue (single-threaded driver).
        std::uint32_t produced = 0, left = n;
        auto top_up = [&]() -> sim::Task<void> {
            while (produced < n && produced - (n - left) < 30) {
                co_await f.api.produce(c, 0, 0xc0de0000u + produced);
                ++produced;
            }
        };
        co_await top_up();
        while (left >= 2) {
            std::uint64_t pair = co_await f.api.consumePair(c, 0);
            got.push_back(static_cast<std::uint32_t>(pair));
            got.push_back(static_cast<std::uint32_t>(pair >> 32));
            left -= 2;
            co_await top_up();
        }
        if (left)
            got.push_back(
                static_cast<std::uint32_t>(co_await f.api.consume(c, 0)));
    };
    f.soc.run({sim::spawn(t(f.soc.core(0)))}, 100'000'000);
    ASSERT_EQ(got.size(), n);
    for (std::uint32_t i = 0; i < n; ++i)
        EXPECT_EQ(got[i], 0xc0de0000u + i);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PairSweep,
                         ::testing::Values(1u, 2u, 3u, 31u, 32u, 33u, 100u));
