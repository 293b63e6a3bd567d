/**
 * @file
 * Unit tests for the memory substrate: physical memory, page tables, TLB,
 * caches (including parameterized geometry sweeps), DRAM timing and the MMU
 * walk/fault machinery.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "ckpt/serial.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/mmu.hpp"
#include "mem/page_table.hpp"
#include "mem/physical_memory.hpp"
#include "mem/tlb.hpp"
#include "sim/coro.hpp"
#include "sim/error.hpp"

using namespace maple;
using namespace maple::mem;

namespace {

/** Origin-request shorthand for driving ports directly in tests. */
MemRequest
coreReq(sim::EventQueue &eq, sim::Addr a, std::uint32_t size,
        AccessKind kind = AccessKind::Read)
{
    return MemRequest::make(eq, RequesterClass::Core, /*tile=*/0, a, size, kind);
}

}  // namespace

// ---------------------------------------------------------------------------
// PhysicalMemory
// ---------------------------------------------------------------------------

TEST(PhysicalMemory, UntouchedMemoryReadsAsZero)
{
    PhysicalMemory pm(1 << 20);
    EXPECT_EQ(pm.readU64(0x1234), 0u);
    EXPECT_EQ(pm.residentPages(), 0u);
}

TEST(PhysicalMemory, ReadWriteRoundTrip)
{
    PhysicalMemory pm(1 << 20);
    pm.writeU64(0x100, 0xdeadbeefcafef00dull);
    EXPECT_EQ(pm.readU64(0x100), 0xdeadbeefcafef00dull);
    pm.writeU32(0x104, 0x11112222);
    EXPECT_EQ(pm.readU64(0x100), 0x11112222cafef00dull);
}

TEST(PhysicalMemory, CrossPageAccess)
{
    PhysicalMemory pm(1 << 20);
    std::vector<std::uint8_t> data(kPageSize + 128);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7);
    sim::Addr base = kPageSize - 64;  // straddles a page boundary
    pm.write(base, data.data(), data.size());
    std::vector<std::uint8_t> back(data.size());
    pm.read(base, back.data(), back.size());
    EXPECT_EQ(data, back);
    EXPECT_EQ(pm.residentPages(), 3u);
}

TEST(PhysicalMemory, OutOfRangeAccessPanics)
{
    PhysicalMemory pm(1 << 20);
    EXPECT_THROW(pm.readU64((1 << 20) - 4), std::logic_error);
    EXPECT_THROW(pm.writeU64(1 << 20, 1), std::logic_error);
}

// ---------------------------------------------------------------------------
// PageTable
// ---------------------------------------------------------------------------

namespace {

struct PtFixture {
    PhysicalMemory pm{1 << 24};
    sim::Addr next_frame = 0;
    PageTable pt{pm, [this] {
                     sim::Addr f = next_frame;
                     next_frame += kPageSize;
                     return f;
                 }};
};

}  // namespace

TEST(PageTable, MapTranslateUnmap)
{
    PtFixture f;
    f.pt.map(0x4000'0000, 0x1000, /*writable=*/true);
    auto pa = f.pt.translate(0x4000'0123, Perms{false});
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(*pa, 0x1123u);
    f.pt.unmap(0x4000'0000);
    EXPECT_FALSE(f.pt.translate(0x4000'0123, Perms{false}).has_value());
}

TEST(PageTable, WritePermissionEnforced)
{
    PtFixture f;
    f.pt.map(0x5000'0000, 0x2000, /*writable=*/false);
    EXPECT_TRUE(f.pt.translate(0x5000'0000, Perms{false}).has_value());
    EXPECT_FALSE(f.pt.translate(0x5000'0000, Perms{true}).has_value());
}

TEST(PageTable, DistantPagesShareNoLeafTable)
{
    PtFixture f;
    size_t before = f.pt.tablePages();
    f.pt.map(0x0000'1000, 0x1000, true);
    // 1GB apart: different level-1 tables.
    f.pt.map(0x4000'0000ull, 0x2000, true);
    EXPECT_GE(f.pt.tablePages(), before + 3);
}

TEST(PageTable, RemapOverwrites)
{
    PtFixture f;
    f.pt.map(0x6000'0000, 0x1000, true);
    f.pt.map(0x6000'0000, 0x9000, true);
    EXPECT_EQ(*f.pt.translate(0x6000'0000, Perms{false}), 0x9000u);
}

TEST(PageTable, WalkReturnsLeafPte)
{
    PtFixture f;
    f.pt.map(0x7000'0000, 0x3000, true);
    auto pte = f.pt.walk(0x7000'0000);
    ASSERT_TRUE(pte.has_value());
    EXPECT_TRUE(pte->leaf());
    EXPECT_TRUE(pte->writable());
    EXPECT_EQ(pte->paddrBase(), 0x3000u);
}

// ---------------------------------------------------------------------------
// TLB
// ---------------------------------------------------------------------------

TEST(Tlb, HitAfterInsertMissBefore)
{
    Tlb tlb(4);
    EXPECT_FALSE(tlb.lookup(0x1000).has_value());
    tlb.insert(0x1000, Pte::makeLeaf(0x8000, true));
    auto pte = tlb.lookup(0x1000);
    ASSERT_TRUE(pte.has_value());
    EXPECT_EQ(pte->paddrBase(), 0x8000u);
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, LruEvictionOrder)
{
    Tlb tlb(2);
    tlb.insert(0x1000, Pte::makeLeaf(0x1000, true));
    tlb.insert(0x2000, Pte::makeLeaf(0x2000, true));
    // Touch 0x1000 so 0x2000 becomes LRU.
    EXPECT_TRUE(tlb.lookup(0x1000).has_value());
    tlb.insert(0x3000, Pte::makeLeaf(0x3000, true));
    EXPECT_TRUE(tlb.lookup(0x1000).has_value());
    EXPECT_FALSE(tlb.lookup(0x2000).has_value()) << "LRU entry not evicted";
    EXPECT_TRUE(tlb.lookup(0x3000).has_value());
}

TEST(Tlb, InvalidateDropsOnlyTargetPage)
{
    Tlb tlb(8);
    tlb.insert(0x1000, Pte::makeLeaf(0x1000, true));
    tlb.insert(0x2000, Pte::makeLeaf(0x2000, true));
    tlb.invalidate(0x1abc);  // same page as 0x1000
    EXPECT_FALSE(tlb.lookup(0x1000).has_value());
    EXPECT_TRUE(tlb.lookup(0x2000).has_value());
}

TEST(Tlb, FlushDropsEverything)
{
    Tlb tlb(8);
    for (int i = 0; i < 8; ++i)
        tlb.insert(i * kPageSize, Pte::makeLeaf(i * kPageSize, true));
    tlb.flush();
    EXPECT_EQ(tlb.size(), 0u);
}

TEST(Tlb, CapacityNeverExceeded)
{
    Tlb tlb(16);
    for (int i = 0; i < 100; ++i)
        tlb.insert(i * kPageSize, Pte::makeLeaf(i * kPageSize, true));
    EXPECT_EQ(tlb.size(), 16u);
}

TEST(Tlb, StateRoundTripKeepsLruOrder)
{
    auto page = [](int i) { return static_cast<sim::Addr>(i) * kPageSize; };
    Tlb tlb(4);
    for (int i = 1; i <= 4; ++i)
        tlb.insert(page(i), Pte::makeLeaf(page(i), true));
    // Least to most recent afterwards: 3, 1, 4, 2.
    for (int i : {3, 1, 4, 2})
        ASSERT_TRUE(tlb.lookup(page(i)).has_value());

    std::stringstream img;
    ckpt::Sink out(img);
    tlb.state(out);
    Tlb restored(4);
    ckpt::Source in(img);
    restored.state(in);
    ASSERT_EQ(restored.size(), 4u);

    tlb.insert(page(5), Pte::makeLeaf(page(5), true));
    restored.insert(page(5), Pte::makeLeaf(page(5), true));
    EXPECT_FALSE(tlb.lookup(page(3)).has_value()) << "LRU page 3 not evicted";
    EXPECT_FALSE(restored.lookup(page(3)).has_value())
        << "restored TLB evicted another page than the original";
    for (int i : {1, 2, 4, 5})
        EXPECT_TRUE(restored.lookup(page(i)).has_value()) << "page " << i;
}

// ---------------------------------------------------------------------------
// FixedLatencyMem
// ---------------------------------------------------------------------------

namespace {

/** Completion time of one request against @p port, starting at eq.now(). */
sim::Cycle
timedRequest(sim::EventQueue &eq, Port &port, sim::Addr a, std::uint32_t size)
{
    sim::Cycle start = eq.now();
    sim::Join j = sim::spawn(port.request(coreReq(eq, a, size)));
    eq.run();
    j.get();
    return eq.now() - start;
}

}  // namespace

TEST(FixedLatencyMem, PureLatencyIgnoresSizeWhenUnthrottled)
{
    sim::EventQueue eq;
    FixedLatencyMem mem(eq, 25);  // bytes_per_cycle = 0: infinite bandwidth
    EXPECT_EQ(timedRequest(eq, mem, 0x1000, 8), 25u);
    EXPECT_EQ(timedRequest(eq, mem, 0x2000, 4096), 25u);
}

TEST(FixedLatencyMem, BytesPerCycleChargesTransferTime)
{
    sim::EventQueue eq;
    FixedLatencyMem mem(eq, 10, /*bytes_per_cycle=*/8);
    // 64B at 8B/cycle = 8 transfer cycles, plus the fixed 10-cycle latency.
    EXPECT_EQ(timedRequest(eq, mem, 0x1000, 64), 18u);
    // Sub-unit sizes round up to a whole transfer cycle.
    EXPECT_EQ(timedRequest(eq, mem, 0x2000, 1), 11u);
}

TEST(FixedLatencyMem, ConcurrentRequestsSerializeOnBandwidth)
{
    sim::EventQueue eq;
    FixedLatencyMem mem(eq, 10, /*bytes_per_cycle=*/8);
    std::vector<sim::Cycle> done;
    auto t = [&](sim::Addr a) -> sim::Task<void> {
        co_await mem.request(coreReq(eq, a, 64));
        done.push_back(eq.now());
    };
    sim::spawn(t(0x1000));
    sim::spawn(t(0x2000));
    eq.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], 18u);
    EXPECT_EQ(done[1], 26u) << "second transfer starts when the pipe frees";
}

// ---------------------------------------------------------------------------
// Dram timing
// ---------------------------------------------------------------------------

TEST(Dram, FixedLatency)
{
    sim::EventQueue eq;
    Dram dram(eq, DramParams{300, 1, 1});
    sim::Cycle done = 0;
    auto t = [&]() -> sim::Task<void> {
        co_await dram.request(coreReq(eq, 0x1000, 64));
        done = eq.now();
    };
    sim::Join j = sim::spawn(t());
    eq.run();
    j.get();
    EXPECT_EQ(done, 301u);  // 1 cycle serialization + 300 latency
}

TEST(Dram, BandwidthSerializesConcurrentAccesses)
{
    sim::EventQueue eq;
    Dram dram(eq, DramParams{300, 4, 1});  // 4 cycles per line, one channel
    std::vector<sim::Cycle> done;
    auto t = [&](sim::Addr a) -> sim::Task<void> {
        co_await dram.request(coreReq(eq, a, 64));
        done.push_back(eq.now());
    };
    std::vector<sim::Join> js;
    for (int i = 0; i < 4; ++i)
        js.push_back(sim::spawn(t(0x1000 + 64 * i)));
    eq.run();
    ASSERT_EQ(done.size(), 4u);
    // Completion times step by the per-line serialization cost.
    EXPECT_EQ(done[1] - done[0], 4u);
    EXPECT_EQ(done[3] - done[0], 12u);
}

TEST(Dram, ChannelsProvideParallelism)
{
    sim::EventQueue eq;
    Dram dram(eq, DramParams{300, 4, 2});
    std::vector<sim::Cycle> done;
    auto t = [&](sim::Addr a) -> sim::Task<void> {
        co_await dram.request(coreReq(eq, a, 64));
        done.push_back(eq.now());
    };
    // Two accesses to different channels (line-interleaved) finish together.
    sim::spawn(t(0));
    sim::spawn(t(64));
    eq.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], done[1]);
}

// ---------------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------------

namespace {

struct CacheFixture {
    sim::EventQueue eq;
    Dram dram{eq, DramParams{300, 1, 1}};
    Cache cache{eq, CacheParams{"c", 1024, 2, 2, 4}, dram};

    sim::Cycle
    timedAccess(sim::Addr a, AccessKind kind = AccessKind::Read)
    {
        sim::Cycle start = eq.now();
        sim::Join j = sim::spawn(cache.request(coreReq(eq, a, 8, kind)));
        eq.run();
        j.get();
        return eq.now() - start;
    }
};

}  // namespace

TEST(Cache, MissThenHitLatency)
{
    CacheFixture f;
    sim::Cycle miss = f.timedAccess(0x1000);
    EXPECT_GT(miss, 300u);
    sim::Cycle hit = f.timedAccess(0x1000);
    EXPECT_EQ(hit, 2u);
    EXPECT_EQ(f.cache.demandHits(), 1u);
    EXPECT_EQ(f.cache.demandMisses(), 1u);
}

TEST(Cache, SameLineDifferentWordsHit)
{
    CacheFixture f;
    f.timedAccess(0x1000);
    EXPECT_EQ(f.timedAccess(0x1038), 2u);  // same 64B line
}

TEST(Cache, LruEvictionWithinSet)
{
    CacheFixture f;  // 1KB, 2-way, 64B lines -> 8 sets; set stride 512B
    f.timedAccess(0x0000);
    f.timedAccess(0x0200);  // same set, second way
    f.timedAccess(0x0000);  // touch way 0
    f.timedAccess(0x0400);  // evicts 0x0200 (LRU)
    EXPECT_TRUE(f.cache.probe(0x0000));
    EXPECT_FALSE(f.cache.probe(0x0200));
    EXPECT_TRUE(f.cache.probe(0x0400));
}

TEST(Cache, DirtyEvictionWritesBack)
{
    CacheFixture f;
    f.timedAccess(0x0000, AccessKind::Write);
    f.timedAccess(0x0200);
    f.timedAccess(0x0400);  // evicts dirty 0x0000
    f.eq.run();
    EXPECT_EQ(f.cache.stats().counterValue("writebacks"), 1u);
}

TEST(Cache, MshrMergesConcurrentMissesToOneLine)
{
    CacheFixture f;
    std::vector<sim::Cycle> done;
    auto t = [&](sim::Addr a) -> sim::Task<void> {
        co_await f.cache.request(coreReq(f.eq, a, 8));
        done.push_back(f.eq.now());
    };
    sim::spawn(t(0x1000));
    sim::spawn(t(0x1008));
    sim::spawn(t(0x1010));
    f.eq.run();
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(f.cache.stats().counterValue("mshr_merges"), 2u);
    // All complete when the single fill returns.
    EXPECT_EQ(done[0], done[1]);
}

TEST(Cache, DemandWaitsWhenMshrsExhausted)
{
    CacheFixture f;  // 4 MSHRs
    int completed = 0;
    auto t = [&](sim::Addr a) -> sim::Task<void> {
        co_await f.cache.request(coreReq(f.eq, a, 8));
        ++completed;
    };
    for (int i = 0; i < 8; ++i)
        sim::spawn(t(0x1000 + 64 * i));
    f.eq.run();
    EXPECT_EQ(completed, 8);
    EXPECT_GT(f.cache.stats().counterValue("mshr_stalls"), 0u);
}

TEST(Cache, PrefetchDroppedWhenMshrsFull)
{
    CacheFixture f;
    auto t = [&](sim::Addr a) -> sim::Task<void> {
        co_await f.cache.request(coreReq(f.eq, a, 8));
    };
    for (int i = 0; i < 4; ++i)
        sim::spawn(t(0x1000 + 64 * i));  // fill all 4 MSHRs
    f.cache.prefetch(0x8000);            // must be dropped, not queued
    f.eq.run();
    EXPECT_EQ(f.cache.stats().counterValue("prefetch_drops"), 1u);
    EXPECT_FALSE(f.cache.probe(0x8000));
}

TEST(Cache, PrefetchInstallsLine)
{
    CacheFixture f;
    f.cache.prefetch(0x2000);
    f.eq.run();
    EXPECT_TRUE(f.cache.probe(0x2000));
    EXPECT_EQ(f.timedAccess(0x2000), 2u) << "demand after prefetch must hit";
}

TEST(Cache, ProbeDoesNotTouchLru)
{
    CacheFixture f;  // 2-way: set holds 0x0000 and 0x0200
    f.timedAccess(0x0000);
    f.timedAccess(0x0200);  // LRU order now: 0x0000 older, 0x0200 newer
    // probe() is telemetry, not an access: hammering the older line must
    // not promote it, or occupancy probes would perturb replacement.
    for (int i = 0; i < 16; ++i)
        EXPECT_TRUE(f.cache.probe(0x0000));
    f.timedAccess(0x0400);  // still evicts 0x0000, the true LRU
    EXPECT_FALSE(f.cache.probe(0x0000));
    EXPECT_TRUE(f.cache.probe(0x0200));
    EXPECT_TRUE(f.cache.probe(0x0400));
}

TEST(Cache, InvalidateAllRefusesToDropDirtyLines)
{
    CacheFixture f;
    f.timedAccess(0x0000, AccessKind::Write);  // dirty line
    // Silently discarding a dirty line would fork the modeled memory image
    // from the functional one; the cache must demand a flush first.
    EXPECT_THROW(f.cache.invalidateAll(), sim::FatalError);
    EXPECT_TRUE(f.cache.probe(0x0000)) << "failed invalidate must not eat state";
}

TEST(Cache, FlushAllWritesBackThenInvalidateAllSucceeds)
{
    CacheFixture f;
    f.timedAccess(0x0000, AccessKind::Write);
    f.timedAccess(0x0200);  // one dirty, one clean
    sim::Join j = sim::spawn(f.cache.flushAll());
    f.eq.run();
    j.get();
    EXPECT_EQ(f.cache.stats().counterValue("writebacks"), 1u);
    f.cache.invalidateAll();  // everything clean now: must not throw
    EXPECT_FALSE(f.cache.probe(0x0000));
    EXPECT_FALSE(f.cache.probe(0x0200));
}

TEST(Cache, RejectsBadGeometry)
{
    sim::EventQueue eq;
    Dram dram(eq);
    EXPECT_THROW(Cache(eq, CacheParams{"bad", 1000, 3, 2, 4}, dram),
                 std::logic_error);
}

/** Parameterized sweep: hit/miss accounting holds across geometries. */
class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(CacheGeometry, SequentialThenRepeatAccessPattern)
{
    auto [size_kb, assoc] = GetParam();
    sim::EventQueue eq;
    Dram dram(eq, DramParams{100, 1, 1});
    Cache cache(eq, CacheParams{"c", size_kb * 1024, assoc, 2, 8}, dram);

    const unsigned lines = size_kb * 1024 / 64;
    // Touch exactly `lines` distinct lines: all misses, then all hits.
    for (unsigned i = 0; i < lines; ++i) {
        sim::spawn(cache.request(coreReq(eq, i * 64, 8)));
        eq.run();
    }
    EXPECT_EQ(cache.demandMisses(), lines);
    for (unsigned i = 0; i < lines; ++i) {
        sim::spawn(cache.request(coreReq(eq, i * 64, 8)));
        eq.run();
    }
    EXPECT_EQ(cache.demandHits(), lines) << "working set equal to capacity "
                                            "must be fully resident";
    EXPECT_EQ(cache.stats().counterValue("evictions"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheGeometry,
    ::testing::Values(std::make_tuple(1u, 1u), std::make_tuple(8u, 4u),
                      std::make_tuple(64u, 8u), std::make_tuple(16u, 16u)));

// ---------------------------------------------------------------------------
// MMU: timed walks + faults
// ---------------------------------------------------------------------------

namespace {

struct MmuFixture {
    sim::EventQueue eq;
    PhysicalMemory pm{1 << 24};
    sim::Addr next_frame = 0x10000;
    PageTable pt{pm, [this] {
                     sim::Addr f = next_frame;
                     next_frame += kPageSize;
                     return f;
                 }};
    FixedLatencyMem walk_port{eq, 10};
    Mmu mmu{eq, pm, walk_port, 4};

    MmuFixture() { mmu.setRoot(pt.rootPaddr()); }

    Translation
    translate(sim::Addr va, bool write = false)
    {
        Translation out;
        auto t = [&]() -> sim::Task<void> {
            out = co_await mmu.translate(va, write);
        };
        sim::Join j = sim::spawn(t());
        eq.run();
        j.get();
        return out;
    }
};

}  // namespace

TEST(Mmu, WalkChargesPerLevelLatency)
{
    MmuFixture f;
    f.pt.map(0x4000'0000, 0x1000, true);
    sim::Cycle start = f.eq.now();
    Translation tr = f.translate(0x4000'0040);
    EXPECT_FALSE(tr.fault);
    EXPECT_EQ(tr.paddr, 0x1040u);
    EXPECT_EQ(f.eq.now() - start, 30u) << "3-level walk at 10 cycles each";
    // Second translation: TLB hit, no walk.
    start = f.eq.now();
    f.translate(0x4000'0048);
    EXPECT_EQ(f.eq.now() - start, 0u);
    EXPECT_EQ(f.mmu.walks(), 1u);
}

TEST(Mmu, FaultWithoutHandlerFails)
{
    MmuFixture f;
    Translation tr = f.translate(0x7777'0000);
    EXPECT_TRUE(tr.fault);
    EXPECT_EQ(f.mmu.faults(), 1u);
}

TEST(Mmu, FaultHandlerMapsAndRetries)
{
    MmuFixture f;
    int handler_calls = 0;
    f.mmu.setFaultHandler(
        [&](sim::Addr va, bool) -> sim::Task<bool> {
            ++handler_calls;
            co_await sim::delay(f.eq, 100);
            f.pt.map(pageBase(va), 0x5000, true);
            co_return true;
        });
    Translation tr = f.translate(0x8888'0123);
    EXPECT_FALSE(tr.fault);
    EXPECT_EQ(tr.paddr, 0x5123u);
    EXPECT_EQ(handler_calls, 1);
}

TEST(Mmu, HandlerRefusalPropagatesFault)
{
    MmuFixture f;
    f.mmu.setFaultHandler(
        [](sim::Addr, bool) -> sim::Task<bool> { co_return false; });
    EXPECT_TRUE(f.translate(0x9999'0000).fault);
}

TEST(Mmu, WritePermissionFaultsEvenOnTlbHit)
{
    MmuFixture f;
    f.pt.map(0xa000'0000, 0x1000, /*writable=*/false);
    EXPECT_FALSE(f.translate(0xa000'0000, false).fault);  // cached in TLB
    EXPECT_TRUE(f.translate(0xa000'0000, true).fault);
}

TEST(Mmu, ShootdownForcesRewalk)
{
    MmuFixture f;
    f.pt.map(0xb000'0000, 0x1000, true);
    f.translate(0xb000'0000);
    EXPECT_EQ(f.mmu.walks(), 1u);
    // Remap to a different frame; without a shootdown the TLB is stale.
    f.pt.map(0xb000'0000, 0x2000, true);
    f.mmu.invalidate(0xb000'0000);
    Translation tr = f.translate(0xb000'0040);
    EXPECT_EQ(tr.paddr, 0x2040u);
    EXPECT_EQ(f.mmu.walks(), 2u);
}
