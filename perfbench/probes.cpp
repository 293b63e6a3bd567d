#include "probes.hpp"

#include <algorithm>
#include <functional>
#include <memory>

#include "core/maple_runtime.hpp"
#include "harness/host_perf.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/shard_port.hpp"
#include "noc/mesh.hpp"
#include "sim/coro.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded.hpp"
#include "soc/soc.hpp"

namespace maple::perfbench {

namespace {

/** Host seconds and the units of work they covered. */
struct Timed {
    double seconds = 0;
    std::uint64_t units = 0;

    double ns() const { return units ? seconds * 1e9 / double(units) : 0.0; }
};

/** Self-rescheduling callback chains: the scheduler alone. Unit: event. */
Timed
eventChains(std::uint64_t total_events)
{
    sim::EventQueue eq;
    std::uint64_t fired = 0;
    constexpr int kChains = 64;
    std::vector<std::function<void()>> chains(kChains);
    for (int i = 0; i < kChains; ++i) {
        chains[i] = [&eq, &fired, &chains, total_events, i] {
            if (++fired < total_events)
                eq.scheduleIn(1 + (fired % 7), chains[i]);
        };
    }
    harness::WallTimer t;
    for (int i = 0; i < kChains; ++i)
        eq.scheduleIn(1 + i % 7, chains[i]);
    eq.run();
    return {t.seconds(), eq.executed()};
}

/** Coroutine sim::delay loops: the pooled resume path. Unit: event. */
Timed
delayResumes(int rounds)
{
    constexpr int kTasks = 64;
    sim::EventQueue eq;
    auto ping = [&eq, rounds]() -> sim::Task<void> {
        for (int r = 0; r < rounds; ++r)
            co_await sim::delay(eq, 1 + (r % 5));
    };
    std::vector<sim::Join> joins;
    harness::WallTimer t;
    for (int i = 0; i < kTasks; ++i)
        joins.push_back(sim::spawn(ping()));
    eq.run();
    Timed r{t.seconds(), eq.executed()};
    for (sim::Join &j : joins)
        j.get();
    return r;
}

/** One flow of XY transits over @p mesh with a fixed all-to-all pattern. */
sim::Task<void>
meshFlow(noc::Mesh &mesh, unsigned f, int transits)
{
    const unsigned tiles = mesh.numTiles();
    for (int i = 0; i < transits; ++i) {
        sim::TileId src = (f * 7 + i) % tiles;
        sim::TileId dst = (f * 13 + i * 5 + 1) % tiles;
        if (src == dst)
            dst = (dst + 1) % tiles;
        co_await mesh.transit(src, dst, noc::flitsFor(16));
    }
}

/** 128 flows on an 8x8 mesh. Unit: packet. */
Timed
meshTransits(int transits_per_flow)
{
    sim::EventQueue eq;
    noc::MeshParams mp;
    mp.width = 8;
    mp.height = 8;
    noc::Mesh mesh(eq, mp);
    std::vector<sim::Join> joins;
    harness::WallTimer t;
    for (unsigned f = 0; f < 128; ++f)
        joins.push_back(sim::spawn(meshFlow(mesh, f, transits_per_flow)));
    eq.run();
    Timed r{t.seconds(), mesh.packets()};
    for (sim::Join &j : joins)
        j.get();
    return r;
}

/** Four 4x4 mesh domains, each ring-linked to the next by a 32-cycle
 *  cross-domain port, on one host thread. Unit: BSP window (quantum). */
Timed
shardedWindows(int transits_per_flow)
{
    constexpr unsigned kDomains = 4;
    sim::ShardedEngine engine;
    std::vector<std::unique_ptr<sim::EventQueue>> eqs;
    std::vector<std::unique_ptr<noc::Mesh>> meshes;
    std::vector<std::unique_ptr<mem::FixedLatencyMem>> mems;
    for (unsigned d = 0; d < kDomains; ++d) {
        eqs.push_back(std::make_unique<sim::EventQueue>());
        engine.addDomain(*eqs.back(), "noc." + std::to_string(d));
        noc::MeshParams mp;
        mp.width = 4;
        mp.height = 4;
        meshes.push_back(std::make_unique<noc::Mesh>(*eqs.back(), mp));
        mems.push_back(std::make_unique<mem::FixedLatencyMem>(*eqs.back(), 8));
    }
    std::vector<std::unique_ptr<mem::CrossDomainPort>> links;
    for (unsigned d = 0; d < kDomains; ++d) {
        unsigned n = (d + 1) % kDomains;
        links.push_back(std::make_unique<mem::CrossDomainPort>(
            engine, d, *eqs[d], n, *eqs[n], *mems[n], 32));
    }
    auto crossFlow = [&](unsigned d, unsigned f) -> sim::Task<void> {
        for (int i = 0; i < transits_per_flow / 4; ++i) {
            co_await links[d]->request(mem::MemRequest::make(
                *eqs[d], mem::RequesterClass::Core, f % 16, 64 * i, 16,
                mem::AccessKind::Read));
        }
    };
    std::vector<sim::Join> joins;
    harness::WallTimer t;
    for (unsigned d = 0; d < kDomains; ++d) {
        for (unsigned f = 0; f < 32; ++f)
            joins.push_back(
                sim::spawn(meshFlow(*meshes[d], f, transits_per_flow)));
        for (unsigned f = 0; f < 8; ++f)
            joins.push_back(sim::spawn(crossFlow(d, f)));
    }
    sim::ShardedEngine::RunOptions ro;
    ro.threads = 1;
    bool drained = engine.run(ro);
    Timed r{t.seconds(), engine.quanta()};
    MAPLE_ASSERT(drained, "sharded window probe did not drain");
    for (sim::Join &j : joins)
        j.get();
    return r;
}

/** Sequential 8-byte reads through a standalone 8 KB L1 over a 100-cycle
 *  backing store. @p footprint_lines 64 keeps every access after the
 *  first pass a hit; a huge footprint makes every access a miss + fill.
 *  Unit: request. */
Timed
cacheRequests(std::uint64_t requests, std::uint64_t footprint_lines)
{
    sim::EventQueue eq;
    mem::FixedLatencyMem backing(eq, 100);
    mem::Cache cache(eq, mem::CacheParams{"l1", 8 * 1024, 4, 2, 8, 0},
                     backing);
    auto loop = [&]() -> sim::Task<void> {
        for (std::uint64_t i = 0; i < requests; ++i)
            co_await cache.request(mem::MemRequest::make(
                eq, mem::RequesterClass::Core, 0,
                (i % footprint_lines) * mem::kLineSize, 8,
                mem::AccessKind::Read));
    };
    harness::WallTimer t;
    sim::Join j = sim::spawn(loop());
    eq.run();
    Timed r{t.seconds(), requests};
    j.get();
    return r;
}

/** Line reads straight into the DRAM timing model. Unit: request. */
Timed
dramRequests(std::uint64_t requests)
{
    sim::EventQueue eq;
    mem::Dram dram(eq);
    auto loop = [&]() -> sim::Task<void> {
        for (std::uint64_t i = 0; i < requests; ++i)
            co_await dram.request(mem::MemRequest::make(
                eq, mem::RequesterClass::Core, 0, i * mem::kLineSize,
                mem::kLineSize, mem::AccessKind::Read));
    };
    harness::WallTimer t;
    sim::Join j = sim::spawn(loop());
    eq.run();
    Timed r{t.seconds(), dram.requests()};
    j.get();
    return r;
}

/** MAPLE producePtr on core 0 against consume on core 1, one queue, on a
 *  fresh FPGA Soc. Unit: produce/consume pair. */
Timed
maplePairs(std::uint64_t pairs)
{
    soc::Soc soc(soc::SocConfig::fpga());
    os::Process &proc = soc.createProcess("probe");
    constexpr std::uint64_t kWords = 4096;
    sim::Addr arr = proc.alloc(kWords * 4, "probe.arr");
    core::MapleApi api = core::MapleApi::attach(proc, soc.maple());
    auto setup = [&](cpu::Core &c) -> sim::Task<void> {
        co_await api.init(c, 1, 32, 4);
        bool ok = co_await api.open(c, 0);
        MAPLE_ASSERT(ok, "probe queue open failed");
    };
    soc.run({sim::spawn(setup(soc.core(0)))});
    auto produce = [&](cpu::Core &c) -> sim::Task<void> {
        for (std::uint64_t i = 0; i < pairs; ++i)
            co_await api.producePtr(c, 0, arr + 4 * (i % kWords));
    };
    auto consume = [&](cpu::Core &c) -> sim::Task<void> {
        for (std::uint64_t i = 0; i < pairs; ++i)
            co_await api.consume(c, 0);
    };
    harness::WallTimer t;
    soc.run({sim::spawn(produce(soc.core(0))),
             sim::spawn(consume(soc.core(1)))});
    return {t.seconds(), pairs};
}

/** Two cores alternately read-modify-write one shared line under MSI
 *  (checker off): every round is an upgrade/invalidation through the home
 *  directory. Unit: directory transaction (txn_cycles samples). */
Timed
sharedPingPong(int rounds)
{
    soc::SocConfig cfg = soc::SocConfig::fpga();
    cfg.coherence.mode = mem::CoherenceMode::Msi;
    cfg.coherence.checker = false;
    soc::Soc soc(cfg);
    os::Process &proc = soc.createProcess("probe");
    sim::Addr line = proc.alloc(mem::kLineSize, "probe.line");
    auto bump = [&](cpu::Core &c) -> sim::Task<void> {
        for (int i = 0; i < rounds; ++i) {
            std::uint64_t v = co_await c.loadShared(line, 8);
            co_await c.storeShared(line, v + 1, 8);
        }
    };
    harness::WallTimer t;
    soc.run({sim::spawn(bump(soc.core(0))), sim::spawn(bump(soc.core(1)))});
    Timed r{t.seconds(), 0};
    mem::CoherenceFabric &coh = *soc.coherence();
    for (unsigned s = 0; s < coh.numSlices(); ++s) {
        const auto &h = coh.slice(s).stats().histograms();
        if (auto it = h.find("txn_cycles"); it != h.end())
            r.units += it->second.total();
    }
    return r;
}

/** The flat-memory coherence checker's hooks alone: two caches take turns
 *  installing a line in M, storing, loading and evicting it, over 4096
 *  lines. Unit: check (a verified load or store). */
Timed
checkerHooks(std::uint64_t rounds)
{
    mem::CoherenceChecker ck;
    const unsigned ids[2] = {ck.registerCache("a"), ck.registerCache("b")};
    harness::WallTimer t;
    for (std::uint64_t i = 0; i < rounds; ++i) {
        unsigned c = ids[(i / 4096) & 1];
        sim::Addr line = (i % 4096) * mem::kLineSize;
        ck.onInstall(c, line, mem::MsiState::M);
        ck.onStore(c, line);
        ck.onLoad(c, line);
        ck.onRelease(c, line);
    }
    return {t.seconds(), ck.loadsChecked() + ck.storesChecked()};
}

double
median3(std::function<double()> f)
{
    double v[3] = {f(), f(), f()};
    std::sort(v, v + 3);
    return v[1];
}

}  // namespace

std::vector<std::pair<std::string, double>>
runProbes(bool smoke)
{
    const std::uint64_t k = smoke ? 1 : 10;
    std::vector<std::pair<std::string, double>> out;
    out.emplace_back("sim.event_ns",
                     median3([&] { return eventChains(200'000 * k).ns(); }));
    out.emplace_back("sim.resume_ns",
                     median3([&] { return delayResumes(3'000 * int(k)).ns(); }));
    out.emplace_back("sim.window_ns", median3([&] {
                         return shardedWindows(40 * int(k)).ns();
                     }));
    out.emplace_back("core.pair_ns",
                     median3([&] { return maplePairs(2'000 * k).ns(); }));
    out.emplace_back("mem.cache_hit_ns", median3([&] {
                         return cacheRequests(100'000 * k, 64).ns();
                     }));
    out.emplace_back("mem.cache_miss_ns", median3([&] {
                         return cacheRequests(50'000 * k, 1u << 20).ns();
                     }));
    out.emplace_back("mem.dram_ns",
                     median3([&] { return dramRequests(100'000 * k).ns(); }));
    out.emplace_back("mem.dir_txn_ns", median3([&] {
                         return sharedPingPong(300 * int(k)).ns();
                     }));
    out.emplace_back("mem.checker_ns", median3([&] {
                         return checkerHooks(50'000 * k).ns();
                     }));
    out.emplace_back("noc.transit_ns",
                     median3([&] { return meshTransits(40 * int(k)).ns(); }));
    return out;
}

}  // namespace maple::perfbench
