/**
 * @file
 * Tests for the typed memory-request fabric: MemRequest identity, arbitration
 * policies (fifo / rr / core-priority), the PortInterposer's per-requester-
 * class telemetry, class-keyed fault injection, and the golden bit-identity
 * guarantees of the default (fifo) configuration.
 */
#include <gtest/gtest.h>

#include <cstdlib>

#include "core/maple_runtime.hpp"
#include "mem/fabric.hpp"
#include "mem/port.hpp"
#include "soc/knobs.hpp"
#include "soc/soc.hpp"
#include "workloads/workload.hpp"

using namespace maple;
using namespace maple::mem;

namespace {

MemRequest
req(sim::EventQueue &eq, RequesterClass cls, sim::Addr a = 0x1000,
    std::uint32_t size = 64, AccessKind kind = AccessKind::Read)
{
    return MemRequest::make(eq, cls, /*tile=*/0, a, size, kind);
}

}  // namespace

// ---------------------------------------------------------------------------
// MemRequest identity
// ---------------------------------------------------------------------------

TEST(MemRequest, MakeStampsIdentityAndIssueCycle)
{
    sim::EventQueue eq;
    MemRequest a = req(eq, RequesterClass::Core);
    MemRequest b = req(eq, RequesterClass::MapleConsume);
    EXPECT_NE(a.id, b.id) << "transaction ids must be unique per queue";
    EXPECT_EQ(a.issue_cycle, eq.now());
    EXPECT_EQ(a.cls, RequesterClass::Core);
    EXPECT_EQ(b.cls, RequesterClass::MapleConsume);
}

TEST(MemRequest, ChildKeepsOriginIdentity)
{
    sim::EventQueue eq;
    MemRequest origin = MemRequest::make(eq, RequesterClass::MapleProduce,
                                         /*tile=*/5, 0x1008, 4,
                                         AccessKind::Read);
    MemRequest fill = origin.child(0x1000, 64, AccessKind::Read);
    EXPECT_EQ(fill.paddr, 0x1000u);
    EXPECT_EQ(fill.size, 64u);
    EXPECT_EQ(fill.cls, RequesterClass::MapleProduce) << "fills keep the class";
    EXPECT_EQ(fill.tile, 5u);
    EXPECT_EQ(fill.id, origin.id);
    EXPECT_EQ(fill.issue_cycle, origin.issue_cycle);
}

// ---------------------------------------------------------------------------
// ArbPolicy parsing
// ---------------------------------------------------------------------------

TEST(ArbPolicy, ParseAcceptsAliases)
{
    EXPECT_EQ(parseArbPolicy("fifo"), ArbPolicy::Fifo);
    EXPECT_EQ(parseArbPolicy("rr"), ArbPolicy::RoundRobinByClass);
    EXPECT_EQ(parseArbPolicy("round-robin"), ArbPolicy::RoundRobinByClass);
    EXPECT_EQ(parseArbPolicy("core-priority"), ArbPolicy::CorePriority);
    EXPECT_FALSE(parseArbPolicy("bogus").has_value());
}

TEST(ArbPolicy, EnvOverrideAndRejection)
{
    auto resolvedLlcArb = [] {
        soc::SocConfig cfg = soc::SocConfig::fpga();
        soc::resolveConfig(cfg);
        return cfg.llc_arb;
    };
    unsetenv("MAPLE_LLC_ARB");
    EXPECT_EQ(resolvedLlcArb(), ArbPolicy::Fifo);
    setenv("MAPLE_LLC_ARB", "rr", 1);
    EXPECT_EQ(resolvedLlcArb(), ArbPolicy::RoundRobinByClass);
    setenv("MAPLE_LLC_ARB", "nonsense", 1);
    EXPECT_THROW(resolvedLlcArb(), sim::ConfigError);
    unsetenv("MAPLE_LLC_ARB");
}

// ---------------------------------------------------------------------------
// Arbiter
// ---------------------------------------------------------------------------

namespace {

struct GrantLog {
    sim::EventQueue eq;
    std::vector<std::pair<RequesterClass, sim::Cycle>> grants;

    sim::Task<void>
    admitOne(Arbiter &arb, RequesterClass c)
    {
        MemRequest r = req(eq, c);
        co_await arb.admit(r);
        grants.emplace_back(c, eq.now());
    }
};

}  // namespace

TEST(Arbiter, GrantsSerializeOnFlitOccupancy)
{
    GrantLog g;
    Arbiter arb(g.eq, "t", ArbPolicy::RoundRobinByClass);
    // 64B requests = 1 header + 4 payload flits = 5 port cycles each.
    for (int i = 0; i < 5; ++i)
        sim::spawn(g.admitOne(arb, RequesterClass::Core));
    g.eq.run();
    ASSERT_EQ(g.grants.size(), 5u);
    for (size_t i = 0; i < g.grants.size(); ++i)
        EXPECT_EQ(g.grants[i].second, 5 * i) << "grant " << i;
    EXPECT_EQ(arb.totalGrants(), 5u);
    EXPECT_EQ(arb.grants(RequesterClass::Core), 5u);
    EXPECT_EQ(arb.waitCycles(), 5u + 10 + 15 + 20);
}

TEST(Arbiter, RoundRobinRotatesAcrossClasses)
{
    GrantLog g;
    Arbiter arb(g.eq, "t", ArbPolicy::RoundRobinByClass);
    // First admit is granted in place (cycle 0) and advances the rotor past
    // Core; the rest queue and are served round-robin from there.
    sim::spawn(g.admitOne(arb, RequesterClass::Core));
    sim::spawn(g.admitOne(arb, RequesterClass::Ptw));
    sim::spawn(g.admitOne(arb, RequesterClass::MapleConsume));
    sim::spawn(g.admitOne(arb, RequesterClass::Core));
    g.eq.run();
    ASSERT_EQ(g.grants.size(), 4u);
    EXPECT_EQ(g.grants[0], (std::pair{RequesterClass::Core, sim::Cycle(0)}));
    EXPECT_EQ(g.grants[1],
              (std::pair{RequesterClass::MapleConsume, sim::Cycle(5)}));
    EXPECT_EQ(g.grants[2], (std::pair{RequesterClass::Ptw, sim::Cycle(10)}));
    EXPECT_EQ(g.grants[3], (std::pair{RequesterClass::Core, sim::Cycle(15)}));
}

TEST(Arbiter, CorePriorityServesCoresFirst)
{
    GrantLog g;
    Arbiter arb(g.eq, "t", ArbPolicy::CorePriority);
    // Fast-path grant for the first arrival; the queued ones are then served
    // strictly by class priority, not arrival order.
    sim::spawn(g.admitOne(arb, RequesterClass::Prefetch));
    sim::spawn(g.admitOne(arb, RequesterClass::MapleProduce));
    sim::spawn(g.admitOne(arb, RequesterClass::Prefetch));
    sim::spawn(g.admitOne(arb, RequesterClass::Core));
    g.eq.run();
    ASSERT_EQ(g.grants.size(), 4u);
    EXPECT_EQ(g.grants[0].first, RequesterClass::Prefetch);
    EXPECT_EQ(g.grants[1], (std::pair{RequesterClass::Core, sim::Cycle(5)}));
    EXPECT_EQ(g.grants[2],
              (std::pair{RequesterClass::MapleProduce, sim::Cycle(10)}));
    EXPECT_EQ(g.grants[3],
              (std::pair{RequesterClass::Prefetch, sim::Cycle(15)}));
}

TEST(Arbiter, UncontendedRequestsPassWithoutDelay)
{
    GrantLog g;
    Arbiter arb(g.eq, "t", ArbPolicy::CorePriority);
    // Spaced-out arrivals never queue: each gets the fast-path grant.
    auto t = [&]() -> sim::Task<void> {
        for (int i = 0; i < 3; ++i) {
            co_await g.admitOne(arb, RequesterClass::MapleConsume);
            co_await sim::delay(g.eq, 10);
        }
    };
    sim::Join j = sim::spawn(t());
    g.eq.run();
    j.get();
    EXPECT_EQ(arb.waitCycles(), 0u);
    EXPECT_EQ(arb.totalGrants(), 3u);
}

// ---------------------------------------------------------------------------
// PortInterposer telemetry
// ---------------------------------------------------------------------------

TEST(PortInterposer, PerClassLatencyAndBandwidth)
{
    sim::EventQueue eq;
    FixedLatencyMem mem(eq, 20);
    PortInterposer stage(eq, "stage", mem);
    sim::spawn(stage.request(req(eq, RequesterClass::Core, 0x1000, 64)));
    sim::spawn(stage.request(req(eq, RequesterClass::Core, 0x2000, 64)));
    sim::spawn(
        stage.request(req(eq, RequesterClass::MapleConsume, 0x3000, 128)));
    eq.run();

    EXPECT_EQ(stage.classRequests(RequesterClass::Core), 2u);
    EXPECT_EQ(stage.classBytes(RequesterClass::Core), 128u);
    EXPECT_EQ(stage.classRequests(RequesterClass::MapleConsume), 1u);
    EXPECT_EQ(stage.classBytes(RequesterClass::MapleConsume), 128u);
    EXPECT_EQ(stage.classRequests(RequesterClass::Ptw), 0u);

    const sim::Histogram &core = stage.classLatency(RequesterClass::Core);
    EXPECT_EQ(core.total(), 2u);
    EXPECT_EQ(core.maxSample(), 20.0) << "end-to-end = completion - issue";
    EXPECT_EQ(stage.classLatency(RequesterClass::MapleConsume).total(), 1u);
}

TEST(PortInterposer, ObserverAndArbitrationCompose)
{
    sim::EventQueue eq;
    FixedLatencyMem mem(eq, 5);
    PortInterposer stage(eq, "stage", mem, ArbPolicy::RoundRobinByClass);
    ASSERT_NE(stage.arbiter(), nullptr);
    unsigned seen = 0;
    stage.setObserver([&](const MemRequest &r) {
        ++seen;
        EXPECT_EQ(r.cls, RequesterClass::Core);
    });
    sim::spawn(stage.request(req(eq, RequesterClass::Core, 0x0, 8)));
    sim::spawn(stage.request(req(eq, RequesterClass::Core, 0x40, 8)));
    eq.run();
    EXPECT_EQ(seen, 2u);
    EXPECT_EQ(stage.arbiter()->totalGrants(), 2u);
    // Swapping back to fifo drops the admission stage entirely.
    stage.setArbitration(ArbPolicy::Fifo);
    EXPECT_EQ(stage.arbiter(), nullptr);
}

// ---------------------------------------------------------------------------
// Class-keyed fault injection
// ---------------------------------------------------------------------------

TEST(FaultClassMask, MaskedClassesNeverInject)
{
    sim::EventQueue eq;
    fault::FaultConfig cfg;
    cfg.dram = {1.0, 100};  // every opportunity fires...
    cfg.class_mask = requesterClassBit(RequesterClass::Core);
    fault::FaultInjector fi(eq, cfg);
    EXPECT_GT(fi.inject(fault::FaultClass::DramSpike, RequesterClass::Core), 0u);
    EXPECT_EQ(
        fi.inject(fault::FaultClass::DramSpike, RequesterClass::MapleConsume),
        0u)
        << "...but only for requests in the class mask";
    EXPECT_EQ(fi.injectedCount(fault::FaultClass::DramSpike), 1u);
}

TEST(FaultClassMask, MaskedOpportunitiesConsumeNoDraws)
{
    // The masked-class opportunities must not advance the RNG stream: the
    // in-mask decision sequence is identical with and without masked traffic
    // interleaved.
    fault::FaultConfig base;
    base.dram = {0.5, 100};
    sim::EventQueue eq1, eq2;
    fault::FaultInjector all(eq1, base);
    fault::FaultConfig masked_cfg = base;
    masked_cfg.class_mask = requesterClassBit(RequesterClass::Core);
    fault::FaultInjector masked(eq2, masked_cfg);
    for (int i = 0; i < 64; ++i) {
        sim::Cycle want =
            all.inject(fault::FaultClass::DramSpike, RequesterClass::Core);
        masked.inject(fault::FaultClass::DramSpike,
                      RequesterClass::MapleProduce);  // skipped, no draw
        EXPECT_EQ(
            masked.inject(fault::FaultClass::DramSpike, RequesterClass::Core),
            want)
            << "draw " << i;
    }
}

TEST(FaultClassMask, EnvListParsesToMask)
{
    setenv("MAPLE_FAULT_ONLY", "maple_consume,maple_produce", 1);
    soc::SocConfig cfg = soc::SocConfig::fpga();
    soc::resolveConfig(cfg);
    EXPECT_EQ(cfg.fault.class_mask,
              requesterClassBit(RequesterClass::MapleConsume) |
                  requesterClassBit(RequesterClass::MapleProduce));
    // An unknown token is a typed error, rather than injecting into every
    // class or silently masking everything off.
    setenv("MAPLE_FAULT_ONLY", "maple_consume,bogus", 1);
    soc::SocConfig cfg2 = soc::SocConfig::fpga();
    EXPECT_THROW(soc::resolveConfig(cfg2), sim::ConfigError);
    unsetenv("MAPLE_FAULT_ONLY");
}

// ---------------------------------------------------------------------------
// SoC-level attribution: 2 cores + 1 MAPLE
// ---------------------------------------------------------------------------

namespace {

// Big enough that A/B/out (16KB each) stream through the 8KB L1s and, with
// page tables on top, pressure the 64KB LLC -- so core demand, PTW and MAPLE
// fetch traffic genuinely overlap at the shared front-end.
constexpr std::uint32_t kN = 4096;

sim::Task<void>
accessThread(cpu::Core &core, core::MapleApi &api, sim::Addr a, sim::Addr b)
{
    for (std::uint32_t i = 0; i < kN; ++i) {
        std::uint64_t idx = co_await core.load(b + 4 * i, 4);
        co_await api.producePtr(core, 0, a + 4 * idx);
    }
}

sim::Task<void>
executeThread(cpu::Core &core, core::MapleApi &api, sim::Addr out)
{
    for (std::uint32_t i = 0; i < kN; ++i) {
        std::uint64_t v = co_await api.consume(core, 0);
        co_await core.store(out + 4 * i, v + 1, 4);
    }
}

/** Decoupled A[B[i]] gather; returns the finished SoC for inspection. */
std::unique_ptr<soc::Soc>
runGather(soc::SocConfig cfg)
{
    auto soc = std::make_unique<soc::Soc>(std::move(cfg));
    os::Process &proc = soc->createProcess("gather");
    sim::Addr a = proc.alloc(kN * 4, "A");
    sim::Addr b = proc.alloc(kN * 4, "B");
    sim::Addr out = proc.alloc(kN * 4, "out");
    for (std::uint32_t i = 0; i < kN; ++i) {
        proc.writeScalar<std::uint32_t>(a + 4 * i, i);
        proc.writeScalar<std::uint32_t>(b + 4 * i, (i * 2654435761u) % kN);
    }
    core::MapleApi api = core::MapleApi::attach(proc, soc->maple());
    auto setup = [&](cpu::Core &c) -> sim::Task<void> {
        co_await api.init(c, 1, 32, 4);
        bool ok = co_await api.open(c, 0);
        MAPLE_ASSERT(ok, "queue open failed");
    };
    soc->run({sim::spawn(setup(soc->core(0)))});
    soc->run({sim::spawn(accessThread(soc->core(0), api, a, b)),
              sim::spawn(executeThread(soc->core(1), api, out))},
             50'000'000);
    return soc;
}

}  // namespace

TEST(FabricSoc, PerClassAttributionOnGather)
{
    auto soc = runGather(soc::SocConfig::fpga());
    mem::PortInterposer &front = soc->llcFront();

    // Core demand misses and PTW walks reach the LLC; consistency between
    // the histogram, the request counter and the byte counter per class.
    EXPECT_GT(front.classRequests(RequesterClass::Core), 0u);
    EXPECT_GT(front.classRequests(RequesterClass::Ptw), 0u);
    for (unsigned i = 0; i < kNumRequesterClasses; ++i) {
        auto c = static_cast<RequesterClass>(i);
        EXPECT_EQ(front.classLatency(c).total(), front.classRequests(c))
            << requesterClassName(c);
        if (front.classRequests(c) > 0) {
            EXPECT_GT(front.classBytes(c), 0u) << requesterClassName(c);
        }
    }
    // MAPLE's pointer fetches bypass the LLC by default (direct-to-DRAM
    // path), so they show up at the DRAM, attributed to MapleProduce.
    EXPECT_EQ(front.classRequests(RequesterClass::MapleProduce), 0u);
    EXPECT_GT(soc->dram().classBytes(RequesterClass::MapleProduce), 0u);
    EXPECT_GT(soc->mesh().classFlits(RequesterClass::MapleProduce), 0u);
    EXPECT_GT(soc->mesh().classFlits(RequesterClass::Mmio), 0u)
        << "produce/consume MMIO traffic rides the mesh as Mmio";
    // End-to-end latency includes NoC + LLC (+ DRAM on a miss): the typical
    // core sample costs far more than an LLC lookup.
    EXPECT_GE(front.classLatency(RequesterClass::Core).percentile(0.5),
              double(soc->config().llc.hit_latency));
}

namespace {

/**
 * Saturate the LLC front-end: 32 core-class and 32 MAPLE-class line reads
 * launched concurrently from their home tiles. Dense enough that a non-fifo
 * admission stage (one flit per cycle) must queue most of them.
 */
std::unique_ptr<soc::Soc>
runLlcBursts(ArbPolicy arb)
{
    soc::SocConfig cfg = soc::SocConfig::fpga();
    cfg.llc_arb = arb;
    auto soc = std::make_unique<soc::Soc>(cfg);
    noc::RemotePort &core_port = soc->addLlcPort(soc->coreTile(0));
    noc::RemotePort &maple_port = soc->addLlcPort(soc->mapleTile(0));
    for (std::uint32_t i = 0; i < 32; ++i) {
        sim::spawn(core_port.request(
            MemRequest::make(soc->eq(), RequesterClass::Core,
                             soc->coreTile(0), 0x10000 + 64 * i, 64,
                             AccessKind::Read)));
        sim::spawn(maple_port.request(
            MemRequest::make(soc->eq(), RequesterClass::MapleProduce,
                             soc->mapleTile(0), 0x40000 + 64 * i, 64,
                             AccessKind::Read)));
    }
    soc->run({}, 1'000'000);
    return soc;
}

}  // namespace

TEST(FabricSoc, RoundRobinArbitrationChangesClassLatencies)
{
    auto fifo_soc = runLlcBursts(ArbPolicy::Fifo);
    auto rr_soc = runLlcBursts(ArbPolicy::RoundRobinByClass);

    mem::PortInterposer &f = fifo_soc->llcFront();
    mem::PortInterposer &r = rr_soc->llcFront();
    // Same work either way...
    for (auto c : {RequesterClass::Core, RequesterClass::MapleProduce}) {
        ASSERT_EQ(f.classRequests(c), 32u) << requesterClassName(c);
        ASSERT_EQ(r.classRequests(c), 32u) << requesterClassName(c);
    }
    ASSERT_NE(r.arbiter(), nullptr);
    EXPECT_GT(r.arbiter()->waitCycles(), 0u)
        << "rr must actually gate admissions under contention";
    // ...but the per-class end-to-end latency distributions measurably move
    // when the arbitration policy changes (the --llc-arb acceptance bar).
    for (auto c : {RequesterClass::Core, RequesterClass::MapleProduce}) {
        EXPECT_NE(f.classLatency(c).buckets(), r.classLatency(c).buckets())
            << requesterClassName(c);
        EXPECT_GT(r.classLatency(c).percentile(0.95),
                  f.classLatency(c).percentile(0.95))
            << requesterClassName(c)
            << ": the gated tail must be visibly longer than fifo's";
    }
}

// ---------------------------------------------------------------------------
// Golden bit-identity of the default configuration
// ---------------------------------------------------------------------------

namespace {

/** The quickstart baseline loop, reproduced byte-for-byte (examples/). */
sim::Task<void>
quickstartBaseline(cpu::Core &core, sim::Addr a, sim::Addr b, sim::Addr out)
{
    for (std::uint32_t i = 0; i < 4096; ++i) {
        std::uint64_t idx = co_await core.load(b + 4 * i, 4);
        std::uint64_t v = co_await core.load(a + 4 * idx, 4);
        co_await core.compute(1);
        co_await core.store(out + 4 * i, v + 1, 4);
    }
}

}  // namespace

TEST(FabricGolden, QuickstartBaselineCycleCount)
{
    // Locked to the seed commit's examples/quickstart output. Any drift here
    // means the fabric (or a later change) perturbed default-config timing.
    soc::Soc soc(soc::SocConfig::fpga());
    os::Process &proc = soc.createProcess("quickstart");
    sim::Addr a = proc.alloc(4096 * 4, "A");
    sim::Addr b = proc.alloc(4096 * 4, "B");
    sim::Addr out = proc.alloc(4096 * 4, "out");
    for (std::uint32_t i = 0; i < 4096; ++i) {
        proc.writeScalar<std::uint32_t>(a + 4 * i, i * 3);
        proc.writeScalar<std::uint32_t>(b + 4 * i, (i * 2654435761u) % 4096);
    }
    sim::Cycle cycles =
        soc.run({sim::spawn(quickstartBaseline(soc.core(0), a, b, out))});
    EXPECT_EQ(cycles, 363523u);
}

TEST(FabricGolden, Fig08SpmvCycleCounts)
{
    // One row of bench_fig08 (SPMV, doall vs MAPLE-decoupled on the FPGA
    // config), locked to the seed commit's numbers.
    auto spmv = app::makeSpmv();
    app::RunConfig cfg;
    cfg.threads = 2;
    cfg.soc = soc::SocConfig::fpga();

    cfg.tech = app::Technique::Doall;
    app::RunResult doall = spmv->run(cfg);
    EXPECT_TRUE(doall.valid);
    EXPECT_EQ(doall.cycles, 4739905u);

    cfg.tech = app::Technique::MapleDecouple;
    app::RunResult maple = spmv->run(cfg);
    EXPECT_TRUE(maple.valid);
    EXPECT_EQ(maple.cycles, 1647963u);
}
