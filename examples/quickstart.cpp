/**
 * @file
 * Quickstart: build an SoC with one MAPLE tile, decouple a simple
 * A[B[i]]-gather between two cores through the MAPLE API, and print the
 * speedup over running the same loop on one core.
 *
 * This walks through the whole public API surface:
 *   1. soc::Soc             -- assemble cores + MAPLE + memory on a mesh
 *   2. os::Process          -- create an address space, allocate arrays
 *   3. core::MapleApi       -- attach a MAPLE instance to the process
 *   4. INIT / OPEN          -- configure + bind a hardware queue
 *   5. PRODUCE_PTR / CONSUME-- the decoupled access/execute loop
 */
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/maple_runtime.hpp"
#include "harness/figures.hpp"
#include "soc/knobs.hpp"
#include "soc/soc.hpp"

using namespace maple;

namespace {

constexpr std::uint32_t kN = 4096;

/** Single-core baseline: the classic pointer-chasing gather loop. */
sim::Task<void>
baseline(cpu::Core &core, sim::Addr a, sim::Addr b, sim::Addr out)
{
    for (std::uint32_t i = 0; i < kN; ++i) {
        std::uint64_t idx = co_await core.load(b + 4 * i, 4);
        std::uint64_t v = co_await core.load(a + 4 * idx, 4);  // the IMA
        co_await core.compute(1);
        co_await core.store(out + 4 * i, v + 1, 4);
    }
}

/** Access thread: streams B and hands the pointers to MAPLE. The *Reliable
 *  ops are free pass-throughs unless --fault-recovery armed the driver. */
sim::Task<void>
accessThread(cpu::Core &core, core::MapleApi &api, sim::Addr a, sim::Addr b)
{
    for (std::uint32_t i = 0; i < kN; ++i) {
        std::uint64_t idx = co_await core.load(b + 4 * i, 4);
        co_await api.producePtrReliable(core, /*queue=*/0, a + 4 * idx);
    }
}

/** Execute thread: consumes already-fetched data from the queue. */
sim::Task<void>
executeThread(cpu::Core &core, core::MapleApi &api, sim::Addr out)
{
    for (std::uint32_t i = 0; i < kN; ++i) {
        std::uint64_t v = co_await api.consumeReliable(core, /*queue=*/0);
        co_await core.compute(1);
        co_await core.store(out + 4 * i, v + 1, 4);
    }
}

}  // namespace

int
main(int argc, char **argv)
{
    // Every MAPLE_* knob has a flag (--list-knobs prints them all), e.g.
    // --fault-noc=0.01 or --coherence=msi; both SoCs below pick them up.
    // --trace=out.json [--trace-csv=out.csv] captures a Perfetto-loadable
    // trace of the decoupled run only: resolve its config here, then keep
    // the baseline SoC from seeing MAPLE_TRACE.
    harness::applyKnobFlags(argc, argv);
    soc::SocConfig maple_cfg = soc::SocConfig::fpga();
    soc::resolveConfig(maple_cfg);
    unsetenv("MAPLE_TRACE");
    unsetenv("MAPLE_TRACE_CSV");

    std::printf("MAPLE quickstart: decoupling a gather of %u elements\n\n", kN);

    // --- Run 1: one in-order core, no MAPLE -------------------------------
    sim::Cycle base_cycles;
    {
        soc::Soc soc(soc::SocConfig::fpga());
        os::Process &proc = soc.createProcess("quickstart");
        sim::Addr a = proc.alloc(kN * 4, "A");
        sim::Addr b = proc.alloc(kN * 4, "B");
        sim::Addr out = proc.alloc(kN * 4, "out");
        for (std::uint32_t i = 0; i < kN; ++i) {
            proc.writeScalar<std::uint32_t>(a + 4 * i, i * 3);
            proc.writeScalar<std::uint32_t>(b + 4 * i, (i * 2654435761u) % kN);
        }
        base_cycles = soc.run({sim::spawn(baseline(soc.core(0), a, b, out))});
        std::printf("baseline (1 in-order core):      %10llu cycles\n",
                    (unsigned long long)base_cycles);
    }

    // --- Run 2: Access + Execute threads through MAPLE --------------------
    sim::Cycle maple_cycles;
    {
        soc::Soc soc(maple_cfg);
        os::Process &proc = soc.createProcess("quickstart");
        sim::Addr a = proc.alloc(kN * 4, "A");
        sim::Addr b = proc.alloc(kN * 4, "B");
        sim::Addr out = proc.alloc(kN * 4, "out");
        for (std::uint32_t i = 0; i < kN; ++i) {
            proc.writeScalar<std::uint32_t>(a + 4 * i, i * 3);
            proc.writeScalar<std::uint32_t>(b + 4 * i, (i * 2654435761u) % kN);
        }

        // The OS maps the device page and installs the driver (one call).
        core::MapleApi api = core::MapleApi::attach(proc, soc.maple());

        // INIT: one queue of 32 4-byte entries; OPEN binds it.
        auto setup = [&](cpu::Core &c) -> sim::Task<void> {
            co_await api.init(c, 1, 32, 4);
            bool ok = co_await api.open(c, 0);
            MAPLE_ASSERT(ok, "queue open failed");
        };
        soc.run({sim::spawn(setup(soc.core(0)))});

        maple_cycles = soc.run(
            {sim::spawn(accessThread(soc.core(0), api, a, b)),
             sim::spawn(executeThread(soc.core(1), api, out))});
        std::printf("decoupled through MAPLE (2 cores): %8llu cycles\n",
                    (unsigned long long)maple_cycles);

        // Verify the result and show some device counters.
        bool ok = true;
        for (std::uint32_t i = 0; i < kN; ++i) {
            std::uint32_t idx = (i * 2654435761u) % kN;
            ok &= proc.readScalar<std::uint32_t>(out + 4 * i) == idx * 3 + 1;
        }
        std::printf("\nresult check: %s\n", ok ? "PASS" : "FAIL");
        std::printf("MAPLE counters: %llu pointer-produces, %llu consumes, "
                    "%llu TLB walks\n",
                    (unsigned long long)soc.maple().counter(core::Counter::ProducedPtrs),
                    (unsigned long long)soc.maple().counter(core::Counter::Consumed),
                    (unsigned long long)soc.maple().mmu().walks());
        if (os::MapleDriver *drv = api.driver()) {
            std::printf("recovery: %llu recoveries, %llu replayed ops, "
                        "%llu poisoned responses, %llu degraded queues\n",
                        (unsigned long long)drv->recoveries(),
                        (unsigned long long)drv->replayedOps(),
                        (unsigned long long)soc.maple().counter(
                            core::Counter::PoisonedResponses),
                        (unsigned long long)drv->degradedQueues());
        }
        // Only printed when --ecc / --scrub-interval armed the resilience
        // model, so --ecc=off stdout stays byte-identical.
        if (mem::ResilManager *r = soc.resil()) {
            std::printf("resil: %llu corrected, %llu uncorrectable, "
                        "%llu containments, %llu retired pages, "
                        "%llu scrub repairs\n",
                        (unsigned long long)r->correctedTotal(),
                        (unsigned long long)r->uncorrectableTotal(),
                        (unsigned long long)r->containments(),
                        (unsigned long long)r->retiredPages(),
                        (unsigned long long)r->scrubRepairs());
        }
    }

    std::printf("\nspeedup: %.2fx\n",
                double(base_cycles) / double(maple_cycles));
    return 0;
}
