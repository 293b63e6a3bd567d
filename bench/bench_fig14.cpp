/**
 * @file
 * Figure 14: step-by-step breakdown of the core-to-MAPLE round-trip latency
 * in the OpenPiton-style SoC, plus a measured end-to-end consume latency
 * from a microbenchmark (data already waiting in the queue).
 *
 * Paper headline: the round trip is about 25 cycles plus a cycle per NoC
 * hop -- similar to an L2 access and an order of magnitude below DRAM.
 */
#include <cstdio>

#include "core/maple_runtime.hpp"
#include "soc/soc.hpp"

using namespace maple;

int
main()
{
    soc::Soc soc(soc::SocConfig::fpga());
    os::Process &proc = soc.createProcess("fig14");
    core::MapleApi api = core::MapleApi::attach(proc, soc.maple());

    cpu::Core &c = soc.core(0);
    auto bd = c.mmioRoundTrip(soc.mapleTile(0));
    unsigned hops = soc.mesh().hops(c.tile(), soc.mapleTile(0));
    sim::Cycle device = soc.maple().params().pipe_latency;

    std::printf("=== Figure 14: core-to-MAPLE round-trip latency breakdown ===\n");
    std::printf("  %-28s %3llu cycles\n", "L1 bypass (out)", (unsigned long long)bd.l1_out);
    std::printf("  %-28s %3llu cycles\n", "L1.5 stage (out)", (unsigned long long)bd.l15_out);
    std::printf("  %-28s %3llu cycles (%u hops)\n", "NoC request",
                (unsigned long long)bd.noc_out, hops);
    std::printf("  %-28s %3llu cycles\n", "MAPLE consume pipeline",
                (unsigned long long)device);
    std::printf("  %-28s %3llu cycles\n", "NoC response", (unsigned long long)bd.noc_back);
    std::printf("  %-28s %3llu cycles\n", "L1.5 stage (back)", (unsigned long long)bd.l15_back);
    std::printf("  %-28s %3llu cycles\n", "L1 bypass (back)", (unsigned long long)bd.l1_back);
    std::printf("  %-28s %3llu cycles\n", "TOTAL (static model)",
                (unsigned long long)(bd.total() + device));

    // Measured: consume a queue entry whose data is already present (the
    // batch fits the 32-entry queue so no produce ever parks).
    constexpr int kN = 24;
    sim::Cycle total = 0;
    auto bench = [&](cpu::Core &core) -> sim::Task<void> {
        co_await api.initAndOpen(core, 1, 32, 8);
        for (int i = 0; i < kN; ++i)
            co_await api.produce(core, 0, i);
        co_await core.storeFence();
        sim::Cycle t0 = soc.eq().now();
        for (int i = 0; i < kN; ++i)
            (void)co_await api.consume(core, 0);
        total = soc.eq().now() - t0;
    };
    soc.run({sim::spawn(bench(c))}, 10'000'000);

    double per = double(total) / kN;
    std::printf("\nMeasured consume round trip: %.1f cycles/consume "
                "(incl. 1-cycle issue)\n", per);
    std::printf("Reference points: L2 access ~%u cycles, DRAM ~%u cycles\n",
                (unsigned)(soc.config().llc.hit_latency + 4),
                (unsigned)soc.config().dram.latency);
    std::printf("(paper: ~25 cycles + 1 per hop; similar to L2, 10x below DRAM)\n");
    return 0;
}
