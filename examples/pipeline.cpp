/**
 * @file
 * Pipelining example -- the extension the paper's conclusion envisions:
 * "to do pipelining, where each program stage is executed in a different
 * off-the-shelf core or accelerator".
 *
 * Three software stages run on three cores, connected by two MAPLE queues
 * of the same device; the middle stage uses PRODUCE_PTR so the gather it
 * performs overlaps with both neighbors:
 *
 *   stage0 (generate ids) --q0--> stage1 (gather+filter) --q1--> stage2 (reduce)
 */
#include <cstdio>

#include "core/maple_runtime.hpp"
#include "soc/soc.hpp"

using namespace maple;

namespace {

constexpr std::uint32_t kN = 8192;

sim::Task<void>
stage0(cpu::Core &core, core::MapleApi &api, sim::Addr ids)
{
    for (std::uint32_t i = 0; i < kN; ++i) {
        std::uint64_t id = co_await core.load(ids + 4 * i, 4);
        co_await core.compute(1);
        co_await api.produce(core, 0, id);
    }
}

sim::Task<void>
stage1(cpu::Core &core, core::MapleApi &api, sim::Addr table)
{
    for (std::uint32_t i = 0; i < kN; ++i) {
        std::uint64_t id = co_await api.consume(core, 0);
        co_await core.compute(1);
        // Indirect gather offloaded to MAPLE: stage2 consumes the data.
        co_await api.producePtr(core, 1, table + 4 * (id % kN));
    }
}

sim::Task<void>
stage2(cpu::Core &core, core::MapleApi &api, sim::Addr out)
{
    std::uint64_t acc = 0;
    for (std::uint32_t i = 0; i < kN; ++i) {
        std::uint64_t v = co_await api.consume(core, 1);
        co_await core.compute(1);
        acc += v;
    }
    co_await core.store(out, acc, 8);
    co_await core.storeFence();
}

}  // namespace

int
main()
{
    std::printf("3-stage software pipeline through one MAPLE (2 queues)\n\n");

    soc::SocConfig cfg = soc::SocConfig::fpga();
    cfg.num_cores = 3;
    cfg.mesh_width = 0;
    cfg.mesh_height = 0;
    soc::Soc soc(cfg);
    os::Process &proc = soc.createProcess("pipeline");

    sim::Addr ids = proc.alloc(kN * 4, "ids");
    sim::Addr table = proc.alloc(kN * 4, "table");
    sim::Addr out = proc.alloc(64, "out");
    std::uint64_t golden = 0;
    {
        std::vector<std::uint32_t> idv(kN), tv(kN);
        for (std::uint32_t i = 0; i < kN; ++i) {
            idv[i] = i * 2654435761u;
            tv[i] = i * 5 + 1;
        }
        proc.writeBytes(ids, idv.data(), kN * 4);
        proc.writeBytes(table, tv.data(), kN * 4);
        for (std::uint32_t i = 0; i < kN; ++i)
            golden += tv[idv[i] % kN];
    }

    core::MapleApi api = core::MapleApi::attach(proc, soc.maple());
    soc.run({sim::spawn(api.initAndOpen(soc.core(0), 2, 32, 4))});

    sim::Cycle cycles = soc.run({sim::spawn(stage0(soc.core(0), api, ids)),
                                 sim::spawn(stage1(soc.core(1), api, table)),
                                 sim::spawn(stage2(soc.core(2), api, out))});

    std::uint64_t result = proc.readScalar<std::uint64_t>(out);
    std::printf("pipeline finished in %llu cycles (%.1f cycles/element)\n",
                (unsigned long long)cycles, double(cycles) / kN);
    std::printf("result: %llu (%s)\n", (unsigned long long)result,
                result == golden ? "PASS" : "FAIL");
    return result == golden ? 0 : 1;
}
