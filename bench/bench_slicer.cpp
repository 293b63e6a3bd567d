/**
 * @file
 * Compiler-flow ablation (Section 3.3): the same gather kernel run as
 *  (a) single-core IR execution,
 *  (b) IR with the software-prefetch insertion pass,
 *  (c) automatically sliced Access/Execute through MAPLE,
 * demonstrating that the paper's "compiler targets the API" claim holds:
 * the transform is mechanical and the sliced code gets the decoupling
 * speedup without any hand-written data movement.
 */
#include <cstdio>

#include "kern/interp.hpp"
#include "kern/kernels.hpp"
#include "kern/slicer.hpp"
#include "soc/soc.hpp"

using namespace maple;
using namespace maple::kern;

namespace {

constexpr std::uint32_t kN = 4096;
constexpr unsigned kPad = 64;  // slack for the unguarded prefetch over-read

struct Data {
    sim::Addr a, b, c, res;
};

Data
setupData(os::Process &proc, GatherKernel &k)
{
    Data d;
    d.a = proc.alloc(kN * 4, "A");
    d.b = proc.alloc((kN + kPad) * 4, "B");
    d.c = proc.alloc(kN * 4, "C");
    d.res = proc.alloc(kN * 4, "res");
    for (std::uint32_t i = 0; i < kN; ++i) {
        proc.writeScalar<float>(d.a + 4 * i, float(i) * 0.5f);
        proc.writeScalar<std::uint32_t>(d.b + 4 * i, (i * 2654435761u) % kN);
        proc.writeScalar<float>(d.c + 4 * i, 1.5f);
    }
    patchConst(k.prog, k.pc_a, d.a);
    patchConst(k.prog, k.pc_b, d.b);
    patchConst(k.prog, k.pc_c, d.c);
    patchConst(k.prog, k.pc_res, d.res);
    patchConst(k.prog, k.pc_n, kN);
    return d;
}

}  // namespace

int
main()
{
    std::printf("=== Compiler flow on res[i] = A[B[i]] * C[i], n = %u ===\n\n", kN);

    // (a) original, one core
    sim::Cycle base;
    {
        soc::Soc soc(soc::SocConfig::fpga());
        os::Process &proc = soc.createProcess("a");
        GatherKernel k = makeGatherMultiply();
        setupData(proc, k);
        ExecEnv env{&soc.core(0), nullptr, 0};
        base = soc.run({sim::spawn(interpret(k.prog, env))});
        std::printf("%-44s %10llu cycles\n", "original (1 core)",
                    (unsigned long long)base);
    }

    // (b) software-prefetch pass, one core
    {
        soc::Soc soc(soc::SocConfig::fpga());
        os::Process &proc = soc.createProcess("b");
        GatherKernel k = makeGatherMultiply();
        setupData(proc, k);
        Program pf = insertSoftwarePrefetch(k.prog, 8);
        ExecEnv env{&soc.core(0), nullptr, 0};
        sim::Cycle cy = soc.run({sim::spawn(interpret(pf, env))});
        std::printf("%-44s %10llu cycles (%.2fx)\n",
                    "+ software-prefetch pass (1 core)",
                    (unsigned long long)cy, double(base) / double(cy));
    }

    // (c) automatic slicing through MAPLE, two cores
    {
        soc::Soc soc(soc::SocConfig::fpga());
        os::Process &proc = soc.createProcess("c");
        GatherKernel k = makeGatherMultiply();
        setupData(proc, k);
        SliceResult r = sliceProgram(k.prog);
        MAPLE_ASSERT(r.decoupled, "slicer refused the gather kernel");
        core::MapleApi api = core::MapleApi::attach(proc, soc.maple());
        soc.run({sim::spawn(api.initAndOpen(soc.core(0), 1, 32, 4))});
        ExecEnv ae{&soc.core(0), &api, 0};
        ExecEnv ee{&soc.core(1), &api, 0};
        sim::Cycle cy = soc.run({sim::spawn(interpret(r.access, ae)),
                                 sim::spawn(interpret(r.execute, ee))});
        std::printf("%-44s %10llu cycles (%.2fx)\n",
                    "auto-sliced through MAPLE (2 cores)",
                    (unsigned long long)cy, double(base) / double(cy));
    }

    std::printf("\n(slicer fallbacks -- RMW and IMA-free kernels -> doall -- "
                "are covered by tests/test_kern.cpp)\n");
    return 0;
}
