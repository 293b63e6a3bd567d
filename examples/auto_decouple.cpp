/**
 * @file
 * Automatic compilation example (Section 3.3 / Figure 5): a kernel written
 * once in the IR is sliced by the compiler pass into Access and Execute
 * programs that communicate through MAPLE -- no hand-written decoupling.
 *
 * Prints the original program, both slices, and the measured speedup of the
 * auto-decoupled version over single-core execution.
 */
#include <cstdio>

#include "kern/interp.hpp"
#include "kern/kernels.hpp"
#include "kern/slicer.hpp"
#include "soc/soc.hpp"

using namespace maple;
using namespace maple::kern;

int
main()
{
    constexpr std::uint32_t kN = 2048;
    GatherKernel kernel = makeGatherMultiply();

    std::printf("original kernel (res[i] = A[B[i]] * C[i]):\n%s\n",
                disassemble(kernel.prog).c_str());

    SliceResult sliced = sliceProgram(kernel.prog);
    if (!sliced.decoupled) {
        std::printf("slicer fell back: %s\n", sliced.reason.c_str());
        return 1;
    }
    std::printf("ACCESS slice:\n%s\n", disassemble(sliced.access).c_str());
    std::printf("EXECUTE slice:\n%s\n", disassemble(sliced.execute).c_str());

    auto make_data = [&](os::Process &proc, GatherKernel &k) {
        sim::Addr a = proc.alloc(kN * 4, "A");
        sim::Addr b = proc.alloc(kN * 4, "B");
        sim::Addr c = proc.alloc(kN * 4, "C");
        sim::Addr res = proc.alloc(kN * 4, "res");
        for (std::uint32_t i = 0; i < kN; ++i) {
            proc.writeScalar<float>(a + 4 * i, float(i));
            proc.writeScalar<std::uint32_t>(b + 4 * i, (i * 2654435761u) % kN);
            proc.writeScalar<float>(c + 4 * i, 0.5f);
        }
        patchConst(k.prog, k.pc_a, a);
        patchConst(k.prog, k.pc_b, b);
        patchConst(k.prog, k.pc_c, c);
        patchConst(k.prog, k.pc_res, res);
        patchConst(k.prog, k.pc_n, kN);
    };

    // Single core.
    sim::Cycle single;
    {
        soc::Soc soc(soc::SocConfig::fpga());
        os::Process &proc = soc.createProcess("single");
        GatherKernel k = makeGatherMultiply();
        make_data(proc, k);
        ExecEnv env{&soc.core(0), nullptr, 0};
        single = soc.run({sim::spawn(interpret(k.prog, env))});
    }

    // Auto-decoupled pair.
    sim::Cycle decoupled;
    {
        soc::Soc soc(soc::SocConfig::fpga());
        os::Process &proc = soc.createProcess("pair");
        GatherKernel k = makeGatherMultiply();
        make_data(proc, k);
        SliceResult r = sliceProgram(k.prog);

        core::MapleApi api = core::MapleApi::attach(proc, soc.maple());
        soc.run({sim::spawn(api.initAndOpen(soc.core(0), r.queues_used, 32, 4))});

        ExecEnv access_env{&soc.core(0), &api, 0};
        ExecEnv exec_env{&soc.core(1), &api, 0};
        decoupled = soc.run({sim::spawn(interpret(r.access, access_env)),
                             sim::spawn(interpret(r.execute, exec_env))});
    }

    std::printf("single core:     %10llu cycles\n", (unsigned long long)single);
    std::printf("auto-decoupled:  %10llu cycles\n", (unsigned long long)decoupled);
    std::printf("speedup:         %10.2fx\n", double(single) / double(decoupled));
    return 0;
}
