/**
 * @file
 * Extension study: offloaded read-modify-write atomics (Section 3 lists RMW
 * as a natural extension of MAPLE's programming model). The kernel is a
 * histogram/degree-count -- the indirect *update* pattern hist[key[i]]++
 * that defeats decoupling (Figure 12's SPMM story) when the core must
 * perform the RMW itself.
 *
 * Three variants over the same data:
 *   1. core amoAdd       -- each atomic is a blocking LLC round trip;
 *   2. core load+store   -- non-atomic RMW through the L1 (single thread
 *                           only; shown for reference);
 *   3. MAPLE ProduceAmoAdd -- the core streams keys, MAPLE performs the
 *                           atomics with full MLP.
 */
#include <cstdio>

#include "core/maple_runtime.hpp"
#include "soc/soc.hpp"
#include "workloads/workload.hpp"

using namespace maple;

namespace {

constexpr std::uint32_t kKeys = 1u << 16;   // 256KB histogram: LLC-hostile
constexpr std::uint32_t kSamples = 32768;

sim::Task<void>
coreAmoWorker(cpu::Core &core, sim::Addr keys, sim::Addr hist, app::Chunk ch)
{
    for (std::uint64_t i = ch.begin; i < ch.end; ++i) {
        std::uint64_t k = co_await core.load(keys + 4 * i, 4);
        co_await core.compute(1);
        (void)co_await core.amoAdd(hist + 4 * k, 1, 4);
    }
}

sim::Task<void>
loadStoreWorker(cpu::Core &core, sim::Addr keys, sim::Addr hist, app::Chunk ch)
{
    for (std::uint64_t i = ch.begin; i < ch.end; ++i) {
        std::uint64_t k = co_await core.load(keys + 4 * i, 4);
        std::uint64_t v = co_await core.load(hist + 4 * k, 4);
        co_await core.compute(1);
        co_await core.store(hist + 4 * k, v + 1, 4);
    }
}

sim::Task<void>
mapleAmoWorker(cpu::Core &core, core::MapleApi &api, unsigned q, sim::Addr keys,
               app::Chunk ch, sim::Addr hist)
{
    co_await api.setAmoAddend(core, q, 1);
    std::uint64_t outstanding = 0;
    for (std::uint64_t i = ch.begin; i < ch.end; ++i) {
        std::uint64_t k = co_await core.load(keys + 4 * i, 4);
        co_await core.compute(1);
        co_await api.produceAmoAdd(core, q, hist + 4 * k);
        if (++outstanding == 24) {  // reclaim slots in batches
            for (int d = 0; d < 24; ++d)
                (void)co_await api.consume(core, q);
            outstanding = 0;
        }
    }
    for (std::uint64_t d = 0; d < outstanding; ++d)
        (void)co_await api.consume(core, q);
}

}  // namespace

int
main()
{
    std::printf("=== RMW extension: histogram of %u samples over %u buckets ===\n\n",
                kSamples, kKeys);
    app::SparseMatrix dummy;  // reuse the RNG-backed generators for keys
    std::vector<float> rnd = app::makeDenseVector(kSamples, 123);

    auto build = [&](soc::Soc &soc, os::Process &proc, sim::Addr &keys,
                     sim::Addr &hist) {
        keys = proc.alloc(kSamples * 4, "keys");
        hist = proc.alloc(kKeys * 4, "hist");
        for (std::uint32_t i = 0; i < kSamples; ++i) {
            auto k = static_cast<std::uint32_t>(rnd[i] * kKeys);
            proc.writeScalar<std::uint32_t>(keys + 4 * i, k % kKeys);
        }
        (void)soc;
    };

    // 1. core atomics, 2 threads
    {
        soc::Soc soc(soc::SocConfig::fpga());
        os::Process &proc = soc.createProcess("amo1");
        sim::Addr keys, hist;
        build(soc, proc, keys, hist);
        sim::Cycle cy = soc.run(
            {sim::spawn(coreAmoWorker(soc.core(0), keys, hist,
                                      app::chunkOf(kSamples, 0, 2))),
             sim::spawn(coreAmoWorker(soc.core(1), keys, hist,
                                      app::chunkOf(kSamples, 1, 2)))});
        std::printf("%-38s %12llu cycles\n", "core amoAdd (2 threads)",
                    (unsigned long long)cy);
    }

    // 2. plain load+store RMW, 1 thread (reference)
    {
        soc::Soc soc(soc::SocConfig::fpga());
        os::Process &proc = soc.createProcess("amo2");
        sim::Addr keys, hist;
        build(soc, proc, keys, hist);
        sim::Cycle cy = soc.run({sim::spawn(
            loadStoreWorker(soc.core(0), keys, hist, app::Chunk{0, kSamples}))});
        std::printf("%-38s %12llu cycles\n", "load+store RMW (1 thread)",
                    (unsigned long long)cy);
    }

    // 3. MAPLE-offloaded atomics, 2 threads, one queue each
    {
        soc::Soc soc(soc::SocConfig::fpga());
        os::Process &proc = soc.createProcess("amo3");
        sim::Addr keys, hist;
        build(soc, proc, keys, hist);
        core::MapleApi api = core::MapleApi::attach(proc, soc.maple());
        soc.run({sim::spawn(api.initAndOpen(soc.core(0), 2, 32, 4))});
        sim::Cycle cy = soc.run(
            {sim::spawn(mapleAmoWorker(soc.core(0), api, 0, keys,
                                       app::chunkOf(kSamples, 0, 2), hist)),
             sim::spawn(mapleAmoWorker(soc.core(1), api, 1, keys,
                                       app::chunkOf(kSamples, 1, 2), hist))});
        std::printf("%-38s %12llu cycles\n", "MAPLE ProduceAmoAdd (2 threads)",
                    (unsigned long long)cy);

        // Validate against a host histogram.
        std::vector<std::uint32_t> golden(kKeys, 0);
        for (std::uint32_t i = 0; i < kSamples; ++i)
            ++golden[proc.readScalar<std::uint32_t>(keys + 4 * i)];
        bool ok = true;
        for (std::uint32_t k = 0; k < kKeys; ++k)
            ok &= proc.readScalar<std::uint32_t>(hist + 4 * k) == golden[k];
        std::printf("\nresult check: %s\n", ok ? "PASS" : "FAIL");
    }
    std::printf("\n(offloading the RMW recovers the MLP that Figure 12's SPMM "
                "fallback gives up)\n");
    return 0;
}
