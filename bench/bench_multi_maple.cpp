/**
 * @file
 * Tiled scaling study (Sections 3.6-3.8): the paper's chip integrates tens
 * of MAPLE instances, one per tile group; "more units can be employed for
 * larger thread counts in a tiled manner". We run 8 decoupled threads
 * (4 Access/Execute pairs) against 1, 2 and 4 MAPLE instances, assigning
 * each pair to the instance nearest its cores, and report the speedup over
 * 8-thread doall plus the per-device queue pressure.
 */
#include <cstdio>

#include "core/maple_runtime.hpp"
#include "soc/soc.hpp"
#include "workloads/workload.hpp"

using namespace maple;

namespace {

constexpr std::uint32_t kRows = 4096;
constexpr std::uint32_t kCols = 65536;
constexpr std::uint32_t kNnz = 8;

struct Sim {
    app::SimCsr m;
    app::SimArray<float> x, y;
};

sim::Task<void>
doallWorker(cpu::Core &core, Sim &s, app::Chunk rows)
{
    auto jb = static_cast<std::uint32_t>(
        co_await core.load(s.m.row_ptr.addr(rows.begin), 4));
    for (std::uint64_t r = rows.begin; r < rows.end; ++r) {
        auto je = static_cast<std::uint32_t>(
            co_await core.load(s.m.row_ptr.addr(r + 1), 4));
        float acc = 0.0f;
        for (std::uint32_t j = jb; j < je; ++j) {
            auto c = static_cast<std::uint32_t>(
                co_await core.load(s.m.col_idx.addr(j), 4));
            float v = app::f32FromBits(co_await core.load(s.m.vals.addr(j), 4));
            float xv = app::f32FromBits(co_await core.load(s.x.addr(c), 4));
            co_await core.compute(1);
            acc += v * xv;
        }
        co_await core.store(s.y.addr(r), app::bitsFromF32(acc), 4);
        jb = je;
    }
}

sim::Task<void>
access(cpu::Core &core, Sim &s, core::MapleApi &api, unsigned q, app::Chunk rows)
{
    auto jb = static_cast<std::uint32_t>(
        co_await core.load(s.m.row_ptr.addr(rows.begin), 4));
    for (std::uint64_t r = rows.begin; r < rows.end; ++r) {
        auto je = static_cast<std::uint32_t>(
            co_await core.load(s.m.row_ptr.addr(r + 1), 4));
        for (std::uint32_t j = jb; j < je; ++j) {
            auto c = static_cast<std::uint32_t>(
                co_await core.load(s.m.col_idx.addr(j), 4));
            co_await core.compute(1);
            co_await api.producePtr(core, q, s.x.addr(c));
        }
        jb = je;
    }
}

sim::Task<void>
execute(cpu::Core &core, Sim &s, core::MapleApi &api, unsigned q, app::Chunk rows)
{
    auto jb = static_cast<std::uint32_t>(
        co_await core.load(s.m.row_ptr.addr(rows.begin), 4));
    for (std::uint64_t r = rows.begin; r < rows.end; ++r) {
        auto je = static_cast<std::uint32_t>(
            co_await core.load(s.m.row_ptr.addr(r + 1), 4));
        float acc = 0.0f;
        for (std::uint32_t j = jb; j < je; ++j) {
            float v = app::f32FromBits(co_await core.load(s.m.vals.addr(j), 4));
            float xv = app::f32FromBits(co_await api.consume(core, q));
            co_await core.compute(1);
            acc += v * xv;
        }
        co_await core.store(s.y.addr(r), app::bitsFromF32(acc), 4);
        jb = je;
    }
}

Sim
upload(os::Process &proc, const app::SparseMatrix &m, const std::vector<float> &x)
{
    Sim s;
    s.m = app::SimCsr::upload(proc, m, true);
    s.x = app::SimArray<float>(proc, x.size(), "x");
    s.x.upload(x);
    s.y = app::SimArray<float>(proc, m.rows, "y");
    return s;
}

}  // namespace

int
main()
{
    std::printf("=== Tiled MAPLE scaling: 8 threads (4 pairs), SPMV ===\n\n");
    app::SparseMatrix m = app::makeSkewedSparse(kRows, kCols, kNnz, 7, 2.0);
    std::vector<float> x = app::makeDenseVector(kCols, 77);

    // Baseline: 8-thread doall (no MAPLE needed, one present anyway).
    sim::Cycle doall;
    {
        soc::SocConfig cfg = soc::SocConfig::fpga();
        cfg.num_cores = 8;
        cfg.mesh_width = 0;
        cfg.mesh_height = 0;
        soc::Soc soc(cfg);
        os::Process &proc = soc.createProcess("doall");
        Sim s = upload(proc, m, x);
        std::vector<sim::Join> joins;
        for (unsigned t = 0; t < 8; ++t)
            joins.push_back(sim::spawn(
                doallWorker(soc.core(t), s, app::chunkOf(kRows, t, 8))));
        doall = soc.run(std::move(joins));
        std::printf("%-28s %12llu cycles\n", "doall (8 threads)",
                    (unsigned long long)doall);
    }

    for (unsigned maples : {1u, 2u, 4u}) {
        soc::SocConfig cfg = soc::SocConfig::fpga();
        cfg.num_cores = 8;
        cfg.num_maples = maples;
        cfg.mesh_width = 0;
        cfg.mesh_height = 0;
        soc::Soc soc(cfg);
        os::Process &proc = soc.createProcess("tiled");
        Sim s = upload(proc, m, x);

        std::vector<core::MapleApi> apis;
        for (unsigned i = 0; i < maples; ++i)
            apis.push_back(core::MapleApi::attach(proc, soc.maple(i)));

        const unsigned pairs = 4;
        const unsigned pairs_per_maple = pairs / maples;
        auto setup = [&](cpu::Core &c) -> sim::Task<void> {
            for (unsigned i = 0; i < maples; ++i)
                co_await apis[i].initAndOpen(c, pairs_per_maple, 32, 4);
        };
        soc.run({sim::spawn(setup(soc.core(0)))});

        std::vector<sim::Join> joins;
        for (unsigned p = 0; p < pairs; ++p) {
            unsigned dev = p / pairs_per_maple;
            unsigned q = p % pairs_per_maple;
            app::Chunk rows = app::chunkOf(kRows, p, pairs);
            joins.push_back(sim::spawn(
                access(soc.core(2 * p), s, apis[dev], q, rows)));
            joins.push_back(sim::spawn(
                execute(soc.core(2 * p + 1), s, apis[dev], q, rows)));
        }
        sim::Cycle cy = soc.run(std::move(joins));

        std::uint64_t stall_sum = 0;
        for (unsigned i = 0; i < maples; ++i)
            stall_sum += soc.maple(i).counter(core::Counter::EmptyStallCycles);
        std::printf("%u MAPLE instance%s           %12llu cycles  (%.2fx over "
                    "doall, %llu consume-stall cycles)\n",
                    maples, maples > 1 ? "s" : " ", (unsigned long long)cy,
                    double(doall) / double(cy), (unsigned long long)stall_sum);
    }
    std::printf("\n(paper: MAPLE scales in a tiled manner; placement near the\n"
                " consuming cores minimizes the consume round trip)\n");
    return 0;
}
