/**
 * @file
 * Honest large-grid scaling with the MSI protocol on: fig14-style
 * multi-MAPLE decoupled SPMV at 64, 128 and 256 tiles, with every cache
 * kept coherent by the sparse directories and a shared progress array
 * ping-ponging between execute cores to generate real invalidation
 * traffic. The reference checker is enabled throughout, so the numbers
 * are only printed if every one of the millions of transitions was
 * protocol-legal.
 *
 *   bench_coherence_grid [tiles ...]     subset of {64, 128, 256}
 *
 * Knobs: MAPLE_LLC_SLICES / MAPLE_COH_* overlay the per-scale defaults.
 */
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/maple_runtime.hpp"
#include "soc/soc.hpp"
#include "workloads/workload.hpp"

using namespace maple;

namespace {

constexpr std::uint32_t kCols = 4096;
constexpr std::uint32_t kNnz = 8;
constexpr std::uint32_t kRowsPerPair = 16;

struct Sim {
    app::SimCsr m;
    app::SimArray<float> x, y;
    app::SimArray<std::uint32_t> progress;  ///< actively-shared lines
};

sim::Task<void>
access(cpu::Core &core, Sim &s, core::MapleApi &api, unsigned q,
       app::Chunk rows)
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
execute(cpu::Core &core, Sim &s, core::MapleApi &api, unsigned q,
        app::Chunk rows, unsigned slot)
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
        // Shared progress line: many executors bump the same few counters,
        // which under MSI is a stream of upgrade misses + invalidations.
        auto p = static_cast<std::uint32_t>(
            co_await core.loadShared(s.progress.addr(slot), 4));
        co_await core.storeShared(s.progress.addr(slot), p + 1, 4);
        jb = je;
    }
}

void
runScale(unsigned tiles)
{
    // tiles = cores + maples + slices with 2 queue pairs per MAPLE.
    const unsigned cores = tiles * 3 / 4;          // 48 / 96 / 192
    const unsigned maples = tiles / 4 - tiles / 16; // 12 / 24 / 48
    const unsigned slices = tiles / 16;             // 4 / 8 / 16
    const unsigned pairs = cores / 2;
    const unsigned pairs_per_maple = pairs / maples;
    const std::uint32_t rows = pairs * kRowsPerPair;

    soc::SocConfig cfg = soc::SocConfig::simulated(cores);
    cfg.name = "coh-grid-" + std::to_string(tiles);
    cfg.num_maples = maples;
    cfg.mesh_width = 0;
    cfg.mesh_height = 0;
    cfg.coherence.mode = mem::CoherenceMode::Msi;
    cfg.coherence.checker = true;
    cfg.llc_slices = slices;

    soc::Soc soc(cfg);
    MAPLE_ASSERT(soc.coherence(), "protocol must be live");
    os::Process &proc = soc.createProcess("coh-grid");

    app::SparseMatrix m = app::makeSkewedSparse(rows, kCols, kNnz, 7, 2.0);
    std::vector<float> x = app::makeDenseVector(kCols, 77);
    Sim s;
    s.m = app::SimCsr::upload(proc, m, true);
    s.x = app::SimArray<float>(proc, x.size(), "x");
    s.x.upload(x);
    s.y = app::SimArray<float>(proc, rows, "y");
    // Few slots, many writers: every slot line stays hot in the protocol.
    s.progress = app::SimArray<std::uint32_t>(proc, pairs / 4 + 1, "progress");

    std::vector<core::MapleApi> apis;
    for (unsigned i = 0; i < maples; ++i)
        apis.push_back(core::MapleApi::attach(proc, soc.maple(i)));
    auto setup = [&](cpu::Core &c) -> sim::Task<void> {
        for (unsigned i = 0; i < maples; ++i)
            co_await apis[i].initAndOpen(c, pairs_per_maple, 32, 4);
    };
    soc.run({sim::spawn(setup(soc.core(0)))});

    std::vector<sim::Join> joins;
    for (unsigned p = 0; p < pairs; ++p) {
        unsigned dev = p / pairs_per_maple;
        unsigned q = p % pairs_per_maple;
        app::Chunk r = app::chunkOf(rows, p, pairs);
        joins.push_back(
            sim::spawn(access(soc.core(2 * p), s, apis[dev], q, r)));
        joins.push_back(sim::spawn(
            execute(soc.core(2 * p + 1), s, apis[dev], q, r, p % (pairs / 4 + 1))));
    }
    sim::Cycle cy = soc.run(std::move(joins));

    mem::CoherenceFabric &coh = *soc.coherence();
    std::uint64_t recalls = 0, upgrades = 0, entries = 0;
    for (unsigned sl = 0; sl < coh.numSlices(); ++sl) {
        recalls += coh.slice(sl).stats().counterValue("recalls");
        upgrades += coh.slice(sl).stats().counterValue("upgrades");
        entries += coh.slice(sl).entriesInUse();
    }
    mem::CoherenceChecker *ck = coh.checker();
    std::printf("%4u tiles (%3uc/%2um/%2ud)  %10llu cycles  "
                "inv %8llu  interv %7llu  upgrades %7llu  recalls %6llu\n",
                tiles, cores, maples, slices, (unsigned long long)cy,
                (unsigned long long)coh.totalInvalidations(),
                (unsigned long long)coh.totalInterventions(),
                (unsigned long long)upgrades, (unsigned long long)recalls);
    std::printf("      checker: %llu loads + %llu stores verified; "
                "%llu lines tracked at quiesce\n",
                (unsigned long long)(ck ? ck->loadsChecked() : 0),
                (unsigned long long)(ck ? ck->storesChecked() : 0),
                (unsigned long long)entries);
}

}  // namespace

int
main(int argc, char **argv)
{
    std::printf("=== Sparse-directory MSI at scale: decoupled SPMV grids "
                "(checker on) ===\n\n");
    std::vector<unsigned> scales;
    for (int i = 1; i < argc; ++i)
        scales.push_back(static_cast<unsigned>(std::strtoul(argv[i], nullptr, 10)));
    if (scales.empty())
        scales = {64, 128, 256};
    for (unsigned t : scales)
        runScale(t);
    std::printf("\n(every protocol transition above passed the flat-memory "
                "reference checker)\n");
    return 0;
}
