/**
 * @file
 * Sparse Matrix-Vector multiplication (y = M x), CSR format.
 *
 * The irregular memory access is x[col_idx[j]]: col_idx and vals stream
 * sequentially (cache friendly) while x is sampled at unpredictable offsets
 * over an array larger than the LLC. Every latency-tolerance technique of
 * the paper is implemented against the same kernel and validated bitwise
 * against a host-computed golden result.
 */
#include "baselines/desc.hpp"
#include "workloads/workload.hpp"

namespace maple::app {

namespace {

/** Device-side state for one run. */
struct SpmvSim {
    SimCsr m;
    SimArray<float> x;
    SimArray<float> y;
    std::uint32_t rows = 0;
};

// ---------------------------------------------------------------------------
// doall (also the no-prefetch single-thread baseline). A nonzero @p dist
// inserts Ainsworth & Jones-style software prefetches (sw-prefetch).
// ---------------------------------------------------------------------------

sim::Task<void>
doallWorker(cpu::Core &core, SpmvSim &s, Chunk rows, unsigned dist)
{
    const std::uint64_t nnz = s.m.col_idx.size();
    auto jb = static_cast<std::uint32_t>(
        co_await core.load(s.m.row_ptr.addr(rows.begin), 4));
    for (std::uint64_t r = rows.begin; r < rows.end; ++r) {
        auto je = static_cast<std::uint32_t>(
            co_await core.load(s.m.row_ptr.addr(r + 1), 4));
        float acc = 0.0f;
        for (std::uint32_t j = jb; j < je; ++j) {
            // Inserted prefetch code: load col_idx[j+dist] (the extra load
            // software prefetching cannot avoid), compute the target address
            // and prefetch x[c'] into the L1.
            if (dist && j + dist < nnz) {
                auto cd = static_cast<std::uint32_t>(
                    co_await core.load(s.m.col_idx.addr(j + dist), 4));
                co_await core.compute(4);  // bounds check + address computation
                co_await core.prefetchL1(s.x.addr(cd));
            }
            auto c = static_cast<std::uint32_t>(
                co_await core.load(s.m.col_idx.addr(j), 4));
            float v = f32FromBits(co_await core.load(s.m.vals.addr(j), 4));
            float xv = f32FromBits(co_await core.load(s.x.addr(c), 4));
            co_await core.compute(1);  // fused multiply-add
            acc += v * xv;
        }
        co_await core.store(s.y.addr(r), bitsFromF32(acc), 4);
        jb = je;
    }
}

// ---------------------------------------------------------------------------
// MAPLE LIMA prefetch: one API call offloads a whole row of A[B[i]], data is
// consumed from the hardware queue (two 4B words per load: ConsumePair).
// ---------------------------------------------------------------------------

sim::Task<void>
limaWorker(cpu::Core &core, SpmvSim &s, core::MapleApi &api, unsigned q,
           unsigned dist_rows)
{
    const std::uint32_t rows = s.rows;
    core::LimaRequest req;
    req.a_base = s.x.addr(0);
    req.b_base = s.m.col_idx.addr(0);
    req.target_queue = q;
    // Row bounds for the LIMA launch stream (runs dist_rows ahead): each
    // launch starts where the previous one ended.
    req.end = static_cast<std::uint32_t>(co_await core.load(s.m.row_ptr.addr(0), 4));
    std::uint32_t prologue = std::min(dist_rows, rows);
    for (std::uint32_t r = 0; r < prologue; ++r) {
        req.start = req.end;
        req.end = static_cast<std::uint32_t>(
            co_await core.load(s.m.row_ptr.addr(r + 1), 4));
        co_await api.lima(core, req);
    }

    PairedConsumer cons{api, q, s.m.col_idx.size(), false, 0};
    auto jb = static_cast<std::uint32_t>(co_await core.load(s.m.row_ptr.addr(0), 4));
    for (std::uint32_t r = 0; r < rows; ++r) {
        if (r + dist_rows < rows) {
            req.start = req.end;
            req.end = static_cast<std::uint32_t>(
                co_await core.load(s.m.row_ptr.addr(r + dist_rows + 1), 4));
            co_await api.lima(core, req);
        }
        auto je = static_cast<std::uint32_t>(
            co_await core.load(s.m.row_ptr.addr(r + 1), 4));
        float acc = 0.0f;
        for (std::uint32_t j = jb; j < je; ++j) {
            float v = f32FromBits(co_await core.load(s.m.vals.addr(j), 4));
            float xv = f32FromBits(co_await cons.next(core));
            co_await core.compute(1);
            acc += v * xv;
        }
        co_await core.store(s.y.addr(r), bitsFromF32(acc), 4);
        jb = je;
    }
}

// ---------------------------------------------------------------------------
// Decoupled access/execute over a PairQueue (MAPLE or the shared-memory
// ring), and the DeSC variant
// ---------------------------------------------------------------------------

sim::Task<void>
accessWorker(cpu::Core &core, SpmvSim &s, PairQueue &q, Chunk rows)
{
    auto jb = static_cast<std::uint32_t>(
        co_await core.load(s.m.row_ptr.addr(rows.begin), 4));
    for (std::uint64_t r = rows.begin; r < rows.end; ++r) {
        auto je = static_cast<std::uint32_t>(
            co_await core.load(s.m.row_ptr.addr(r + 1), 4));
        for (std::uint32_t j = jb; j < je; ++j) {
            auto c = static_cast<std::uint32_t>(
                co_await core.load(s.m.col_idx.addr(j), 4));
            co_await q.supply(core, s.x.addr(c));
        }
        jb = je;
    }
}

sim::Task<void>
executeWorker(cpu::Core &core, SpmvSim &s, PairQueue &q, Chunk rows)
{
    auto jb = static_cast<std::uint32_t>(
        co_await core.load(s.m.row_ptr.addr(rows.begin), 4));
    for (std::uint64_t r = rows.begin; r < rows.end; ++r) {
        auto je = static_cast<std::uint32_t>(
            co_await core.load(s.m.row_ptr.addr(r + 1), 4));
        float acc = 0.0f;
        for (std::uint32_t j = jb; j < je; ++j) {
            float v = f32FromBits(co_await core.load(s.m.vals.addr(j), 4));
            float xv = f32FromBits(co_await q.take(core));
            co_await core.compute(1);
            acc += v * xv;
        }
        co_await core.store(s.y.addr(r), bitsFromF32(acc), 4);
        jb = je;
    }
}

sim::Task<void>
descSupply(cpu::Core &core, SpmvSim &s, baselines::DescQueue &dq, Chunk rows)
{
    auto jb = static_cast<std::uint32_t>(
        co_await core.load(s.m.row_ptr.addr(rows.begin), 4));
    for (std::uint64_t r = rows.begin; r < rows.end; ++r) {
        auto je = static_cast<std::uint32_t>(
            co_await core.load(s.m.row_ptr.addr(r + 1), 4));
        co_await dq.produceValue(core, je - jb);
        for (std::uint32_t j = jb; j < je; ++j) {
            auto c = static_cast<std::uint32_t>(
                co_await core.load(s.m.col_idx.addr(j), 4));
            co_await core.compute(1);
            // Terminal loads: the Compute core has no memory visibility, so
            // both the value stream and the IMA go through the queue.
            co_await dq.produceLoad(core, s.m.vals.addr(j), 4);
            co_await dq.produceLoad(core, s.x.addr(c), 4);
        }
        // Service Compute-side stores that have accumulated.
        while (co_await dq.drainOneStore(core)) {
        }
        jb = je;
    }
    co_await dq.drainStoresToEnd(core);
}

sim::Task<void>
descCompute(cpu::Core &core, SpmvSim &s, baselines::DescQueue &dq, Chunk rows)
{
    for (std::uint64_t r = rows.begin; r < rows.end; ++r) {
        auto n = static_cast<std::uint32_t>(co_await dq.consume(core));
        float acc = 0.0f;
        for (std::uint32_t j = 0; j < n; ++j) {
            float v = f32FromBits(co_await dq.consume(core));
            float xv = f32FromBits(co_await dq.consume(core));
            co_await core.compute(1);
            acc += v * xv;
        }
        co_await dq.produceStore(core, s.y.addr(r), bitsFromF32(acc));
    }
    dq.finishCompute();
}

// ---------------------------------------------------------------------------
// The Workload wrapper
// ---------------------------------------------------------------------------

class Spmv final : public Workload {
  public:
    Spmv(std::uint32_t rows, std::uint32_t cols, std::uint32_t nnz_per_row,
         std::uint64_t seed)
        : m_(makeSkewedSparse(rows, cols, nnz_per_row, seed, 2.0)),
          x_(makeDenseVector(cols, seed ^ 0xdecaf))
    {
        golden_.resize(rows);
        for (std::uint32_t r = 0; r < rows; ++r) {
            float acc = 0.0f;
            for (std::uint32_t j = m_.row_ptr[r]; j < m_.row_ptr[r + 1]; ++j)
                acc += m_.vals[j] * x_[m_.col_idx[j]];
            golden_[r] = acc;
        }
    }

    std::string name() const override { return "spmv"; }

    RunResult run(const RunConfig &cfg) override;

  private:
    SparseMatrix m_;
    std::vector<float> x_;
    std::vector<float> golden_;
};

RunResult
Spmv::run(const RunConfig &cfg)
{
    SpmvSim s;
    auto rows = [this](unsigned p, unsigned n) { return chunkOf(m_.rows, p, n); };
    WorkloadParts k;
    k.upload = [&](os::Process &proc, unsigned, unsigned) {
        s.m = SimCsr::upload(proc, m_, /*with_vals=*/true);
        s.x = SimArray<float>(proc, x_.size(), "x");
        s.x.upload(x_);
        s.y = SimArray<float>(proc, m_.rows, "y");
        s.rows = m_.rows;
    };
    k.doall = [&](cpu::Core &c, unsigned t, unsigned n, unsigned dist) {
        return doallWorker(c, s, rows(t, n), dist);
    };
    k.lima = [&](cpu::Core &c, core::MapleApi &api) {
        return limaWorker(c, s, api, 0, kPrefetchDistance / 2);
    };
    k.access = [&](cpu::Core &c, PairQueue &q, unsigned p, unsigned n) {
        return accessWorker(c, s, q, rows(p, n));
    };
    k.execute = [&](cpu::Core &c, PairQueue &q, unsigned p, unsigned n) {
        return executeWorker(c, s, q, rows(p, n));
    };
    k.desc_supply = [&](cpu::Core &c, baselines::DescQueue &q, unsigned p, unsigned n) {
        return descSupply(c, s, q, rows(p, n));
    };
    k.desc_compute = [&](cpu::Core &c, baselines::DescQueue &q, unsigned p, unsigned n) {
        return descCompute(c, s, q, rows(p, n));
    };
    k.droplet = [&] {
        return DropletRegion{s.m.col_idx.addr(0), s.m.col_idx.size(), s.x.addr(0)};
    };
    k.check = [&](RunResult &r) { checkBitwise(s.y.download(), golden_, r); };
    return runTechnique(name(), cfg, k);
}

}  // namespace

std::unique_ptr<Workload>
makeSpmv(std::uint32_t rows, std::uint32_t cols, std::uint32_t nnz_per_row,
         std::uint64_t seed)
{
    return std::make_unique<Spmv>(rows, cols, nnz_per_row, seed);
}

}  // namespace maple::app
