/**
 * @file
 * Sparse-Dense Hadamard Product: out[j] = svals[j] * dense[r * C + col[j]]
 * for every nonzero j of sparse row r.
 *
 * The dense matrix is sampled at the sparse matrix's nonzero positions, so
 * the dense accesses are irregular (the IMA) while svals/col_idx/out stream
 * sequentially. Unlike SPMV there is no reduction -- each element produces
 * one store -- which makes the kernel even more memory-bound.
 */
#include "baselines/desc.hpp"
#include "workloads/workload.hpp"

namespace maple::app {

namespace {

struct SdhpSim {
    SimCsr m;
    SimArray<float> dense;  ///< rows x cols, row-major
    SimArray<float> out;    ///< nnz results
    std::uint32_t rows = 0, cols = 0;
};

sim::Addr
denseAddr(const SdhpSim &s, std::uint64_t r, std::uint32_t c)
{
    return s.dense.addr(r * s.cols + c);
}

/** doall; a nonzero @p dist inserts same-row software prefetches. */
sim::Task<void>
doallWorker(cpu::Core &core, SdhpSim &s, Chunk rows, unsigned dist)
{
    auto jb = static_cast<std::uint32_t>(
        co_await core.load(s.m.row_ptr.addr(rows.begin), 4));
    for (std::uint64_t r = rows.begin; r < rows.end; ++r) {
        auto je = static_cast<std::uint32_t>(
            co_await core.load(s.m.row_ptr.addr(r + 1), 4));
        for (std::uint32_t j = jb; j < je; ++j) {
            if (dist && j + dist < je) {  // same-row prefetch: the row base differs
                auto cd = static_cast<std::uint32_t>(
                    co_await core.load(s.m.col_idx.addr(j + dist), 4));
                co_await core.compute(4);
                co_await core.prefetchL1(denseAddr(s, r, cd));
            }
            auto c = static_cast<std::uint32_t>(
                co_await core.load(s.m.col_idx.addr(j), 4));
            float v = f32FromBits(co_await core.load(s.m.vals.addr(j), 4));
            float d = f32FromBits(co_await core.load(denseAddr(s, r, c), 4));
            co_await core.compute(1);
            co_await core.store(s.out.addr(j), bitsFromF32(v * d), 4);
        }
        jb = je;
    }
}

sim::Task<void>
limaWorker(cpu::Core &core, SdhpSim &s, core::MapleApi &api, unsigned q)
{
    // One LIMA per row (the row selects the dense-matrix base), launched one
    // row ahead of consumption so fetches overlap the current row's work.
    const std::uint32_t rows = s.rows;
    auto pb = static_cast<std::uint32_t>(co_await core.load(s.m.row_ptr.addr(0), 4));
    std::uint32_t pe0 = static_cast<std::uint32_t>(
        co_await core.load(s.m.row_ptr.addr(1), 4));
    core::LimaRequest req;
    req.b_base = s.m.col_idx.addr(0);
    req.a_base = denseAddr(s, 0, 0);
    req.start = pb;
    req.end = pe0;
    req.target_queue = q;
    co_await api.lima(core, req);

    PairedConsumer cons{api, q, s.m.col_idx.size(), false, 0};
    auto jb = pb;
    std::uint32_t next_b = pe0;
    for (std::uint32_t r = 0; r < rows; ++r) {
        if (r + 1 < rows) {
            auto ne = static_cast<std::uint32_t>(
                co_await core.load(s.m.row_ptr.addr(r + 2), 4));
            req.a_base = denseAddr(s, r + 1, 0);
            req.start = next_b;
            req.end = ne;
            co_await api.lima(core, req);
            next_b = ne;
        }
        auto je = static_cast<std::uint32_t>(
            co_await core.load(s.m.row_ptr.addr(r + 1), 4));
        for (std::uint32_t j = jb; j < je; ++j) {
            float v = f32FromBits(co_await core.load(s.m.vals.addr(j), 4));
            float d = f32FromBits(co_await cons.next(core));
            co_await core.compute(1);
            co_await core.store(s.out.addr(j), bitsFromF32(v * d), 4);
        }
        jb = je;
    }
}

sim::Task<void>
accessWorker(cpu::Core &core, SdhpSim &s, PairQueue &q, Chunk rows)
{
    auto jb = static_cast<std::uint32_t>(
        co_await core.load(s.m.row_ptr.addr(rows.begin), 4));
    for (std::uint64_t r = rows.begin; r < rows.end; ++r) {
        auto je = static_cast<std::uint32_t>(
            co_await core.load(s.m.row_ptr.addr(r + 1), 4));
        for (std::uint32_t j = jb; j < je; ++j) {
            auto c = static_cast<std::uint32_t>(
                co_await core.load(s.m.col_idx.addr(j), 4));
            co_await q.supply(core, denseAddr(s, r, c));
        }
        jb = je;
    }
}

sim::Task<void>
executeWorker(cpu::Core &core, SdhpSim &s, PairQueue &q, Chunk rows)
{
    auto jb = static_cast<std::uint32_t>(
        co_await core.load(s.m.row_ptr.addr(rows.begin), 4));
    for (std::uint64_t r = rows.begin; r < rows.end; ++r) {
        auto je = static_cast<std::uint32_t>(
            co_await core.load(s.m.row_ptr.addr(r + 1), 4));
        for (std::uint32_t j = jb; j < je; ++j) {
            float v = f32FromBits(co_await core.load(s.m.vals.addr(j), 4));
            float d = f32FromBits(co_await q.take(core));
            co_await core.compute(1);
            co_await core.store(s.out.addr(j), bitsFromF32(v * d), 4);
        }
        jb = je;
    }
}

sim::Task<void>
descSupply(cpu::Core &core, SdhpSim &s, baselines::DescQueue &dq, Chunk rows)
{
    auto jb = static_cast<std::uint32_t>(
        co_await core.load(s.m.row_ptr.addr(rows.begin), 4));
    for (std::uint64_t r = rows.begin; r < rows.end; ++r) {
        auto je = static_cast<std::uint32_t>(
            co_await core.load(s.m.row_ptr.addr(r + 1), 4));
        co_await dq.produceValue(core, (std::uint64_t(je - jb) << 32) | jb);
        for (std::uint32_t j = jb; j < je; ++j) {
            auto c = static_cast<std::uint32_t>(
                co_await core.load(s.m.col_idx.addr(j), 4));
            co_await core.compute(1);
            co_await dq.produceLoad(core, s.m.vals.addr(j), 4);
            co_await dq.produceLoad(core, denseAddr(s, r, c), 4);
        }
        while (co_await dq.drainOneStore(core)) {
        }
        jb = je;
    }
    co_await dq.drainStoresToEnd(core);
}

sim::Task<void>
descCompute(cpu::Core &core, SdhpSim &s, baselines::DescQueue &dq, Chunk rows)
{
    for (std::uint64_t r = rows.begin; r < rows.end; ++r) {
        std::uint64_t hdr = co_await dq.consume(core);
        auto n = static_cast<std::uint32_t>(hdr >> 32);
        auto jb = static_cast<std::uint32_t>(hdr & 0xffffffffu);
        for (std::uint32_t k = 0; k < n; ++k) {
            float v = f32FromBits(co_await dq.consume(core));
            float d = f32FromBits(co_await dq.consume(core));
            co_await core.compute(1);
            co_await dq.produceStore(core, s.out.addr(jb + k), bitsFromF32(v * d));
        }
    }
    dq.finishCompute();
}

class Sdhp final : public Workload {
  public:
    Sdhp(std::uint32_t rows, std::uint32_t cols, std::uint32_t nnz_per_row,
         std::uint64_t seed)
        : m_(makeSkewedSparse(rows, cols, nnz_per_row, seed, 5.0)),
          dense_(makeDenseVector(std::uint64_t(rows) * cols, seed ^ 0xfeed))
    {
        golden_.resize(m_.nnz());
        for (std::uint32_t r = 0; r < rows; ++r)
            for (std::uint32_t j = m_.row_ptr[r]; j < m_.row_ptr[r + 1]; ++j)
                golden_[j] = m_.vals[j] * dense_[std::uint64_t(r) * cols + m_.col_idx[j]];
    }

    std::string name() const override { return "sdhp"; }
    RunResult run(const RunConfig &cfg) override;

  private:
    SparseMatrix m_;
    std::vector<float> dense_;
    std::vector<float> golden_;
};

RunResult
Sdhp::run(const RunConfig &cfg)
{
    SdhpSim s;
    auto rows = [this](unsigned p, unsigned n) { return chunkOf(m_.rows, p, n); };
    WorkloadParts k;
    k.upload = [&](os::Process &proc, unsigned, unsigned) {
        s.m = SimCsr::upload(proc, m_, true);
        s.dense = SimArray<float>(proc, dense_.size(), "dense");
        s.dense.upload(dense_);
        s.out = SimArray<float>(proc, m_.nnz(), "out");
        s.rows = m_.rows;
        s.cols = m_.cols;
    };
    k.doall = [&](cpu::Core &c, unsigned t, unsigned n, unsigned dist) {
        return doallWorker(c, s, rows(t, n), dist);
    };
    k.lima = [&](cpu::Core &c, core::MapleApi &api) { return limaWorker(c, s, api, 0); };
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
    // DROPLET registers one (index, data) physical pair; the Hadamard
    // product's data base moves with the sparse row, which region-based
    // registration cannot express -- the prefetcher covers row 0's slice
    // only (a real limitation of region-bound indirect prefetchers).
    k.droplet = [&] {
        return DropletRegion{s.m.col_idx.addr(0), s.m.col_idx.size(), s.dense.addr(0)};
    };
    k.check = [&](RunResult &r) { checkBitwise(s.out.download(), golden_, r); };
    return runTechnique(name(), cfg, k);
}

}  // namespace

std::unique_ptr<Workload>
makeSdhp(std::uint32_t rows, std::uint32_t cols, std::uint32_t nnz_per_row,
         std::uint64_t seed)
{
    return std::make_unique<Sdhp>(rows, cols, nnz_per_row, seed);
}

}  // namespace maple::app
