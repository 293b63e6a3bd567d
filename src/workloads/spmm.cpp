/**
 * @file
 * Sparse Matrix-Matrix multiplication, layer-wise (Mofrad et al., HPEC'19):
 * Y = A * W with A, W sparse (CSR) and Y a dense accumulator.
 *
 * For each nonzero a = A[r][k], the kernel walks W's row k and accumulates
 * Y[r][c] += a * W[k][c]. The indirect accesses are read-modify-writes on Y
 * (and the indirect W row-pointer lookups), so -- as the paper observes --
 * the kernel *cannot be decoupled*: the decoupling techniques fall back to
 * doall parallelism. Prefetching still applies: LIMA speculatively pushes
 * the Y[r][W.col[t]] lines into the LLC ahead of the RMW burst.
 */
#include "workloads/workload.hpp"

namespace maple::app {

namespace {

struct SpmmSim {
    SimCsr a;
    SimCsr w;
    SimArray<float> y;  ///< dim x dim dense accumulator
    std::uint32_t dim = 0;
};

sim::Addr
yAddr(const SpmmSim &s, std::uint64_t r, std::uint32_t c)
{
    return s.y.addr(r * s.dim + c);
}

/** Inner kernel for one A-row range; optionally software-prefetching. */
sim::Task<void>
doallWorker(cpu::Core &core, SpmmSim &s, Chunk rows, unsigned sw_prefetch_dist)
{
    auto jb = static_cast<std::uint32_t>(
        co_await core.load(s.a.row_ptr.addr(rows.begin), 4));
    for (std::uint64_t r = rows.begin; r < rows.end; ++r) {
        auto je = static_cast<std::uint32_t>(
            co_await core.load(s.a.row_ptr.addr(r + 1), 4));
        for (std::uint32_t j = jb; j < je; ++j) {
            auto k = static_cast<std::uint32_t>(
                co_await core.load(s.a.col_idx.addr(j), 4));
            float av = f32FromBits(co_await core.load(s.a.vals.addr(j), 4));
            // Indirect row-pointer lookups into W.
            auto wb = static_cast<std::uint32_t>(
                co_await core.load(s.w.row_ptr.addr(k), 4));
            auto we = static_cast<std::uint32_t>(
                co_await core.load(s.w.row_ptr.addr(k + 1), 4));
            for (std::uint32_t t = wb; t < we; ++t) {
                if (sw_prefetch_dist && t + sw_prefetch_dist < we) {
                    auto cd = static_cast<std::uint32_t>(co_await core.load(
                        s.w.col_idx.addr(t + sw_prefetch_dist), 4));
                    co_await core.compute(2);
                    co_await core.prefetchL1(yAddr(s, r, cd));
                }
                auto c = static_cast<std::uint32_t>(
                    co_await core.load(s.w.col_idx.addr(t), 4));
                float wv = f32FromBits(co_await core.load(s.w.vals.addr(t), 4));
                // Read-modify-write on the dense accumulator: this is the
                // dependence that defeats decoupling.
                float y = f32FromBits(co_await core.load(yAddr(s, r, c), 4));
                co_await core.compute(1);
                co_await core.store(yAddr(s, r, c), bitsFromF32(y + av * wv), 4);
            }
        }
        jb = je;
    }
}

/** LIMA variant: speculative LLC prefetch of the Y lines of each W row. */
sim::Task<void>
limaWorker(cpu::Core &core, SpmmSim &s, core::MapleApi &api)
{
    const std::uint32_t rows = s.dim;
    auto jb = static_cast<std::uint32_t>(co_await core.load(s.a.row_ptr.addr(0), 4));
    for (std::uint32_t r = 0; r < rows; ++r) {
        auto je = static_cast<std::uint32_t>(
            co_await core.load(s.a.row_ptr.addr(r + 1), 4));
        for (std::uint32_t j = jb; j < je; ++j) {
            auto k = static_cast<std::uint32_t>(
                co_await core.load(s.a.col_idx.addr(j), 4));
            float av = f32FromBits(co_await core.load(s.a.vals.addr(j), 4));
            auto wb = static_cast<std::uint32_t>(
                co_await core.load(s.w.row_ptr.addr(k), 4));
            auto we = static_cast<std::uint32_t>(
                co_await core.load(s.w.row_ptr.addr(k + 1), 4));
            // One LIMA call covers the whole burst of Y[r][W.col[t]] RMWs.
            if (we > wb) {
                core::LimaRequest req;
                req.a_base = yAddr(s, r, 0);
                req.b_base = s.w.col_idx.addr(0);
                req.start = wb;
                req.end = we;
                req.speculative = true;
                co_await api.lima(core, req);
            }
            for (std::uint32_t t = wb; t < we; ++t) {
                auto c = static_cast<std::uint32_t>(
                    co_await core.load(s.w.col_idx.addr(t), 4));
                float wv = f32FromBits(co_await core.load(s.w.vals.addr(t), 4));
                float y = f32FromBits(co_await core.load(yAddr(s, r, c), 4));
                co_await core.compute(1);
                co_await core.store(yAddr(s, r, c), bitsFromF32(y + av * wv), 4);
            }
        }
        jb = je;
    }
}

class Spmm final : public Workload {
  public:
    Spmm(std::uint32_t dim, std::uint32_t nnz_per_row, std::uint64_t seed)
        : a_(makeUniformSparse(dim, dim, nnz_per_row, seed)),
          w_(makeUniformSparse(dim, dim, nnz_per_row, seed ^ 0xbeef))
    {
        golden_.assign(std::uint64_t(dim) * dim, 0.0f);
        for (std::uint32_t r = 0; r < dim; ++r) {
            for (std::uint32_t j = a_.row_ptr[r]; j < a_.row_ptr[r + 1]; ++j) {
                std::uint32_t k = a_.col_idx[j];
                float av = a_.vals[j];
                for (std::uint32_t t = w_.row_ptr[k]; t < w_.row_ptr[k + 1]; ++t)
                    golden_[std::uint64_t(r) * dim + w_.col_idx[t]] += av * w_.vals[t];
            }
        }
    }

    std::string name() const override { return "spmm"; }
    RunResult run(const RunConfig &cfg) override;

  private:
    SparseMatrix a_, w_;
    std::vector<float> golden_;
};

RunResult
Spmm::run(const RunConfig &cfg)
{
    // RMW accumulation defeats decoupling: with no pair workers the
    // decoupled techniques fall back to doall (same thread count), and LIMA
    // prefetches speculatively into the LLC without a queue.
    SpmmSim s;
    WorkloadParts k;
    k.upload = [&](os::Process &proc, unsigned, unsigned) {
        s.a = SimCsr::upload(proc, a_, true);
        s.w = SimCsr::upload(proc, w_, true);
        s.y = SimArray<float>(proc, golden_.size(), "y");
        s.dim = a_.rows;
    };
    // Half distance: a prefetch stays inside one W row, and a row holds
    // about nnz_per_row elements.
    k.doall = [&](cpu::Core &c, unsigned t, unsigned n, unsigned dist) {
        return doallWorker(c, s, chunkOf(s.dim, t, n), dist / 2);
    };
    k.lima = [&](cpu::Core &c, core::MapleApi &api) { return limaWorker(c, s, api); };
    k.lima_opens_queue = false;
    // Index chain A.col -> W.row_ptr: prefetch the W row bounds.
    k.droplet = [&] {
        return DropletRegion{s.a.col_idx.addr(0), s.a.col_idx.size(),
                             s.w.row_ptr.addr(0)};
    };
    k.check = [&](RunResult &r) { checkBitwise(s.y.download(), golden_, r); };
    return runTechnique(name(), cfg, k);
}

}  // namespace

std::unique_ptr<Workload>
makeSpmm(std::uint32_t dim, std::uint32_t nnz_per_row, std::uint64_t seed)
{
    return std::make_unique<Spmm>(dim, nnz_per_row, seed);
}

}  // namespace maple::app
