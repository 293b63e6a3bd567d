/**
 * @file
 * Breadth-First Search over an R-MAT graph (CSR adjacency), level-
 * synchronous with shared frontiers.
 *
 * The irregular access is dist[col_idx[j]]: neighbor IDs stream sequentially
 * out of the adjacency list but the distance array is sampled at power-law-
 * scattered offsets. Discovered vertices are appended to the next frontier
 * with an atomic fetch-and-add. A vertex can be appended more than once per
 * level (benign: its distance is already final) -- the same relaxation the
 * paper's OpenMP implementation and MAPLE's non-coherent scratchpad rely on.
 */
#include <optional>

#include "baselines/desc.hpp"
#include "sim/sync.hpp"
#include "workloads/workload.hpp"

namespace maple::app {

namespace {

constexpr std::uint32_t kInf = 0xffffffffu;

struct BfsSim {
    SimCsr g;                       ///< adjacency (no vals)
    SimArray<std::uint32_t> dist;
    SimArray<std::uint32_t> frontier_a, frontier_b;
    sim::Addr next_tail = 0;        ///< shared append counter (atomic)
    std::uint32_t vertices = 0;
    std::uint32_t root = 0;
};

/** Host-shared level state, updated by thread 0 between barriers. */
struct LevelState {
    std::uint64_t count = 0;   ///< size of the current frontier
    bool cur_is_a = true;
    std::uint32_t level = 0;
};

sim::Addr
curFrontier(const BfsSim &s, const LevelState &ls, std::uint64_t i)
{
    return ls.cur_is_a ? s.frontier_a.addr(i) : s.frontier_b.addr(i);
}

sim::Addr
nextFrontier(const BfsSim &s, const LevelState &ls, std::uint64_t i)
{
    return ls.cur_is_a ? s.frontier_b.addr(i) : s.frontier_a.addr(i);
}

/** [begin, end) of frontier vertex @p i's adjacency: three loads. */
struct EdgeRange {
    std::uint32_t begin, end;
};

sim::Task<EdgeRange>
edgeRange(cpu::Core &core, const BfsSim &s, const LevelState &ls,
          std::uint64_t i)
{
    auto u = static_cast<std::uint32_t>(
        co_await core.load(curFrontier(s, ls, i), 4));
    auto jb = static_cast<std::uint32_t>(
        co_await core.load(s.g.row_ptr.addr(u), 4));
    auto je = static_cast<std::uint32_t>(
        co_await core.load(s.g.row_ptr.addr(u + 1), 4));
    co_return EdgeRange{jb, je};
}

/** Append @p v to the next frontier at an atomically claimed index. */
sim::Task<void>
appendNext(cpu::Core &core, const BfsSim &s, const LevelState &ls,
           std::uint32_t v)
{
    std::uint64_t idx = co_await core.amoAdd(s.next_tail, 1, 8);
    co_await core.store(nextFrontier(s, ls, idx), v, 4);
}

/** Discovery of @p v: its distance is the next level, and it is appended. */
sim::Task<void>
discover(cpu::Core &core, const BfsSim &s, const LevelState &ls,
         std::uint32_t v)
{
    co_await core.store(s.dist.addr(v), ls.level + 1, 4);
    co_await appendNext(core, s, ls, v);
}

/** Thread-0 bookkeeping between levels (runs between the two barriers). */
sim::Task<void>
advanceLevel(cpu::Core &core, BfsSim &s, LevelState &ls)
{
    std::uint64_t produced = co_await core.load(s.next_tail, 8);
    co_await core.store(s.next_tail, 0, 8);
    co_await core.storeFence();
    ls.count = produced;
    ls.cur_is_a = !ls.cur_is_a;
    ++ls.level;
}

/**
 * Process edges of frontier[chunk]; @p fetch_dist returns the awaitable that
 * supplies dist[v] (doall: a plain load; execute: the pair queue's take), so
 * all variants share the update logic.
 */
template <typename FetchDist>
sim::Task<void>
expandChunk(cpu::Core &core, BfsSim &s, LevelState &ls, Chunk chunk,
            FetchDist &fetch_dist, unsigned sw_prefetch_dist)
{
    for (std::uint64_t i = chunk.begin; i < chunk.end; ++i) {
        auto [jb, je] = co_await edgeRange(core, s, ls, i);
        for (std::uint32_t j = jb; j < je; ++j) {
            if (sw_prefetch_dist && j + sw_prefetch_dist < je) {
                auto vd = static_cast<std::uint32_t>(co_await core.load(
                    s.g.col_idx.addr(j + sw_prefetch_dist), 4));
                co_await core.compute(4);
                co_await core.prefetchL1(s.dist.addr(vd));
            }
            auto v = static_cast<std::uint32_t>(
                co_await core.load(s.g.col_idx.addr(j), 4));
            auto dv = static_cast<std::uint32_t>(co_await fetch_dist(core, v));
            co_await core.compute(1);
            if (dv == kInf)
                co_await discover(core, s, ls, v);
        }
    }
}

/**
 * One worker thread of the level-synchronous loop: doall's worker @p t of
 * @p threads, or the execute thread of pair @p t. Worker 0 does the
 * bookkeeping between levels.
 *
 * @p fetch is taken by value: the hook that spawns this coroutine returns
 * before its first resume, so a reference to the hook's lambda would
 * dangle.
 */
template <typename Fetch>
sim::Task<void>
bfsWorker(cpu::Core &core, BfsSim &s, LevelState &ls, sim::Barrier &bar,
          unsigned t, unsigned threads, Fetch fetch, unsigned sw_prefetch_dist = 0)
{
    while (ls.count > 0) {
        Chunk chunk = chunkOf(ls.count, t, threads);
        co_await expandChunk(core, s, ls, chunk, fetch, sw_prefetch_dist);
        co_await core.storeFence();  // all appends visible before the swap
        co_await bar.wait();
        if (t == 0)
            co_await advanceLevel(core, s, ls);
        co_await bar.wait();
    }
}

// ---------------------------------------------------------------------------
// Decoupling over a PairQueue: the access thread re-walks the same (u, j)
// sequence and supplies dist[v]; regular-pattern data (frontier, row_ptr,
// col_idx) is loaded from the caches by both threads. The execute thread is
// bfsWorker taking dist[v] from the queue.
// ---------------------------------------------------------------------------

sim::Task<void>
accessWorker(cpu::Core &core, BfsSim &s, LevelState &ls, sim::Barrier &bar,
             PairQueue &q, unsigned pair, unsigned pairs)
{
    while (ls.count > 0) {
        Chunk chunk = chunkOf(ls.count, pair, pairs);
        for (std::uint64_t i = chunk.begin; i < chunk.end; ++i) {
            auto [jb, je] = co_await edgeRange(core, s, ls, i);
            for (std::uint32_t j = jb; j < je; ++j) {
                auto v = static_cast<std::uint32_t>(
                    co_await core.load(s.g.col_idx.addr(j), 4));
                co_await q.supply(core, s.dist.addr(v));
            }
        }
        co_await core.storeFence();
        co_await bar.wait();  // execute thread 0 does the bookkeeping
        co_await bar.wait();
    }
}

// ---------------------------------------------------------------------------
// DeSC: Compute has no memory visibility. Supply streams (v, dist[v]) pairs
// through the architectural queue; Compute sends discovered stores back, and
// Supply performs both the store and the frontier append. Supply cannot
// start the next level until Compute drains -- the loss of runahead the
// paper describes for BFS.
// ---------------------------------------------------------------------------

sim::Task<bool> drainDescStores(cpu::Core &core, BfsSim &s, LevelState &ls,
                                baselines::DescQueue &dq, bool all);

sim::Task<void>
descSupply(sim::EventQueue &eq, cpu::Core &core, BfsSim &s, LevelState &ls,
           sim::Barrier &bar, baselines::DescQueue &dq, unsigned pair,
           unsigned pairs, const std::uint32_t *exec_level,
           const std::uint64_t *edges_done, bool bookkeeper)
{
    while (ls.count > 0) {
        Chunk chunk = chunkOf(ls.count, pair, pairs);
        std::uint64_t produced_edges = 0;
        for (std::uint64_t i = chunk.begin; i < chunk.end; ++i) {
            auto [jb, je] = co_await edgeRange(core, s, ls, i);
            co_await dq.produceValue(core, je - jb);
            for (std::uint32_t j = jb; j < je; ++j) {
                auto v = static_cast<std::uint32_t>(
                    co_await core.load(s.g.col_idx.addr(j), 4));
                co_await dq.produceValue(core, v);
                // Loss of decoupling: every prior edge *may* have stored to
                // dist[] (Compute decides), so sequential semantics force
                // this terminal load to wait until Compute has retired all
                // program-order-prior edges and their stores are performed.
                // This is why DeSC loses its runahead on BFS (Figure 12) --
                // MAPLE's software contract (stale reads are benign, updates
                // commit at the epoch barrier) removes the constraint.
                while (*edges_done < produced_edges) {
                    if (!co_await drainDescStores(core, s, ls, dq, false))
                        co_await sim::delay(eq, 10);
                }
                co_await drainDescStores(core, s, ls, dq, /*all=*/true);
                co_await dq.produceLoad(core, s.dist.addr(v), 4);
                ++produced_edges;
            }
        }
        co_await dq.produceValue(core, kInf);  // level-end sentinel
        // Serve Compute until it finishes the level (loss of runahead).
        while (*exec_level <= ls.level)
            if (!co_await drainDescStores(core, s, ls, dq, false))
                co_await sim::delay(eq, 20);
        co_await drainDescStores(core, s, ls, dq, /*all=*/true);
        co_await core.storeFence();
        co_await bar.wait();
        if (bookkeeper)
            co_await advanceLevel(core, s, ls);
        co_await bar.wait();
    }
}

/** Perform pending Compute stores; dist stores also append the vertex. */
sim::Task<bool>
drainDescStores(cpu::Core &core, BfsSim &s, LevelState &ls,
                baselines::DescQueue &dq, bool all)
{
    bool any = false;
    do {
        auto st = co_await dq.takeStore(core);
        if (!st)
            co_return any;
        any = true;
        co_await core.store(st->first, st->second, 4);
        sim::Addr dist0 = s.dist.addr(0);
        if (st->first >= dist0 && st->first < s.dist.addr(s.vertices)) {
            auto v = static_cast<std::uint32_t>((st->first - dist0) / 4);
            co_await appendNext(core, s, ls, v);
        }
    } while (all);
    co_return any;
}

sim::Task<void>
descCompute(cpu::Core &core, BfsSim &s, LevelState &ls, sim::Barrier &bar,
            baselines::DescQueue &dq, std::uint32_t *exec_level,
            std::uint64_t *edges_done)
{
    while (ls.count > 0) {
        *edges_done = 0;
        for (;;) {
            std::uint64_t n = co_await dq.consume(core);
            if (n == kInf)
                break;  // level end
            for (std::uint64_t j = 0; j < n; ++j) {
                auto v = static_cast<std::uint32_t>(co_await dq.consume(core));
                auto dv = static_cast<std::uint32_t>(co_await dq.consume(core));
                co_await core.compute(1);
                // Discovery: ship the dist store back; Supply performs it
                // and turns it into a frontier append.
                if (dv == kInf)
                    co_await dq.produceStore(core, s.dist.addr(v), ls.level + 1);
                ++*edges_done;  // retires the edge (ordering token)
            }
        }
        ++*exec_level;
        co_await bar.wait();
        co_await bar.wait();
    }
}

// ---------------------------------------------------------------------------
// LIMA prefetch: one LIMA per frontier vertex, issued dist_v vertices ahead.
// ---------------------------------------------------------------------------

sim::Task<std::uint64_t> issueLima(cpu::Core &core, BfsSim &s, LevelState &ls,
                                   core::MapleApi &api, unsigned q,
                                   std::uint64_t i);

sim::Task<void>
limaWorker(cpu::Core &core, BfsSim &s, LevelState &ls, sim::Barrier &bar,
           core::MapleApi &api, unsigned q, unsigned dist_v)
{
    while (ls.count > 0) {
        Chunk chunk{0, ls.count};
        // Prologue: LIMA for the first dist_v vertices.
        std::uint64_t issued = std::min<std::uint64_t>(dist_v, ls.count);
        std::uint64_t queued_elems = 0;
        for (std::uint64_t i = 0; i < issued; ++i)
            queued_elems += co_await issueLima(core, s, ls, api, q, i);
        std::uint64_t consumed = 0;

        for (std::uint64_t i = chunk.begin; i < chunk.end; ++i) {
            if (issued < ls.count) {
                queued_elems += co_await issueLima(core, s, ls, api, q, issued);
                ++issued;
            }
            auto [jb, je] = co_await edgeRange(core, s, ls, i);
            for (std::uint32_t j = jb; j < je; ++j) {
                auto v = static_cast<std::uint32_t>(
                    co_await core.load(s.g.col_idx.addr(j), 4));
                auto dv = static_cast<std::uint32_t>(co_await api.consume(core, q));
                ++consumed;
                co_await core.compute(1);
                if (dv == kInf)
                    co_await discover(core, s, ls, v);
            }
        }
        MAPLE_ASSERT(consumed == queued_elems, "LIMA stream drift");
        co_await core.storeFence();
        co_await bar.wait();
        co_await advanceLevel(core, s, ls);
        co_await bar.wait();
    }
}

/** Issue one LIMA covering frontier vertex @p i's adjacency; returns #edges. */
sim::Task<std::uint64_t>
issueLima(cpu::Core &core, BfsSim &s, LevelState &ls, core::MapleApi &api,
          unsigned q, std::uint64_t i)
{
    auto [jb, je] = co_await edgeRange(core, s, ls, i);
    if (je > jb) {
        core::LimaRequest req;
        req.a_base = s.dist.addr(0);
        req.b_base = s.g.col_idx.addr(0);
        req.start = jb;
        req.end = je;
        req.target_queue = q;
        co_await api.lima(core, req);
    }
    co_return je - jb;
}

// ---------------------------------------------------------------------------
// Workload wrapper
// ---------------------------------------------------------------------------

class Bfs final : public Workload {
  public:
    Bfs(unsigned scale, unsigned edge_factor, std::uint64_t seed)
        : g_(makeRmat(scale, edge_factor, seed))
    {
        // Pick the highest-degree vertex as root (guaranteed non-trivial).
        root_ = 0;
        std::uint32_t best = 0;
        for (std::uint32_t v = 0; v < g_.rows; ++v) {
            std::uint32_t deg = g_.row_ptr[v + 1] - g_.row_ptr[v];
            if (deg > best) {
                best = deg;
                root_ = v;
            }
        }
        // Host golden BFS.
        golden_.assign(g_.rows, kInf);
        golden_[root_] = 0;
        std::vector<std::uint32_t> cur{root_}, next;
        std::uint32_t level = 0;
        while (!cur.empty()) {
            next.clear();
            for (std::uint32_t u : cur) {
                for (std::uint32_t j = g_.row_ptr[u]; j < g_.row_ptr[u + 1]; ++j) {
                    std::uint32_t v = g_.col_idx[j];
                    if (golden_[v] == kInf) {
                        golden_[v] = level + 1;
                        next.push_back(v);
                    }
                }
            }
            cur.swap(next);
            ++level;
        }
    }

    std::string name() const override { return "bfs"; }
    RunResult run(const RunConfig &cfg) override;

  private:
    SparseMatrix g_;
    std::uint32_t root_ = 0;
    std::vector<std::uint32_t> golden_;
};

RunResult
Bfs::run(const RunConfig &cfg)
{
    BfsSim s;
    LevelState ls{.count = 1};  // the root
    std::optional<sim::Barrier> bar;
    std::unique_ptr<std::uint32_t[]> exec_levels;  // per DeSC pair
    std::unique_ptr<std::uint64_t[]> edges_done;
    WorkloadParts k;
    k.upload = [&](os::Process &proc, unsigned threads, unsigned pairs) {
        // The frontier can exceed |V| because of benign duplicate appends.
        const size_t frontier_cap = size_t(g_.rows) + g_.nnz();
        s.g = SimCsr::upload(proc, g_, /*with_vals=*/false);
        s.dist = SimArray<std::uint32_t>(proc, g_.rows, "dist");
        s.frontier_a = SimArray<std::uint32_t>(proc, frontier_cap, "frontier_a");
        s.frontier_b = SimArray<std::uint32_t>(proc, frontier_cap, "frontier_b");
        s.next_tail = proc.alloc(64, "next_tail");
        s.vertices = g_.rows;
        s.root = root_;

        std::vector<std::uint32_t> dist_init(g_.rows, kInf);
        dist_init[root_] = 0;
        s.dist.upload(dist_init);
        s.frontier_a.write(0, root_);

        // Every spawned worker meets at the level barrier.
        bar.emplace(pairs ? 2 * pairs : threads);
        exec_levels = std::make_unique<std::uint32_t[]>(pairs);
        edges_done = std::make_unique<std::uint64_t[]>(pairs);
    };
    k.doall = [&](cpu::Core &c, unsigned t, unsigned n, unsigned dist) {
        auto load = [&s](cpu::Core &cc, std::uint32_t v) {
            return cc.load(s.dist.addr(v), 4);
        };
        return bfsWorker(c, s, ls, *bar, t, n, load, dist);
    };
    k.lima = [&](cpu::Core &c, core::MapleApi &api) {
        return limaWorker(c, s, ls, *bar, api, 0, 4);
    };
    k.access = [&](cpu::Core &c, PairQueue &q, unsigned p, unsigned n) {
        return accessWorker(c, s, ls, *bar, q, p, n);
    };
    k.execute = [&](cpu::Core &c, PairQueue &q, unsigned p, unsigned n) {
        auto take = [&q](cpu::Core &cc, std::uint32_t) { return q.take(cc); };
        return bfsWorker(c, s, ls, *bar, p, n, take);
    };
    k.desc_supply = [&](cpu::Core &c, baselines::DescQueue &q, unsigned p, unsigned n) {
        return descSupply(q.eq(), c, s, ls, *bar, q, p, n, &exec_levels[p],
                          &edges_done[p], p == 0);
    };
    k.desc_compute = [&](cpu::Core &c, baselines::DescQueue &q, unsigned p, unsigned) {
        return descCompute(c, s, ls, *bar, q, &exec_levels[p], &edges_done[p]);
    };
    k.droplet = [&] {
        return DropletRegion{s.g.col_idx.addr(0), s.g.col_idx.size(), s.dist.addr(0)};
    };
    k.check = [&](RunResult &r) { checkBitwise(s.dist.download(), golden_, r); };
    return runTechnique(name(), cfg, k);
}

}  // namespace

std::unique_ptr<Workload>
makeBfs(unsigned scale, unsigned edge_factor, std::uint64_t seed)
{
    return std::make_unique<Bfs>(scale, edge_factor, seed);
}

}  // namespace maple::app
