/**
 * @file
 * Common framework for the four paper workloads (SPMV, SDHP, SPMM, BFS).
 *
 * A Workload owns a host-side dataset plus a host-computed golden result.
 * run() builds a fresh SoC, uploads the dataset into a simulated process,
 * executes the requested technique as coroutine "threads" on the simulated
 * cores, and returns cycle counts, instruction/load counters and a checksum
 * validated against the golden result -- so every performance number the
 * benches print comes from a functionally-correct execution. The four paper
 * workloads hand their own parts (WorkloadParts) to runTechnique(), which
 * owns the protocol they share (DESIGN.md section 17).
 */
#pragma once

#include <bit>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/maple_runtime.hpp"
#include "soc/soc.hpp"
#include "workloads/data.hpp"

namespace maple::baselines {
class DescQueue;
}  // namespace maple::baselines

namespace maple::app {

/** Latency-tolerance technique under evaluation. */
enum class Technique {
    Doall,          ///< plain thread parallelism (baseline of Figs 8/12/13)
    SwDecouple,     ///< shared-memory access/execute decoupling
    MapleDecouple,  ///< access/execute decoupling through MAPLE
    NoPrefetch,     ///< single-thread baseline of Fig 9
    SwPrefetch,     ///< software prefetch instructions into the L1
    LimaPrefetch,   ///< MAPLE LIMA non-speculative prefetch into queues
    Desc,           ///< DeSC-style decoupled supply-compute (Fig 12)
    Droplet,        ///< DROPLET-style indirect HW prefetcher (Fig 12)
};

const char *techniqueName(Technique t);

/** Elements a sw-prefetch runs ahead of its demand access. SPMV's LIMA
 *  (in rows) and SPMM's sw-prefetch use half of it. */
inline constexpr unsigned kPrefetchDistance = 8;

struct RunConfig {
    Technique tech = Technique::Doall;
    unsigned threads = 2;          ///< total simulated software threads
    unsigned queue_entries = 32;   ///< MAPLE queue depth (decoupling)
    soc::SocConfig soc = soc::SocConfig::fpga();
    sim::Cycle max_cycles = 2'000'000'000ull;
};

struct RunResult {
    std::string workload;
    std::string technique;
    sim::Cycle cycles = 0;
    std::uint64_t checksum = 0;
    bool valid = false;            ///< checksum matched the golden result
    bool fell_back_to_doall = false;
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    double mean_load_latency = 0.0;
    std::uint64_t sim_events = 0;  ///< kernel events executed (host-perf)
};

class Workload {
  public:
    virtual ~Workload() = default;
    virtual std::string name() const = 0;
    virtual RunResult run(const RunConfig &cfg) = 0;
};

/// @name Workload factories (paper Section 4.1). Small/default sizes are
/// tuned so a full figure sweep runs in seconds while arrays still exceed
/// the 64KB LLC (the regime where latency tolerance matters).
/// @{
std::unique_ptr<Workload> makeSpmv(std::uint32_t rows = 4096,
                                   std::uint32_t cols = 65536,
                                   std::uint32_t nnz_per_row = 8,
                                   std::uint64_t seed = 1);
std::unique_ptr<Workload> makeSdhp(std::uint32_t rows = 2048,
                                   std::uint32_t cols = 1024,
                                   std::uint32_t nnz_per_row = 16,
                                   std::uint64_t seed = 2);
std::unique_ptr<Workload> makeSpmm(std::uint32_t dim = 256,
                                   std::uint32_t nnz_per_row = 8,
                                   std::uint64_t seed = 3);
std::unique_ptr<Workload> makeBfs(unsigned scale = 15, unsigned edge_factor = 8,
                                  std::uint64_t seed = 4);
/// @}

/** All four, in the order the paper's figures list them. */
std::vector<std::unique_ptr<Workload>> allWorkloads();

/// @name Helpers shared by the workload implementations
/// @{

inline float f32FromBits(std::uint64_t v) { return std::bit_cast<float>(static_cast<std::uint32_t>(v)); }
inline std::uint32_t bitsFromF32(float f) { return std::bit_cast<std::uint32_t>(f); }

/** Contiguous [begin, end) chunk of @p total for worker @p t of @p n. */
struct Chunk {
    std::uint64_t begin, end;
};
Chunk chunkOf(std::uint64_t total, unsigned t, unsigned n);

/** Sum per-core stats into @p r after a run. */
void collectCoreStats(soc::Soc &soc, RunResult &r);

/** Sets @p r .checksum to the sum of @p got's 32-bit patterns and @p r
 *  .valid to whether they all equal @p golden's. */
template <class T>
void
checkBitwise(const std::vector<T> &got, const std::vector<T> &golden, RunResult &r)
{
    r.valid = true;
    for (size_t i = 0; i < golden.size(); ++i) {
        const auto bits = std::bit_cast<std::uint32_t>(got[i]);
        r.checksum += bits;
        if (bits != std::bit_cast<std::uint32_t>(golden[i]))
            r.valid = false;
    }
}

/** DROPLET's (index, data) region: @p count 4-byte indices into @p data. */
struct DropletRegion {
    sim::Addr index;
    std::uint64_t count;
    sim::Addr data;
};

/**
 * The queue of one decoupled pair (maple-decouple or sw-decouple) as its
 * two threads use it. runTechnique() makes one per pair; each queue charges
 * its own costs (DESIGN.md section 17).
 */
class PairQueue {
  public:
    PairQueue() = default;
    /** Pinned: the pair's suspended workers hold its address. */
    PairQueue(const PairQueue &) = delete;
    PairQueue &operator=(const PairQueue &) = delete;
    virtual ~PairQueue() = default;
    /** Access thread: deliver the 4-byte value at @p vaddr. */
    virtual sim::Task<void> supply(cpu::Core &core, sim::Addr vaddr) = 0;
    /** Execute thread: the next delivered value, in supply order. */
    virtual sim::Task<std::uint64_t> take(cpu::Core &core) = 0;
};

/**
 * A workload's own parts of a technique run; runTechnique() does the rest.
 * Each hook runs once per run or once per spawned worker, never per event.
 */
struct WorkloadParts {
    /// Worker of access/execute pair @p p of @p n over queue @p q.
    template <class Q>
    using PairWorker =
        std::function<sim::Task<void>(cpu::Core &, Q &q, unsigned p, unsigned n)>;

    /** Allocate and upload the dataset. The run spawns @p threads workers,
     *  or 2 * @p pairs when the technique decouples (else @p pairs is 0). */
    std::function<void(os::Process &, unsigned threads, unsigned pairs)> upload;
    /** Worker @p t of @p n: doall, no-prefetch and droplet with @p dist 0;
     *  sw-prefetch prefetches @p dist elements ahead (kPrefetchDistance). */
    std::function<sim::Task<void>(cpu::Core &, unsigned t, unsigned n,
                                  unsigned dist)>
        doall;
    std::function<sim::Task<void>(cpu::Core &, core::MapleApi &)> lima;
    /** False when LIMA only prefetches into the LLC: no queue is opened. */
    bool lima_opens_queue = true;
    /** Empty when the kernel cannot be decoupled: the decoupled techniques
     *  then run doall and set RunResult::fell_back_to_doall. */
    PairWorker<PairQueue> access, execute;
    PairWorker<baselines::DescQueue> desc_supply, desc_compute;
    std::function<DropletRegion()> droplet;
    /** Compare the device result with the golden one (checkBitwise). */
    std::function<void(RunResult &)> check;
};

/**
 * Run @p cfg .tech over the workload @p name: size and build one SoC, upload,
 * set the technique up in a separate run, spawn its workers, time them, then
 * check and collect stats (DESIGN.md section 17).
 */
RunResult runTechnique(const std::string &name, const RunConfig &cfg,
                       const WorkloadParts &parts);

/**
 * Consumes a stream of 4-byte queue entries using ConsumePair (one 8-byte
 * load pops two entries -- the Figure 10 load-count reduction), falling back
 * to single consumes for a trailing odd element.
 */
struct PairedConsumer {
    core::MapleApi &api;
    unsigned q;
    std::uint64_t remaining;  ///< total elements left in the whole stream
    bool have_left = false;
    std::uint32_t leftover = 0;

    sim::Task<std::uint32_t>
    next(cpu::Core &core)
    {
        MAPLE_ASSERT(remaining > 0, "consumed past the end of the stream");
        if (have_left) {
            have_left = false;
            --remaining;
            co_return leftover;
        }
        if (remaining >= 2) {
            std::uint64_t pair = co_await api.consumePair(core, q);
            leftover = static_cast<std::uint32_t>(pair >> 32);
            have_left = true;
            --remaining;
            co_return static_cast<std::uint32_t>(pair & 0xffffffffu);
        }
        --remaining;
        co_return static_cast<std::uint32_t>(co_await api.consume(core, q));
    }
};

/// @}

}  // namespace maple::app
