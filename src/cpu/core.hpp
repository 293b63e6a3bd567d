/**
 * @file
 * In-order, single-issue core model (Ariane-like; Table 2/3: instruction
 * window 1, blocking loads).
 *
 * Simulated software runs as coroutines that call the methods below; every
 * method charges issue/memory/translation latency against the shared
 * EventQueue. Loads block the "pipeline" (the coroutine) until data returns,
 * which is precisely why software-only decoupling loses runahead on this
 * core and MAPLE does not.
 */
#pragma once

#include <cstdint>
#include <string>

#include "mem/cache.hpp"
#include "mem/mmu.hpp"
#include "mem/physical_memory.hpp"
#include "mem/port.hpp"
#include "noc/mesh.hpp"
#include "sim/coro.hpp"
#include "sim/stats.hpp"
#include "soc/address_map.hpp"
#include "trace/trace.hpp"

namespace maple::cpu {

struct CoreParams {
    std::string name = "core";
    sim::TileId tile = 0;
    sim::ThreadId thread = 0;
    sim::Cycle issue_cycles = 1;   ///< single-issue: one instruction per cycle
    size_t tlb_entries = 16;
    sim::Cycle l1_bypass = 2;      ///< MMIO pass-through of the L1 (each way)
    sim::Cycle l15_latency = 6;    ///< OpenPiton L1.5 stage (each way)
    unsigned store_buffer = 4;     ///< outstanding retired stores (Ariane-like)
    /** Extra one-way MMIO latency (Figure 15's core-to-MAPLE sweep). */
    sim::Cycle mmio_extra_latency = 0;
    /**
     * Route loadShared/storeShared through the (coherent) L1 instead of the
     * uncached LLC round trip. Only set when the SoC runs an actual
     * coherence protocol (--coherence=msi): shared lines are then cached
     * locally and kept honest by directory invalidations.
     */
    bool coherent_shared = false;
};

/** Everything a core is wired to; assembled by soc::Soc. */
struct CoreWiring {
    mem::PhysicalMemory *pm = nullptr;
    mem::Port *l1 = nullptr;           ///< demand path (top of local cache)
    mem::Cache *l1_cache = nullptr;    ///< same cache, for prefetch inserts
    mem::Port *walk_port = nullptr;    ///< page-table walker port
    mem::Port *atomic_port = nullptr;  ///< RMW ops (serviced at the LLC)
    const soc::AddressMap *amap = nullptr;
    noc::Mesh *mesh = nullptr;
};

class Core {
  public:
    Core(sim::EventQueue &eq, CoreParams params, CoreWiring wiring);

    /// @name Program-visible operations (awaited by workload coroutines)
    /// @{

    /** Blocking load of @p size bytes (1..8), zero-extended. */
    sim::Task<std::uint64_t> load(sim::Addr vaddr, unsigned size = 8);

    /**
     * Store of @p size bytes. The instruction retires into the store buffer,
     * so the coroutine resumes as soon as a buffer slot is free; the store
     * itself (cache write or MMIO request + ack) drains in the background.
     * A full buffer stalls the pipeline -- this is how MAPLE queue-full
     * backpressure reaches the Access thread.
     */
    sim::Task<void> store(sim::Addr vaddr, std::uint64_t value, unsigned size = 8);

    /** Wait until the store buffer has fully drained (fence semantics). */
    sim::Task<void> storeFence();

    /** Execute @p insts ALU instructions (charges issue cycles). */
    sim::Task<void> compute(std::uint64_t insts = 1);

    /** Software prefetch instruction: translate and fill L1, non-blocking. */
    sim::Task<void> prefetchL1(sim::Addr vaddr);

    /** Atomic fetch-and-add serviced at the LLC (amoadd.d-style). */
    sim::Task<std::uint64_t> amoAdd(sim::Addr vaddr, std::uint64_t delta,
                                    unsigned size = 8);

    /**
     * Load/store of actively-shared data (e.g. software queue head/tail and
     * payload). Without a coherence protocol (the default), lines that would
     * ping-pong between cores are charged an LLC round trip instead of being
     * cached locally, which is the dominant cost of an invalidation-based
     * protocol under producer/consumer sharing. With coherent_shared set
     * (--coherence=msi) they go through the L1 like any other access and the
     * directory protocol provides the invalidations for real.
     */
    sim::Task<std::uint64_t> loadShared(sim::Addr vaddr, unsigned size = 8);
    sim::Task<void> storeShared(sim::Addr vaddr, std::uint64_t value, unsigned size = 8);

    /// @}

    mem::Mmu &mmu() { return mmu_; }
    sim::StatGroup &stats() { return stats_; }
    const CoreParams &params() const { return params_; }
    sim::ThreadId thread() const { return params_.thread; }
    sim::TileId tile() const { return params_.tile; }

    std::uint64_t instructions() const { return stats_.counterValue("instructions"); }
    std::uint64_t loads() const { return stats_.counterValue("loads"); }
    std::uint64_t stores() const { return stats_.counterValue("stores"); }
    double meanLoadLatency() const { return load_latency_.mean(); }

    /**
     * Static round-trip breakdown (cycles) of a core-to-device MMIO access,
     * excluding the device's own service time (Figure 14).
     */
    struct RoundTrip {
        sim::Cycle l1_out, l15_out, noc_out, noc_back, l15_back, l1_back;
        sim::Cycle total() const { return l1_out + l15_out + noc_out + noc_back + l15_back + l1_back; }
    };
    RoundTrip mmioRoundTrip(sim::TileId device_tile) const;

    /**
     * Snapshot support. Only valid at a quiesced point: the store buffer has
     * drained (no background stores in flight), so the restorable state is
     * the MMU/TLB plus the counters.
     */
    void
    saveState(ckpt::Sink &out) const
    {
        MAPLE_ASSERT(store_buffer_used_ == 0,
                     "snapshot with undrained store buffer");
        mmu_.saveState(out);
        stats_.saveState(out);
        load_latency_.saveState(out);
        // Cached trace-track handle: the tracer's track table round-trips,
        // so the id must too or a restored core would mint a duplicate.
        out.u32(tr_track_);
    }

    void
    loadState(ckpt::Source &in)
    {
        MAPLE_ASSERT(store_buffer_used_ == 0,
                     "restore with undrained store buffer");
        mmu_.loadState(in);
        stats_.loadState(in);
        load_latency_.loadState(in);
        tr_track_ = in.u32();
    }

  private:
    sim::Task<std::uint64_t> mmioLoad(const soc::AddressMap::Window &w,
                                      sim::Addr paddr, unsigned size);
    sim::Task<void> mmioStore(const soc::AddressMap::Window &w, sim::Addr paddr,
                              std::uint64_t value, unsigned size);
    sim::Task<void> drainStore(sim::Addr paddr, std::uint64_t value, unsigned size);
    sim::Task<void> issue(std::uint64_t insts = 1);

    /**
     * Active tracer or nullptr; lazily creates the core's fixed track. The
     * core is in-order with blocking loads, so one program-visible op is in
     * flight at a time and spans on the track nest by construction
     * (background store-buffer drains are deliberately not traced).
     */
    trace::TraceManager *tracer();

    sim::EventQueue &eq_;
    CoreParams params_;
    CoreWiring w_;
    mem::Mmu mmu_;
    sim::StatGroup stats_;
    /// @name Counters of stats_, resolved once (sim::CounterHandle)
    /// @{
    sim::CounterHandle n_instructions_{stats_, "instructions"};
    sim::CounterHandle n_loads_{stats_, "loads"};
    sim::CounterHandle n_stores_{stats_, "stores"};
    sim::CounterHandle n_store_buffer_stalls_{stats_, "store_buffer_stalls"};
    sim::CounterHandle n_prefetches_{stats_, "prefetches"};
    sim::CounterHandle n_atomics_{stats_, "atomics"};
    sim::CounterHandle n_shared_loads_{stats_, "shared_loads"};
    sim::CounterHandle n_mmio_loads_{stats_, "mmio_loads"};
    sim::CounterHandle n_mmio_stores_{stats_, "mmio_stores"};
    /// @}
    sim::Average load_latency_;
    unsigned store_buffer_used_ = 0;
    sim::Signal store_buffer_wait_;
    trace::TraceManager::TrackId tr_track_ = trace::TraceManager::kNone;
};

}  // namespace maple::cpu
