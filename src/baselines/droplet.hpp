/**
 * @file
 * DROPLET-style data-aware indirect hardware prefetcher baseline (Basak et
 * al., HPCA'19: memory-hierarchy optimization for graph workloads).
 *
 * DROPLET sits on the memory side, in front of the shared LLC. It is *data
 * aware*: a demand read of a registered index array (B) triggers a stream of
 * upcoming B lines, and -- once each B line's data has actually returned
 * from DRAM -- decodes the indices and fetches the corresponding lines of
 * the registered data array (A), i.e. the A[B[i]] pattern. Fetched lines
 * land in a small memory-side prefetch buffer (not the LLC), so a later
 * demand miss that hits the buffer is served at memory-controller distance
 * instead of full DRAM latency.
 *
 * The model keeps DROPLET's three structural costs, which are exactly what
 * separates it from MAPLE in Figure 12:
 *  1. chained timeliness: A targets can only be decoded one memory latency
 *     after their B line was prefetched;
 *  2. a small buffer: bursts (power-law hubs) evict entries before use;
 *  3. per-array physical-region registration: moving bases (SDHP's per-row
 *     dense slices) cannot be expressed.
 */
#pragma once

#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mem/cache.hpp"
#include "mem/physical_memory.hpp"
#include "soc/soc.hpp"

namespace maple::baselines {

class DropletPrefetcher : public mem::Port {
  public:
    struct Binding {
        sim::Addr b_base_pa, b_end_pa;  ///< physical range of the index array
        unsigned b_elem_bytes;
        sim::Addr a_base_pa;            ///< physical base of the data array
        unsigned a_elem_bytes;
    };

    struct Params {
        unsigned buffer_lines = 64;     ///< memory-side prefetch buffer size
        unsigned stream_depth = 2;      ///< B lines fetched ahead per trigger
        sim::Cycle buffer_hit = 30;     ///< service time of a buffer hit
    };

    explicit DropletPrefetcher(soc::Soc &soc) : DropletPrefetcher(soc, Params{}) {}

    DropletPrefetcher(soc::Soc &soc, Params params) : soc_(soc), params_(params)
    {
        soc.llcFront().setInterposer(this);
    }

    ~DropletPrefetcher() override { soc_.llcFront().setInterposer(nullptr); }

    /**
     * Register an indirection pair. Physical ranges: workload regions are
     * allocated eagerly by the bump allocator, hence physically contiguous;
     * the virtual bounds are translated once, mirroring the driver-assisted
     * region registration of the original proposal.
     */
    void
    bind(os::Process &proc, sim::Addr b_vbase, size_t b_elems,
         unsigned b_elem_bytes, sim::Addr a_vbase, unsigned a_elem_bytes)
    {
        auto b_pa = proc.pageTable().translate(b_vbase, mem::Perms{});
        auto a_pa = proc.pageTable().translate(a_vbase, mem::Perms{});
        MAPLE_ASSERT(b_pa && a_pa, "DROPLET binding of unmapped arrays");
        bindings_.push_back(Binding{*b_pa, *b_pa + b_elems * b_elem_bytes,
                                    b_elem_bytes, *a_pa, a_elem_bytes});
    }

    /** All LLC-bound traffic flows through here (front-end interposer). */
    sim::Task<void>
    request(mem::MemRequest req) override
    {
        sim::Addr line = mem::lineBase(req.paddr);
        if (req.kind == mem::AccessKind::Read) {
            if (auto it = buffer_.find(line); it != buffer_.end()) {
                // Demand hit in the memory-side buffer: wait for the fill if
                // it is still in flight, then pay buffer access time.
                ++hits_;
                std::shared_ptr<sim::Signal> ready = it->second.ready;
                co_await *ready;
                co_await sim::delay(soc_.eq(), params_.buffer_hit);
                co_return;
            }
        }
        co_await soc_.llc().request(req);
        // Data awareness: a completed demand read of an index line triggers
        // decoding (its data is now on-chip) plus a lookahead stream.
        if (req.kind == mem::AccessKind::Read)
            trigger(line);
    }

    std::uint64_t prefetchesIssued() const { return prefetches_; }
    std::uint64_t bufferHits() const { return hits_; }

  private:
    struct Entry {
        /** Set when the fill lands. Shared: the entry can be evicted while
         *  its fill flies, and a waiter can outlive either. */
        std::shared_ptr<sim::Signal> ready;
        std::list<sim::Addr>::iterator lru_it;
    };

    void
    trigger(sim::Addr line)
    {
        for (const Binding &b : bindings_) {
            if (line < b.b_base_pa || line >= b.b_end_pa)
                continue;
            prefetchTargetsOf(b, line);
            for (unsigned d = 1; d <= params_.stream_depth; ++d) {
                sim::Addr bl = line + sim::Addr(d) * mem::kLineSize;
                if (bl >= b.b_end_pa)
                    break;
                sim::spawnDetached(soc_.eq(), chainPrefetch(b, bl));
            }
        }
    }

    /** Fetch one B line (into the buffer), then prefetch its A targets. */
    sim::Task<void>
    chainPrefetch(Binding b, sim::Addr bl)
    {
        if (!insertAndFetch(bl))
            co_return;  // already buffered / in flight
        // The decode can only happen after the line's data arrived.
        auto it = buffer_.find(bl);
        if (it == buffer_.end())
            co_return;  // evicted before the fetch even started
        std::shared_ptr<sim::Signal> ready = it->second.ready;
        co_await *ready;
        prefetchTargetsOf(b, bl);
    }

    /** Decode one resident index line of B; fetch the A lines it names. */
    void
    prefetchTargetsOf(const Binding &b, sim::Addr line)
    {
        sim::Addr lo = std::max(line, b.b_base_pa);
        sim::Addr hi = std::min(line + mem::kLineSize, b.b_end_pa);
        for (sim::Addr p = lo; p + b.b_elem_bytes <= hi; p += b.b_elem_bytes) {
            std::uint64_t idx = 0;
            soc_.physMem().read(p, &idx, b.b_elem_bytes);
            insertAndFetch(mem::lineBase(b.a_base_pa + idx * b.a_elem_bytes));
        }
    }

    /**
     * Allocate a buffer entry for @p line (LRU evict) and start its DRAM
     * fetch. @return false when the line is already present/in flight.
     */
    bool
    insertAndFetch(sim::Addr line)
    {
        if (buffer_.count(line))
            return false;
        while (buffer_.size() >= params_.buffer_lines) {
            sim::Addr victim = lru_.back();
            lru_.pop_back();
            buffer_.erase(victim);
            ++evictions_;
        }
        lru_.push_front(line);
        auto ready = std::make_shared<sim::Signal>();
        buffer_.emplace(line, Entry{ready, lru_.begin()});
        ++prefetches_;
        auto fetch = [](DropletPrefetcher *self, sim::Addr l,
                        std::shared_ptr<sim::Signal> done) -> sim::Task<void> {
            // Buffer fills are the prefetcher's own traffic: Prefetch class,
            // originating at the memory tile DROPLET sits on.
            co_await self->soc_.dram().request(mem::MemRequest::make(
                self->soc_.eq(), mem::RequesterClass::Prefetch,
                self->soc_.memTile(), l, mem::kLineSize,
                mem::AccessKind::Prefetch));
            done->set();
        };
        sim::spawnDetached(soc_.eq(), fetch(this, line, std::move(ready)));
        return true;
    }

    soc::Soc &soc_;
    Params params_;
    std::vector<Binding> bindings_;
    std::unordered_map<sim::Addr, Entry> buffer_;
    std::list<sim::Addr> lru_;
    std::uint64_t prefetches_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t evictions_ = 0;
};

}  // namespace maple::baselines
