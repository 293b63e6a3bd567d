/**
 * @file
 * DeSC-style decoupled supply-compute baseline (Ham et al., MICRO'15).
 *
 * DeSC pairs a Supply (Access) core and a Compute (Execute) core through
 * *architectural* queues with register-file-like access latency (~2 cycles),
 * plus a "supply buffer" that lets terminal loads -- loads whose values are
 * used only by Compute -- commit early and fill their queue slot out of
 * order. The two defining constraints this model keeps, because they drive
 * the paper's Figure 12 shapes, are:
 *
 *  1. The Compute core has no visibility into the memory hierarchy: *all* of
 *     its inputs arrive through the queue and all of its stores are shipped
 *     back to Supply through a store queue (loss of runahead for BFS).
 *  2. The queue hardware is per core *pair*: unlike MAPLE it cannot be
 *     shared or rebalanced, but its access latency is much lower than a
 *     NoC round trip.
 *
 * Memory-level parallelism of the supply buffer is bounded by its size, and
 * fetches go through the Supply core's own L1 path (DeSC caches normally).
 */
#pragma once

#include <optional>
#include <utility>

#include "core/maple_queue.hpp"
#include "cpu/core.hpp"
#include "mem/cache.hpp"
#include "sim/coro.hpp"
#include "sim/stats.hpp"

namespace maple::baselines {

struct DescParams {
    unsigned queue_entries = 128;   ///< communication queue depth
    unsigned supply_buffer = 32;    ///< outstanding early-committed loads
    sim::Cycle access_latency = 2;  ///< architectural queue access cost
};

class DescQueue {
  public:
    /**
     * @param fetch_port memory path of the supply buffer's early-committed
     *        loads. DeSC's lockup-free supply buffer provides MLP beyond the
     *        core's (near-blocking) L1, so it gets its own LLC-reaching port.
     */
    DescQueue(sim::EventQueue &eq, mem::PhysicalMemory &pm,
              mem::Port &fetch_port, DescParams params = {})
        : eq_(eq), pm_(pm), fetch_port_(fetch_port), params_(params)
    {
        comm_.configure(params_.queue_entries, 8);
        // Two slots per store (addr, value), sized to absorb one store per
        // in-flight communication-queue entry: Compute can never have more
        // pending stores than values it has consumed, so with this bound the
        // Supply->Compute->store loop cannot form a circular wait.
        store_q_.configure(params_.queue_entries * 4, 8);
    }

    sim::EventQueue &eq() const { return eq_; }

    /// @name Supply (Access) side
    /// @{

    /** Enqueue an already-computed value for Compute. */
    sim::Task<void>
    produceValue(cpu::Core &core, std::uint64_t value)
    {
        co_await core.compute(1);
        co_await sim::delay(eq_, params_.access_latency);
        co_await waitSpace(comm_);
        comm_.fillSlot(comm_.reserveSlot(), value);
    }

    /**
     * Terminal load: reserve the queue slot in program order and commit the
     * load early -- the Supply core does NOT wait for the data. The supply
     * buffer bounds how many such loads are in flight.
     */
    sim::Task<void>
    produceLoad(cpu::Core &core, sim::Addr vaddr, unsigned size = 8)
    {
        co_await core.compute(1);
        co_await sim::delay(eq_, params_.access_latency);
        co_await waitSpace(comm_);
        unsigned slot = comm_.reserveSlot();

        while (inflight_ >= params_.supply_buffer)
            co_await buffer_waiters_;
        ++inflight_;

        mem::Translation tr = co_await core.mmu().translate(vaddr, false);
        MAPLE_ASSERT(!tr.fault, "DeSC terminal load faulted");
        sim::spawnDetached(eq_, fetch(slot, core.tile(), tr.paddr, size));
    }

    /** Drain one Compute-side store (Supply performs the actual store). */
    sim::Task<bool>
    drainOneStore(cpu::Core &core)
    {
        auto st = co_await takeStore(core);
        if (!st)
            co_return false;
        co_await core.store(st->first, st->second, 4);
        co_return true;
    }

    /**
     * Serve Compute's stores until Compute has finished (finishCompute) and
     * its store queue is empty, polling every 20 cycles while it is idle.
     */
    sim::Task<void>
    drainStoresToEnd(cpu::Core &core)
    {
        while (!compute_done_ || !storeQueueEmpty()) {
            // Kept out of the condition: GCC 12.2 miscompiles
            // `if (!co_await ...)` in this in-class coroutine.
            bool drained = co_await drainOneStore(core);
            if (!drained)
                co_await sim::delay(eq_, 20);
        }
    }

    /**
     * Pop one Compute-side store *without* performing it, so the Supply
     * slice can attach extra semantics (e.g. BFS frontier appends).
     */
    sim::Task<std::optional<std::pair<sim::Addr, std::uint64_t>>>
    takeStore(cpu::Core &core)
    {
        if (!store_q_.headValid())
            co_return std::nullopt;
        co_await core.compute(1);
        co_await sim::delay(eq_, params_.access_latency);
        std::uint64_t addr = store_q_.pop();
        co_await waitData(store_q_);
        std::uint64_t value = store_q_.pop();
        co_return std::make_pair(sim::Addr(addr), value);
    }

    /// @}
    /// @name Compute (Execute) side
    /// @{

    /** Pop the next value (blocks until Supply delivers it). */
    sim::Task<std::uint64_t>
    consume(cpu::Core &core)
    {
        co_await core.compute(1);
        co_await sim::delay(eq_, params_.access_latency);
        co_await waitData(comm_);
        co_return comm_.pop();
    }

    /** Ship a store (addr, value) back to the Supply core. */
    sim::Task<void>
    produceStore(cpu::Core &core, sim::Addr vaddr, std::uint64_t value)
    {
        co_await core.compute(1);
        co_await sim::delay(eq_, params_.access_latency);
        co_await waitSpace(store_q_, 2);
        store_q_.fillSlot(store_q_.reserveSlot(), vaddr);
        store_q_.fillSlot(store_q_.reserveSlot(), value);
    }

    /** Compute has shipped its last store (ends drainStoresToEnd). */
    void finishCompute() { compute_done_ = true; }

    /// @}

    bool storeQueueEmpty() const { return store_q_.empty(); }

  private:
    sim::Task<void>
    waitSpace(maple::core::MapleQueue &q, unsigned need = 1)
    {
        while (q.capacity() - q.occupancy() < need)
            co_await q.spaceWaiters();
    }

    sim::Task<void>
    waitData(maple::core::MapleQueue &q)
    {
        while (!q.headValid())
            co_await q.dataWaiters();
    }

    sim::Task<void>
    fetch(unsigned slot, sim::TileId tile, sim::Addr paddr, unsigned size)
    {
        // Early-committed terminal loads are core demand traffic issued on
        // the Supply core's behalf.
        co_await fetch_port_.request(mem::MemRequest::make(
            eq_, mem::RequesterClass::Core, tile, paddr, size,
            mem::AccessKind::Read));
        std::uint64_t v = 0;
        pm_.read(paddr, &v, size);
        comm_.fillSlot(slot, v);
        --inflight_;
        buffer_waiters_.wakeAll();
    }

    sim::EventQueue &eq_;
    mem::PhysicalMemory &pm_;
    mem::Port &fetch_port_;
    DescParams params_;
    maple::core::MapleQueue comm_;     ///< Supply -> Compute data queue
    maple::core::MapleQueue store_q_;  ///< Compute -> Supply store queue
    unsigned inflight_ = 0;
    sim::WaitList buffer_waiters_;
    bool compute_done_ = false;
};

}  // namespace maple::baselines
