/**
 * @file
 * MAPLE's user-space software API (Section 3.1-3.2 of the paper).
 *
 * Every operation below compiles down to ordinary loads/stores against the
 * device's MMIO page, which the OS mapped into the process's address space.
 * There are no new instructions: INIT/OPEN/CLOSE/PRODUCE/CONSUME/PRODUCE_PTR
 * plus the LIMA and speculative-prefetch operations and the debug/counter
 * interface are all just memory accesses issued by an off-the-shelf core.
 */
#pragma once

#include <cstdint>
#include <memory>

#include "core/maple.hpp"
#include "core/maple_isa.hpp"
#include "cpu/core.hpp"
#include "os/kernel.hpp"
#include "os/maple_driver.hpp"
#include "sim/coro.hpp"

namespace maple::core {

/** One LIMA request: prefetch A[B[i]] for i in [start, end). */
struct LimaRequest {
    sim::Addr a_base = 0;           ///< virtual base of data array A
    sim::Addr b_base = 0;           ///< virtual base of index array B
    std::uint32_t start = 0;        ///< first index (inclusive)
    std::uint32_t end = 0;          ///< last index (exclusive)
    unsigned b_elem_bytes = 4;
    unsigned a_elem_bytes = 4;
    bool speculative = false;       ///< true: LLC prefetch; false: into queue
    unsigned target_queue = 0;      ///< destination queue when non-speculative
};

/**
 * Software handle to one MAPLE instance mapped into one process.
 * Construct via attach(), which performs the OS work: map the MMIO page,
 * point the device MMU at the process page table, and install the driver's
 * page-fault handler.
 */
class MapleApi {
  public:
    /** Attach with the device's own recovery policy (MapleParams::recovery,
     *  which a Soc resolves from the MAPLE_FAULT_RECOVERY* knobs). */
    static MapleApi
    attach(os::Process &proc, Maple &device)
    {
        return attach(proc, device, device.params().recovery);
    }

    /**
     * Attach with an explicit recovery policy. When @p rc .enabled the OS
     * instantiates the recovery driver (os::MapleDriver) and the *Reliable
     * operations below route through it; otherwise they are plain aliases of
     * the raw operations and cost nothing extra.
     */
    static MapleApi
    attach(os::Process &proc, Maple &device, const os::RecoveryConfig &rc)
    {
        sim::Addr base = proc.mapMmio(device.params().mmio_base);
        proc.attachMmu(&device.mmu());
        device.setDriverFaultHandler(proc.kernel().makeFaultHandler(proc));
        MapleApi api(base, &device);
        if (rc.enabled)
            api.driver_ = std::make_shared<os::MapleDriver>(proc, device, base, rc);
        return api;
    }

    /** User virtual address of the device page. */
    sim::Addr base() const { return base_; }
    Maple &device() { return *device_; }

    /** INIT: carve the scratchpad into @p queues queues. */
    sim::Task<void>
    init(cpu::Core &core, unsigned queues, unsigned entries, unsigned entry_bytes)
    {
        co_await core.store(encodeStore(base_, 0, StoreOp::ConfigQueues),
                            packQueueConfig(queues, entries, entry_bytes));
        co_await core.storeFence();  // configuration must land before use
    }

    /** OPEN: bind queue @p q; returns true on success. */
    sim::Task<bool>
    open(cpu::Core &core, unsigned q)
    {
        std::uint64_t got =
            co_await core.load(encodeLoad(base_, q, LoadOp::Open));
        co_return got != 0;
    }

    /** CLOSE: release queue @p q, discarding in-flight entries. */
    sim::Task<void>
    close(cpu::Core &core, unsigned q)
    {
        co_await core.store(encodeStore(base_, q, StoreOp::Close), 0);
        co_await core.storeFence();
    }

    /** PRODUCE: push a data value. */
    sim::Task<void>
    produce(cpu::Core &core, unsigned q, std::uint64_t data)
    {
        co_await core.store(encodeStore(base_, q, StoreOp::ProduceData), data);
    }

    /** PRODUCE_PTR: push a pointer for MAPLE to fetch asynchronously. */
    sim::Task<void>
    producePtr(cpu::Core &core, unsigned q, sim::Addr ptr)
    {
        co_await core.store(encodeStore(base_, q, StoreOp::ProducePtr), ptr);
    }

    /** CONSUME: pop one entry (blocks until data is available). */
    sim::Task<std::uint64_t>
    consume(cpu::Core &core, unsigned q)
    {
        co_return co_await core.load(encodeLoad(base_, q, LoadOp::Consume));
    }

    /** CONSUME of two 4-byte entries packed into one 8-byte load. */
    sim::Task<std::uint64_t>
    consumePair(cpu::Core &core, unsigned q)
    {
        co_return co_await core.load(encodeLoad(base_, q, LoadOp::ConsumePair));
    }

    /** PREFETCH: speculative prefetch of @p ptr into the LLC. */
    sim::Task<void>
    prefetch(cpu::Core &core, sim::Addr ptr)
    {
        co_await core.store(encodeStore(base_, 0, StoreOp::PrefetchPtr), ptr);
    }

    /// @name Non-blocking / timed operation (the hardened error paths)
    /// Software that cannot tolerate an unbounded park latches a per-queue
    /// timeout (or polls) and branches on the queue status register instead.
    /// @{

    /** Bound produce/consume waits on queue @p q; 0 restores block-forever. */
    sim::Task<void>
    setQueueTimeout(cpu::Core &core, unsigned q, sim::Cycle cycles)
    {
        co_await core.store(encodeStore(base_, q, StoreOp::QueueTimeout), cycles);
        co_await core.storeFence();  // the bound must land before the next op
    }

    /** Outcome of the last produce/consume-class op on queue @p q. */
    sim::Task<MapleStatus>
    queueStatus(cpu::Core &core, unsigned q)
    {
        std::uint64_t got =
            co_await core.load(encodeLoad(base_, q, LoadOp::QueueStatus));
        co_return static_cast<MapleStatus>(got);
    }

    /**
     * Non-blocking CONSUME: pops an entry if one is ready. Check
     * queueStatus() (Ok vs Empty) to distinguish data from "try again" --
     * a ready entry may legitimately hold the value 0.
     */
    sim::Task<std::uint64_t>
    consumePoll(cpu::Core &core, unsigned q)
    {
        co_return co_await core.load(encodeLoad(base_, q, LoadOp::ConsumePoll));
    }

    /**
     * CONSUME bounded by the queue's timeout register. Returns the entry
     * and sets @p status to Ok, or returns 0 with @p status TimedOut.
     */
    sim::Task<std::uint64_t>
    consumeTimed(cpu::Core &core, unsigned q, MapleStatus &status)
    {
        std::uint64_t v =
            co_await core.load(encodeLoad(base_, q, LoadOp::Consume));
        status = co_await queueStatus(core, q);
        co_return v;
    }

    /**
     * PRODUCE bounded by the queue's timeout register. Returns false (and
     * the value is dropped by the device) when the wait hit the bound.
     */
    sim::Task<bool>
    produceTimed(cpu::Core &core, unsigned q, std::uint64_t data)
    {
        co_await core.store(encodeStore(base_, q, StoreOp::ProduceData), data);
        co_await core.storeFence();  // status is undefined until the store lands
        co_return co_await queueStatus(core, q) == MapleStatus::Ok;
    }

    /// @}

    /// @name Reliable operation (fault-recovery runtime, DESIGN.md §10)
    /// With the recovery driver attached these journal, retry with
    /// deterministic backoff, trigger device recovery on latched errors and
    /// fall back to the software queue once the queue degrades. Without a
    /// driver they are exact pass-throughs of the raw operations.
    /// @{

    /** PRODUCE with retry/recovery; true once the value is delivered. */
    sim::Task<bool>
    produceReliable(cpu::Core &core, unsigned q, std::uint64_t data)
    {
        if (!driver_) {
            co_await produce(core, q, data);
            co_return true;
        }
        co_return co_await driver_->produce(core, q, data);
    }

    /** PRODUCE_PTR with retry/recovery; true once the value is delivered. */
    sim::Task<bool>
    producePtrReliable(cpu::Core &core, unsigned q, sim::Addr ptr)
    {
        if (!driver_) {
            co_await producePtr(core, q, ptr);
            co_return true;
        }
        co_return co_await driver_->producePtr(core, q, ptr);
    }

    /** CONSUME with retry/recovery; never returns poisoned data. */
    sim::Task<std::uint64_t>
    consumeReliable(cpu::Core &core, unsigned q)
    {
        if (!driver_)
            co_return co_await consume(core, q);
        co_return co_await driver_->consume(core, q);
    }

    /** The recovery driver, or nullptr when recovery is disabled. */
    os::MapleDriver *driver() { return driver_.get(); }

    /// @}

    /// @name Read-modify-write extension (Section 3's "easily extensible")
    /// @{

    /** Latch the addend used by subsequent produceAmoAdd on queue @p q. */
    sim::Task<void>
    setAmoAddend(cpu::Core &core, unsigned q, std::uint64_t addend)
    {
        co_await core.store(encodeStore(base_, q, StoreOp::AmoAddend), addend);
    }

    /**
     * Offloaded fetch-and-add: MAPLE performs a coherent RMW at @p ptr and
     * delivers the *old* value into queue @p q in program order -- the
     * Access thread never stalls on the atomic's round trip.
     */
    sim::Task<void>
    produceAmoAdd(cpu::Core &core, unsigned q, sim::Addr ptr)
    {
        co_await core.store(encodeStore(base_, q, StoreOp::ProduceAmoAdd), ptr);
    }

    /// @}

    /**
     * LIMA: offload a whole loop of indirect accesses with one API call.
     * The runtime shadows the device's base/control registers so repeated
     * launches over the same arrays cost a single store.
     */
    sim::Task<void>
    lima(cpu::Core &core, const LimaRequest &req)
    {
        if (shadow_a_ != req.a_base) {
            co_await core.store(encodeStore(base_, 0, StoreOp::LimaABase), req.a_base);
            shadow_a_ = req.a_base;
        }
        if (shadow_b_ != req.b_base) {
            co_await core.store(encodeStore(base_, 0, StoreOp::LimaBBase), req.b_base);
            shadow_b_ = req.b_base;
        }
        co_await core.store(encodeStore(base_, 0, StoreOp::LimaRange),
                            packRange(req.start, req.end));
        LimaControl ctrl;
        ctrl.target_queue = static_cast<std::uint8_t>(req.target_queue);
        ctrl.b_elem_bytes = static_cast<std::uint8_t>(req.b_elem_bytes);
        ctrl.a_elem_bytes = static_cast<std::uint8_t>(req.a_elem_bytes);
        ctrl.speculative = req.speculative;
        co_await core.store(encodeStore(base_, 0, StoreOp::LimaLaunch),
                            packLimaControl(ctrl));
    }

    /** Debug: read a hardware performance counter. */
    sim::Task<std::uint64_t>
    readCounter(cpu::Core &core, Counter c)
    {
        unsigned op = static_cast<unsigned>(LoadOp::CounterBase) +
                      static_cast<unsigned>(c);
        co_return co_await core.load(encodeOp(base_, 0, op));
    }

    /** Debug: queue occupancy. */
    sim::Task<std::uint64_t>
    occupancy(cpu::Core &core, unsigned q)
    {
        co_return co_await core.load(encodeLoad(base_, q, LoadOp::Occupancy));
    }

    sim::Task<void>
    resetCounters(cpu::Core &core)
    {
        co_await core.store(encodeStore(base_, 0, StoreOp::ResetCounters), 0);
        co_await core.storeFence();
    }

  private:
    MapleApi(sim::Addr base, Maple *device) : base_(base), device_(device) {}

    sim::Addr base_;
    Maple *device_;
    sim::Addr shadow_a_ = sim::kBadAddr;
    sim::Addr shadow_b_ = sim::kBadAddr;
    /// Shared so MapleApi stays copyable (it is passed around by value).
    std::shared_ptr<os::MapleDriver> driver_;
};

}  // namespace maple::core
