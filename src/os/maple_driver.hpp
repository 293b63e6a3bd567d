/**
 * @file
 * The OS-level MAPLE recovery driver: hard-fault detection, device reset,
 * replay, retry/backoff, and graceful degradation to the software queue.
 *
 * The device (core::Maple) gives the driver an architectural contract:
 *
 *  - hard faults latch sticky per-queue error registers (LoadOp::ErrStatus/
 *    ErrCause/ErrAddr) and poison the affected queue entries, which consumes
 *    surface as MapleStatus::Poisoned instead of data;
 *  - StoreOp::Quiesce stops one queue's produce/consume ops (they drop with
 *    MapleStatus::Quiesced) while the config pipeline stays live; quiesce,
 *    error state and the in-flight count are all per queue, so recoveries
 *    on different queues proceed independently;
 *  - StoreOp::DeviceReset drops one queue's contents, aborts parked waiters
 *    (MapleStatus::Aborted), flushes the device TLB, clears the queue's
 *    latch and overwrites its status registers with Aborted — a stale
 *    pre-reset Ok can never be read back after a reset, which is what makes
 *    the journal's exactly-once accounting sound under concurrent recovery;
 *  - LoadOp::AcceptCount survives the reset, so software can tell whether
 *    an in-flight produce landed before or after the reset.
 *
 * On top of that contract the driver implements the recovery state machine
 *
 *    detect -> quiesce -> drain -> read cause -> reset -> replay -> resume
 *
 * with a journal of accepted-but-unconsumed produce ops per queue (replayed
 * after a reset), deterministic exponential backoff around every reliable
 * op (jitter comes from the fault injector's dedicated recovery stream, so
 * runs are bit-identical per seed), and -- once the recovery budget is
 * exhausted -- permanent degradation of the queue to the software SPSC ring
 * (baselines::SwQueue): slower, but the workload completes correctly.
 *
 * Assumptions (checked by the tests, documented in DESIGN.md §10): one
 * producer and one consumer thread per driver-managed queue, and every op on
 * such a queue goes through the driver (MapleApi::*Reliable). AMO produces
 * are not journaled and are outside recovery coverage. The policy
 * (os/recovery_config.hpp) comes from the MAPLE_FAULT_RECOVERY* knobs.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "baselines/sw_queue.hpp"
#include "core/maple.hpp"
#include "core/maple_isa.hpp"
#include "cpu/core.hpp"
#include "os/kernel.hpp"
#include "os/recovery_config.hpp"
#include "sim/coro.hpp"
#include "sim/stats.hpp"

namespace maple::os {

class MapleDriver {
  public:
    MapleDriver(os::Process &proc, core::Maple &device, sim::Addr mmio_base,
                RecoveryConfig cfg);

    MapleDriver(const MapleDriver &) = delete;
    MapleDriver &operator=(const MapleDriver &) = delete;

    /// @name Reliable operations (MapleApi::*Reliable delegate here)
    /// @{
    sim::Task<bool> produce(cpu::Core &core, unsigned q, std::uint64_t data);
    sim::Task<bool> producePtr(cpu::Core &core, unsigned q, sim::Addr vaddr);
    sim::Task<std::uint64_t> consume(cpu::Core &core, unsigned q);
    /// @}

    const RecoveryConfig &config() const { return cfg_; }
    bool degraded(unsigned q) const { return queues_[q].degraded; }

    /// @name Recovery telemetry
    /// @{
    std::uint64_t recoveries() { return stats_.counter("recoveries").value(); }
    std::uint64_t replayedOps() { return stats_.counter("replayed_ops").value(); }
    std::uint64_t degradedQueues()
    {
        return stats_.counter("degraded_queues").value();
    }
    sim::StatGroup &stats() { return stats_; }
    /// @}

  private:
    struct JournalEntry {
        enum class Kind : std::uint8_t { Data, Ptr };
        Kind kind;
        std::uint64_t payload;  ///< data value or pointer vaddr
        bool accepted;          ///< the device took it (replayed after reset)
    };

    struct QueueState {
        std::deque<JournalEntry> journal;  ///< accepted-but-unconsumed + tail
        std::unique_ptr<baselines::SwQueue> swq;  ///< degradation target
        bool degraded = false;
        bool recovering = false;
        bool timeout_set = false;
        unsigned epoch = 0;            ///< bumped by every completed recovery
        unsigned recovery_count = 0;
        std::uint64_t accept_base = 0; ///< AcceptCount after reset + replay
        sim::WaitList recovery_waiters;  ///< woken when a recovery completes
    };

    sim::Task<bool> produceOp(cpu::Core &core, unsigned q,
                              JournalEntry::Kind kind, std::uint64_t payload);
    sim::Task<bool> produceDegraded(cpu::Core &core, QueueState &qs,
                                    JournalEntry::Kind kind,
                                    std::uint64_t payload, unsigned q);

    /** The recovery state machine; serialized per queue via `recovering`. */
    sim::Task<void> recover(cpu::Core &core, unsigned q);

    /** Replace the device queue with the software ring, replaying the journal. */
    sim::Task<void> degrade(cpu::Core &core, unsigned q);

    sim::Task<void> waitRecoveryDone(QueueState &qs);
    sim::Task<void> ensureTimeout(cpu::Core &core, unsigned q);
    sim::Task<void> backoff(unsigned attempt);

    sim::Addr loadAddr(unsigned q, core::LoadOp op) const
    {
        return core::encodeLoad(mmio_base_, q, op);
    }
    sim::Addr storeAddr(unsigned q, core::StoreOp op) const
    {
        return core::encodeStore(mmio_base_, q, op);
    }

    sim::EventQueue &eq_;
    os::Process &proc_;
    core::Maple &device_;
    sim::Addr mmio_base_;
    RecoveryConfig cfg_;
    sim::StatGroup stats_;
    std::vector<QueueState> queues_;

    /// Lazily-created trace track for recovery instants.
    trace::TraceManager::TrackId tr_track_ = trace::TraceManager::kNone;
};

}  // namespace maple::os
