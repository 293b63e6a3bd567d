#include "os/maple_driver.hpp"

#include <algorithm>

#include "fault/fault.hpp"
#include "trace/trace.hpp"

namespace maple::os {

namespace {

/**
 * Cycles the driver lets the interconnect settle after the device drained,
 * while still quiesced. A produce store issued just before the quiesce can
 * still be in flight in the NoC; it must land (and drop with
 * MapleStatus::Quiesced) before the reset + replay, or the replayed entries
 * would interleave out of order with it.
 */
constexpr sim::Cycle kSettleCycles = 512;

}  // namespace

MapleDriver::MapleDriver(os::Process &proc, core::Maple &device,
                         sim::Addr mmio_base, RecoveryConfig cfg)
    : eq_(device.eq()), proc_(proc), device_(device), mmio_base_(mmio_base),
      cfg_(cfg), stats_(device.params().name + ".driver"),
      queues_(device.params().max_queues)
{
    // The simulation analogue of requesting the device's error interrupt:
    // the driver learns of latched hard faults even before one of its ops
    // observes a poisoned/timed-out status.
    device_.setErrorCallback(
        [this] { stats_.counter("error_notifications").inc(); });
}

sim::Task<bool>
MapleDriver::produce(cpu::Core &core, unsigned q, std::uint64_t data)
{
    co_return co_await produceOp(core, q, JournalEntry::Kind::Data, data);
}

sim::Task<bool>
MapleDriver::producePtr(cpu::Core &core, unsigned q, sim::Addr vaddr)
{
    co_return co_await produceOp(core, q, JournalEntry::Kind::Ptr, vaddr);
}

sim::Task<bool>
MapleDriver::produceOp(cpu::Core &core, unsigned q, JournalEntry::Kind kind,
                       std::uint64_t payload)
{
    QueueState &qs = queues_[q];
    const core::StoreOp sop = kind == JournalEntry::Kind::Data
                                  ? core::StoreOp::ProduceData
                                  : core::StoreOp::ProducePtr;
    bool journaled = false;
    unsigned attempt = 0;
    for (;;) {
        if (qs.degraded) {
            // degrade() replayed the journal into the software ring and
            // cleared it (including our unaccepted tail): deliver there.
            co_return co_await produceDegraded(core, qs, kind, payload, q);
        }
        co_await waitRecoveryDone(qs);
        if (qs.degraded)
            co_return co_await produceDegraded(core, qs, kind, payload, q);
        co_await ensureTimeout(core, q);

        if (!journaled) {
            qs.journal.push_back(JournalEntry{kind, payload, false});
            journaled = true;
        }
        const unsigned epoch = qs.epoch;
        co_await core.store(storeAddr(q, sop), payload);
        co_await core.storeFence();
        std::uint64_t st =
            co_await core.load(loadAddr(q, core::LoadOp::ProduceStatus));

        if (qs.degraded) {
            // A whole recovery ran and degraded the queue while our status
            // read was in flight; the journal (with our tail) was consumed
            // by the degradation replay only if accepted — an unaccepted
            // tail is dropped, so deliver through the ring.
            co_return co_await produceDegraded(core, qs, kind, payload, q);
        }
        if (qs.epoch != epoch) {
            // A recovery completed between our store and the status read;
            // ProduceStatus no longer refers to our op. AcceptCount breaks
            // the tie: the replay parked it exactly at accept_base, so a
            // higher value means the device took our (post-reset) produce.
            std::uint64_t count =
                co_await core.load(loadAddr(q, core::LoadOp::AcceptCount));
            if (count > qs.accept_base) {
                if (!qs.journal.empty())
                    qs.journal.back().accepted = true;
                co_return true;
            }
            continue;  // dropped during the recovery window: retry
        }

        switch (static_cast<core::MapleStatus>(st)) {
        case core::MapleStatus::Ok:
            // Guard: a fast consumer may have already consumed + retired it.
            if (!qs.journal.empty())
                qs.journal.back().accepted = true;
            co_return true;
        case core::MapleStatus::Quiesced:
        case core::MapleStatus::Aborted:
            // Recovery in flight; the loop top parks until it completes.
            continue;
        default:
            // TimedOut: past the retry budget, check for a latched error
            // (a hard fault can wedge the queue full of poisoned entries).
            stats_.counter("produce_retries").inc();
            if (++attempt > cfg_.retry_budget) {
                std::uint64_t err =
                    co_await core.load(loadAddr(q, core::LoadOp::ErrStatus));
                if (err & 1) {
                    co_await recover(core, q);
                    attempt = 0;
                    continue;
                }
            }
            co_await backoff(attempt);
            continue;
        }
    }
}

sim::Task<bool>
MapleDriver::produceDegraded(cpu::Core &core, QueueState &qs,
                             JournalEntry::Kind kind, std::uint64_t payload,
                             unsigned q)
{
    // The software ring carries values, not pointers: the produce side does
    // the dereference MAPLE's fetch pipeline would have done.
    std::uint64_t v = payload;
    if (kind == JournalEntry::Kind::Ptr)
        v = co_await core.load(payload, device_.queue(q).entryBytes());
    co_await qs.swq->produce(core, v);
    co_return true;
}

sim::Task<std::uint64_t>
MapleDriver::consume(cpu::Core &core, unsigned q)
{
    QueueState &qs = queues_[q];
    unsigned attempt = 0;
    for (;;) {
        if (qs.degraded)
            co_return co_await qs.swq->consume(core);
        co_await waitRecoveryDone(qs);
        if (qs.degraded)
            co_return co_await qs.swq->consume(core);
        co_await ensureTimeout(core, q);

        std::uint64_t v =
            co_await core.load(loadAddr(q, core::LoadOp::Consume));
        std::uint64_t st =
            co_await core.load(loadAddr(q, core::LoadOp::ConsumeStatus));

        switch (static_cast<core::MapleStatus>(st)) {
        case core::MapleStatus::Ok:
            // The oldest journaled produce has now been delivered. Trusting
            // Ok here is sound across concurrent recoveries because
            // DeviceReset overwrites ConsumeStatus with Aborted: if a
            // recovery ran between the Consume load and this status read,
            // we see Aborted (discard v, retry — the replay regenerates the
            // entry), never a stale pre-reset Ok that would pop the journal
            // and let the replayed duplicate be delivered again.
            if (!qs.journal.empty())
                qs.journal.pop_front();
            co_return v;
        case core::MapleStatus::Poisoned:
            // Do NOT retire the journal front: the poisoned entry's value
            // was lost in the device and the replay will regenerate it.
            stats_.counter("poisoned_consumes").inc();
            co_await recover(core, q);
            continue;
        case core::MapleStatus::Quiesced:
        case core::MapleStatus::Aborted:
            continue;  // recovery in flight; loop top parks until done
        default:
            // TimedOut: an empty queue is not an error (the producer may
            // just be slow) unless the device has an error latched.
            stats_.counter("consume_retries").inc();
            if (++attempt > cfg_.retry_budget) {
                std::uint64_t err =
                    co_await core.load(loadAddr(q, core::LoadOp::ErrStatus));
                if (err & 1) {
                    co_await recover(core, q);
                    attempt = 0;
                    continue;
                }
            }
            co_await backoff(attempt);
            continue;
        }
    }
}

sim::Task<void>
MapleDriver::recover(cpu::Core &core, unsigned q)
{
    QueueState &qs = queues_[q];
    if (qs.recovering) {
        // Another op on this queue is already driving the state machine.
        co_await waitRecoveryDone(qs);
        co_return;
    }
    qs.recovering = true;
    const sim::Cycle t0 = eq_.now();
    ++qs.recovery_count;
    stats_.counter("recoveries").inc();

    // While deliberately quiesced, the device's parked waiters (and our own
    // ops parked on recovery_wait) must not look like a livelock.
    fault::OwnerMaskGuard watchdog_mask(eq_, device_.params().name);

    trace::TraceManager *tm = trace::active(eq_);
    if (tm && tr_track_ == trace::TraceManager::kNone)
        tr_track_ = tm->track(device_.params().name + ".recovery");
    if (tm)
        tm->instant(tr_track_, "recover_begin", trace::Category::Os);

    // 1. Quiesce: produce/consume-class ops drop from here on; the config
    //    pipeline (which everything below uses) stays live.
    co_await core.store(storeAddr(q, core::StoreOp::Quiesce), 1);
    co_await core.storeFence();

    //    Re-arm the op timeout through the still-live config pipeline.
    //    ensureTimeout armed it once, but an application INIT since then
    //    zeroes the register behind the latch — and a produce parked with
    //    bound 0 on this (wedged) queue would hold its in-flight count up
    //    forever, deadlocking the drain below. The store also wakes parked
    //    waiters so the new bound takes effect on them.
    co_await core.store(storeAddr(q, core::StoreOp::QueueTimeout),
                        cfg_.op_timeout);
    co_await core.storeFence();
    qs.timeout_set = true;

    // 2. Drain: wait until no produce is in flight on this queue (ErrStatus
    //    reports the per-queue count, so other queues' traffic — including a
    //    concurrent recovery — cannot stall or unstick this one).
    for (;;) {
        std::uint64_t err =
            co_await core.load(loadAddr(q, core::LoadOp::ErrStatus));
        if (((err >> 16) & 0xffff) == 0)
            break;
        co_await sim::delay(eq_, 16);
    }
    //    ...and let straggler ops still in the interconnect land (and drop,
    //    without bumping AcceptCount) before the reset.
    co_await sim::delay(eq_, kSettleCycles);

    // 3. Read the architectural cause, then reset the queue: contents drop,
    //    parked waiters abort, the device TLB flushes, the latch clears.
    auto cause = static_cast<fault::FaultClass>(
        co_await core.load(loadAddr(q, core::LoadOp::ErrCause)));
    std::uint64_t fault_addr =
        co_await core.load(loadAddr(q, core::LoadOp::ErrAddr));
    (void)fault_addr;  // read for completeness; the log has it already
    co_await core.store(storeAddr(q, core::StoreOp::DeviceReset), 0);
    co_await core.storeFence();

    // 4. AcceptCount survived the reset; reading it while still quiesced
    //    gives produceOp an unambiguous replay watermark.
    std::uint64_t accepted =
        co_await core.load(loadAddr(q, core::LoadOp::AcceptCount));
    std::uint64_t n_replay = 0;
    for (const JournalEntry &e : qs.journal)
        if (e.accepted)
            ++n_replay;

    if (qs.recovery_count > cfg_.recovery_budget) {
        co_await degrade(core, q);
    } else {
        qs.accept_base = accepted + n_replay;
        ++qs.epoch;

        // 5. Resume and replay the accepted-but-unconsumed produces in
        //    journal order. Fence between stores: replay order is the
        //    correctness contract, and posted MMIO stores race otherwise.
        co_await core.store(storeAddr(q, core::StoreOp::Quiesce), 0);
        co_await core.storeFence();
        for (const JournalEntry &e : qs.journal) {
            if (!e.accepted)
                continue;
            co_await core.store(
                storeAddr(q, e.kind == JournalEntry::Kind::Data
                                 ? core::StoreOp::ProduceData
                                 : core::StoreOp::ProducePtr),
                e.payload);
            co_await core.storeFence();
        }
        stats_.counter("replayed_ops").inc(n_replay);
    }

    const sim::Cycle dt = eq_.now() - t0;
    stats_.histogram("time_to_recovery", 256.0, 64)
        .sample(static_cast<double>(dt));
    fault::FaultInjector *fi = eq_.faultInjector();
    if (fi && fault::isHardFault(cause)) {
        // Charges the per-class cycle counter and the fault_recovery
        // stall-attribution bucket in one place.
        fi->chargeCycles(cause, dt);
    } else if (tm) {
        tm->attributeStall(trace::StallCause::FaultRecovery, dt);
    }
    if (tm)
        tm->instant(tr_track_, qs.degraded ? "degraded" : "recover_end",
                    trace::Category::Os);

    qs.recovering = false;
    sim::Signal done = std::exchange(qs.recovery_wait, sim::Signal{});
    done.set(sim::Unit{});
}

sim::Task<void>
MapleDriver::degrade(cpu::Core &core, unsigned q)
{
    // Called from recover() with the queue quiesced and freshly reset.
    QueueState &qs = queues_[q];
    unsigned cap = device_.queue(q).capacity();
    qs.swq = std::make_unique<baselines::SwQueue>(proc_, cap ? cap : 64);

    // Permanent watchdog exclusion: a degraded device's remaining parked
    // machinery is intentional, not a livelock (satellite: masked/degraded
    // devices leave the parked-waiter accounting).
    if (fault::FaultInjector *fi = eq_.faultInjector())
        fi->maskOwner(device_.params().name);

    std::uint64_t n = 0;
    for (const JournalEntry &e : qs.journal) {
        if (!e.accepted)
            continue;
        std::uint64_t v = e.payload;
        if (e.kind == JournalEntry::Kind::Ptr)
            v = co_await core.load(e.payload, device_.queue(q).entryBytes());
        co_await qs.swq->produce(core, v);
        ++n;
    }
    qs.journal.clear();
    stats_.counter("replayed_ops").inc(n);
    stats_.counter("degraded_queues").inc();

    // Publish the degradation before releasing the device so no op can slip
    // back onto the hardware path, then close the binding and lift this
    // queue's quiesce so the device ends in a sane (if unused) state.
    qs.degraded = true;
    co_await core.store(storeAddr(q, core::StoreOp::Close), 0);
    co_await core.store(storeAddr(q, core::StoreOp::Quiesce), 0);
    co_await core.storeFence();
}

sim::Task<void>
MapleDriver::waitRecoveryDone(QueueState &qs)
{
    if (!qs.recovering)
        co_return;
    fault::ParkGuard park(eq_, "recovery_wait", device_.params().name);
    while (qs.recovering) {
        sim::Signal w = qs.recovery_wait;
        co_await w;
    }
}

sim::Task<void>
MapleDriver::ensureTimeout(cpu::Core &core, unsigned q)
{
    QueueState &qs = queues_[q];
    if (qs.timeout_set)
        co_return;
    qs.timeout_set = true;  // set before awaiting: one writer is enough
    co_await core.store(storeAddr(q, core::StoreOp::QueueTimeout),
                        cfg_.op_timeout);
    co_await core.storeFence();
}

sim::Task<void>
MapleDriver::backoff(unsigned attempt)
{
    sim::Cycle d = cfg_.backoff_base << std::min(attempt, 10u);
    d = std::min(d, cfg_.backoff_cap);
    // Deterministic jitter from the injector's dedicated recovery stream:
    // same seed, same retry schedule, and the injection streams never see
    // these draws.
    if (fault::FaultInjector *fi = eq_.faultInjector())
        d += fi->recoveryJitter(d / 4 + 1);
    co_await sim::delay(eq_, d);
}

}  // namespace maple::os
