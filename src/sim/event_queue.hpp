/**
 * @file
 * Discrete-event simulation engine.
 *
 * All simulated hardware shares one EventQueue. Events are scheduled at an
 * absolute cycle; ties are broken by insertion order so simulations are fully
 * deterministic.
 *
 * Scheduling core (the simulator's hottest path) is a hierarchical timing
 * wheel in the style of gem5 / Varghese & Lauck:
 *
 *  - Near future (delta < kWheelHorizon): a power-of-two array of buckets,
 *    one bucket per cycle in the window [now, now + horizon). Each bucket is
 *    an intrusive singly-linked FIFO, so same-cycle events preserve insertion
 *    order by construction. An occupancy bitmap (one bit per bucket) finds
 *    the next non-empty bucket with a few word scans instead of a heap
 *    percolation.
 *
 *  - Far future (delta >= kWheelHorizon): a small overflow min-heap ordered
 *    by (cycle, sequence). As simulated time advances, overflow events whose
 *    cycle enters the wheel window cascade into their bucket. All overflow
 *    events for a cycle were necessarily scheduled before any direct wheel
 *    event for that cycle (their schedule-time distance exceeded the horizon,
 *    so their schedule time was strictly earlier), so the cascaded chain is
 *    spliced in *front* of the bucket and global FIFO order is preserved.
 *
 *  - Event nodes are intrusive and pooled (chunk-allocated, free-list
 *    recycled): steady-state scheduling performs no heap allocation. Events
 *    come in two kinds: a type-erased std::function callback, and a raw
 *    std::coroutine_handle<> resume used by the coroutine toolkit
 *    (sim/coro.hpp) — delay() and every co_await wakeup ride the handle path
 *    and never construct a std::function.
 */
#pragma once

#include <algorithm>
#include <bit>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/log.hpp"
#include "sim/types.hpp"

namespace maple::trace {
class TraceManager;
}

namespace maple::fault {
class FaultInjector;
}

namespace maple::sim {

class EventQueue {
  public:
    using Callback = std::function<void()>;

    /** Wheel window: deltas below this stay out of the overflow heap. */
    static constexpr Cycle kWheelHorizon = 1024;

    /** Hook invoked as time advances (set by trace::TraceManager). */
    using TraceHook = void (*)(trace::TraceManager *, Cycle now);

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Schedule @p cb at absolute cycle @p when (must be >= now()). */
    void
    schedule(Cycle when, Callback cb)
    {
        MAPLE_ASSERT(when >= now_, "scheduling into the past (%llu < %llu)",
                     (unsigned long long)when, (unsigned long long)now_);
        EventNode *n = allocNode();
        n->when = when;
        n->coro = nullptr;
        n->cb = std::move(cb);
        insert(n);
    }

    /** Schedule @p cb @p delta cycles from now. */
    void scheduleIn(Cycle delta, Callback cb) { schedule(now_ + delta, std::move(cb)); }

    /**
     * Schedule a coroutine resume at absolute cycle @p when. This is the
     * allocation-free fast path: no std::function is constructed, the pooled
     * node stores the raw handle.
     */
    void
    scheduleResume(Cycle when, std::coroutine_handle<> h)
    {
        MAPLE_ASSERT(when >= now_, "scheduling into the past (%llu < %llu)",
                     (unsigned long long)when, (unsigned long long)now_);
        EventNode *n = allocNode();
        n->when = when;
        n->coro = h;
        insert(n);
    }

    /** Schedule a coroutine resume @p delta cycles from now. */
    void scheduleResumeIn(Cycle delta, std::coroutine_handle<> h)
    {
        scheduleResume(now_ + delta, h);
    }

    /** Current simulated time. */
    Cycle now() const { return now_; }

    /** True when no events remain. */
    bool empty() const { return pending() == 0; }

    /** Number of pending events. */
    size_t pending() const { return wheel_count_ + overflow_.size(); }

    /**
     * Cycle of the earliest pending event, or kCycleMax when empty. A pure
     * peek: no cascade, no time advance. The sharded engine (sim/sharded.hpp)
     * uses it to skip idle gaps between bulk-synchronous quanta without
     * perturbing the queue.
     */
    Cycle
    nextEventCycle() const
    {
        Cycle next = kCycleMax;
        if (wheel_count_ > 0)
            next = buckets_[nextOccupiedBucket()].head->when;
        if (!overflow_.empty() && overflow_.front()->when < next)
            next = overflow_.front()->when;
        return next;
    }

    /** Total events executed so far (for microbenchmarks and stats). */
    std::uint64_t executed() const { return executed_; }

    /**
     * Monotonic ticket allocator, deterministic per run. Used by the memory
     * fabric to stamp MemRequest transaction ids; ids never influence
     * timing, only attribution.
     */
    std::uint64_t allocTicket() { return next_ticket_++; }

    /** Pending events parked in the far-future overflow heap (telemetry). */
    size_t overflowPending() const { return overflow_.size(); }

    /** Event nodes ever carved from the pool (bounded when recycling works). */
    size_t poolAllocated() const { return pool_allocated_; }

    /** Event nodes currently on the free list. */
    size_t
    poolFree() const
    {
        size_t n = 0;
        for (EventNode *f = free_; f; f = f->next)
            ++n;
        return n;
    }

    /**
     * Attach/detach the tracing subsystem. The tracer only observes: it is
     * invoked between the time advance and the event callback, never
     * schedules events, and therefore cannot perturb the simulation.
     */
    void
    attachTracer(trace::TraceManager *t, TraceHook hook)
    {
        tracer_ = t;
        trace_hook_ = t ? hook : nullptr;
    }

    void
    detachTracer()
    {
        tracer_ = nullptr;
        trace_hook_ = nullptr;
    }

    /** The attached tracer, or nullptr (the tracing-off fast path). */
    trace::TraceManager *tracer() const { return tracer_; }

    /**
     * Attach/detach the fault-injection & liveness subsystem. Like the
     * tracer, the injector is consulted by instrumentation sites through
     * this pointer (fault::active()); with none attached every site is a
     * single null-pointer check.
     */
    void attachFaultInjector(fault::FaultInjector *f) { fault_ = f; }
    void detachFaultInjector() { fault_ = nullptr; }

    /** The attached fault injector, or nullptr (the faults-off fast path). */
    fault::FaultInjector *faultInjector() const { return fault_; }

    /**
     * Record an exception that escaped a detached root coroutine (see
     * sim::spawnDetached). The first error wins; run()/runOne() rethrow it
     * as soon as the dispatching event returns, so a typed sim::FatalError
     * thrown inside a device-internal task surfaces to the harness instead
     * of hitting std::terminate in a detached frame.
     */
    void
    reportTaskError(std::exception_ptr e)
    {
        if (!task_error_)
            task_error_ = std::move(e);
    }

    /** Pending detached-task error, if any (cleared by the rethrow). */
    bool hasTaskError() const { return task_error_ != nullptr; }

    /**
     * Engine bookkeeping captured by snapshot/restore (src/ckpt). Only valid
     * at a quiesced point: with zero pending events there are no live wheel
     * buckets, overflow nodes or coroutine frames to serialize, so the
     * engine's whole restorable state is these four words.
     */
    struct EngineState {
        Cycle now = 0;
        std::uint64_t seq = 0;
        std::uint64_t executed = 0;
        std::uint64_t next_ticket = 1;

        template <class Ar>
        void
        state(Ar &ar)
        {
            ar.u64(now);
            ar.u64(seq);
            ar.u64(executed);
            ar.u64(next_ticket);
        }
    };

    EngineState
    engineState() const
    {
        MAPLE_ASSERT(pending() == 0,
                     "engineState() requires a quiesced event queue");
        return EngineState{now_, seq_, executed_, next_ticket_};
    }

    void
    setEngineState(const EngineState &st)
    {
        MAPLE_ASSERT(pending() == 0,
                     "setEngineState() requires a quiesced event queue");
        MAPLE_ASSERT(st.now >= now_, "restoring time backwards");
        now_ = st.now;
        seq_ = st.seq;
        executed_ = st.executed;
        next_ticket_ = st.next_ticket;
    }

    /**
     * Pop and execute the next event, advancing time.
     * @return false when the queue was empty.
     */
    bool
    runOne()
    {
        EventNode *n = popNext();
        if (!n)
            return false;
        dispatch(n);
        rethrowTaskError();
        return true;
    }

    /**
     * Run until the queue drains or simulated time would pass @p max_cycles.
     * @return true if the queue drained (simulation quiesced).
     *
     * On an early stop (pending events beyond the bound) now() advances to
     * @p max_cycles: the simulation observed the full interval and found
     * nothing left to do in it, so back-to-back run(t1), run(t2) calls see
     * continuous time. When the queue drains, now() stays at the cycle of
     * the last executed event.
     */
    bool
    run(Cycle max_cycles = kCycleMax)
    {
        for (;;) {
            cascade();
            if (wheel_count_ == 0) {
                if (overflow_.empty())
                    return true;
                // Wheel empty: fast-forward the window base to the nearest
                // far-future event so its cycle group can cascade.
                Cycle next = overflow_.front()->when;
                if (next > max_cycles) {
                    now_ = std::max(now_, max_cycles);
                    return false;
                }
                now_ = next;
                cascade();
            }
            size_t b = nextOccupiedBucket();
            EventNode *n = buckets_[b].head;
            if (n->when > max_cycles) {
                now_ = std::max(now_, max_cycles);
                return false;
            }
            popFromBucket(b);
            dispatch(n);
            rethrowTaskError();
        }
    }

  private:
    void
    rethrowTaskError()
    {
        if (task_error_) {
            std::exception_ptr e = std::exchange(task_error_, nullptr);
            std::rethrow_exception(e);
        }
    }

    static constexpr size_t kWheelMask = kWheelHorizon - 1;
    static constexpr size_t kBitmapWords = kWheelHorizon / 64;
    static constexpr size_t kPoolChunk = 256;
    static_assert((kWheelHorizon & kWheelMask) == 0, "wheel size: power of two");

    /**
     * Pooled intrusive event. Exactly one of {coro, cb} is set: resuming a
     * coroutine needs no type erasure, so the common co_await wakeup skips
     * std::function entirely.
     */
    struct EventNode {
        Cycle when = 0;
        std::uint64_t seq = 0;  ///< overflow-heap tie-breaker only
        EventNode *next = nullptr;
        std::coroutine_handle<> coro = nullptr;
        Callback cb;
    };

    /** Intrusive FIFO of same-cycle events. */
    struct Bucket {
        EventNode *head = nullptr;
        EventNode *tail = nullptr;
    };

    EventNode *
    allocNode()
    {
        if (EventNode *n = free_) {
            free_ = n->next;
            return n;
        }
        chunks_.push_back(std::make_unique<EventNode[]>(kPoolChunk));
        EventNode *chunk = chunks_.back().get();
        // Node 0 is returned; the rest seed the free list.
        for (size_t i = kPoolChunk - 1; i >= 1; --i) {
            chunk[i].next = free_;
            free_ = &chunk[i];
        }
        pool_allocated_ += kPoolChunk;
        return &chunk[0];
    }

    void
    freeNode(EventNode *n)
    {
        n->next = free_;
        free_ = n;
    }

    void
    insert(EventNode *n)
    {
        if (n->when - now_ < kWheelHorizon) {
            size_t b = n->when & kWheelMask;
            n->next = nullptr;
            Bucket &bk = buckets_[b];
            if (bk.tail)
                bk.tail->next = n;
            else
                bk.head = n;
            bk.tail = n;
            occupied_[b >> 6] |= 1ull << (b & 63);
            ++wheel_count_;
        } else {
            n->seq = seq_++;
            overflow_.push_back(n);
            std::push_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
        }
    }

    struct OverflowLater {
        bool
        operator()(const EventNode *a, const EventNode *b) const
        {
            if (a->when != b->when)
                return a->when > b->when;
            return a->seq > b->seq;
        }
    };

    /**
     * Move overflow events whose cycle entered the wheel window into their
     * buckets. Each cycle's group is spliced in front of the bucket: every
     * overflow event for a cycle predates every direct wheel event for it
     * (see file comment), so prepending restores global insertion order.
     */
    void
    cascade()
    {
        while (!overflow_.empty() && overflow_.front()->when - now_ < kWheelHorizon) {
            const Cycle c = overflow_.front()->when;
            EventNode *head = nullptr, *tail = nullptr;
            do {
                std::pop_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
                EventNode *n = overflow_.back();
                overflow_.pop_back();
                if (tail)
                    tail->next = n;
                else
                    head = n;
                tail = n;
                ++wheel_count_;
            } while (!overflow_.empty() && overflow_.front()->when == c);
            size_t b = c & kWheelMask;
            Bucket &bk = buckets_[b];
            tail->next = bk.head;
            bk.head = head;
            if (!bk.tail)
                bk.tail = tail;
            occupied_[b >> 6] |= 1ull << (b & 63);
        }
    }

    /** Next event: cascade, fast-forward an empty wheel, pop the bucket head. */
    EventNode *
    popNext()
    {
        cascade();
        if (wheel_count_ == 0) {
            if (overflow_.empty())
                return nullptr;
            now_ = overflow_.front()->when;
            cascade();
        }
        size_t b = nextOccupiedBucket();
        EventNode *n = buckets_[b].head;
        popFromBucket(b);
        return n;
    }

    /**
     * Index of the bucket holding the earliest pending wheel event. Scans the
     * occupancy bitmap circularly starting at now's own slot; because every
     * wheel event lies within [now, now + horizon), bucket distance from the
     * current slot equals time distance.
     */
    size_t
    nextOccupiedBucket() const
    {
        const size_t p = now_ & kWheelMask;
        size_t w = p >> 6;
        std::uint64_t word = occupied_[w] & (~0ull << (p & 63));
        for (;;) {
            if (word)
                return (w << 6) + static_cast<size_t>(std::countr_zero(word));
            w = (w + 1) & (kBitmapWords - 1);
            word = occupied_[w];
        }
    }

    void
    popFromBucket(size_t b)
    {
        Bucket &bk = buckets_[b];
        EventNode *n = bk.head;
        bk.head = n->next;
        if (!bk.head) {
            bk.tail = nullptr;
            occupied_[b >> 6] &= ~(1ull << (b & 63));
        }
        --wheel_count_;
    }

    /**
     * Advance time to the event, notify the tracer, recycle the node, run.
     * The node is released *before* the callback/coroutine executes, so work
     * it schedules may reuse it — and a callback scheduling into the queue
     * during dispatch never touches a container mid-mutation.
     */
    void
    dispatch(EventNode *n)
    {
        MAPLE_ASSERT(n->when >= now_);
        now_ = n->when;
        ++executed_;
        // Sample probes before the callback runs: between events the machine
        // state is constant, so probes read the exact state at each sampling
        // point inside the gap just crossed.
        if (trace_hook_)
            trace_hook_(tracer_, now_);
        if (n->coro) {
            std::coroutine_handle<> h = n->coro;
            n->coro = nullptr;
            freeNode(n);
            h.resume();
        } else {
            Callback cb = std::move(n->cb);
            n->cb = nullptr;
            freeNode(n);
            cb();
        }
    }

    Bucket buckets_[kWheelHorizon];
    std::uint64_t occupied_[kBitmapWords] = {};
    size_t wheel_count_ = 0;
    std::vector<EventNode *> overflow_;

    std::vector<std::unique_ptr<EventNode[]>> chunks_;
    EventNode *free_ = nullptr;
    size_t pool_allocated_ = 0;

    Cycle now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t next_ticket_ = 1;
    trace::TraceManager *tracer_ = nullptr;
    TraceHook trace_hook_ = nullptr;
    fault::FaultInjector *fault_ = nullptr;
    std::exception_ptr task_error_;
};

}  // namespace maple::sim
