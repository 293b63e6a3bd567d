/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering, coroutine
 * tasks, futures, delays, barriers, stats.
 */
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <new>
#include <numeric>
#include <sstream>
#include <thread>

#include "ckpt/serial.hpp"
#include "sim/coro.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"

using namespace maple::sim;

namespace {

// Global allocation counts for the frame-pool tests. Under AddressSanitizer
// frames bypass the pool and ASan's own operator new must stay in place, so
// the counting replacement below is left out and pool-specific checks skip.
constexpr bool kPooled = detail::FramePool::kEnabled;
std::atomic<std::uint64_t> g_news{0};
std::atomic<std::uint64_t> g_deletes{0};

}  // namespace

#ifndef __SANITIZE_ADDRESS__
namespace {

void
countedFree(void *p) noexcept
{
    if (p)
        g_deletes.fetch_add(1, std::memory_order_relaxed);
    std::free(p);
}

}  // namespace

void *
operator new(std::size_t n)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    countedFree(p);
}
#endif

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(2); });
    eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(3); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 20u);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(7, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.scheduleIn(4, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [&] {
        EXPECT_THROW(eq.schedule(5, [] {}), std::logic_error);
    });
    eq.run();
}

TEST(EventQueue, RunRespectsMaxCycles)
{
    EventQueue eq;
    bool fired = false;
    eq.schedule(100, [&] { fired = true; });
    EXPECT_FALSE(eq.run(50));
    EXPECT_FALSE(fired);
    EXPECT_TRUE(eq.run());
    EXPECT_TRUE(fired);
}

TEST(EventQueue, EarlyStopAdvancesTimeToMaxCycles)
{
    // Pinned semantics: run(t) that stops early leaves now() == t, so
    // back-to-back run(t1), run(t2) calls observe continuous time. Draining
    // leaves now() at the last executed event; an empty run is a no-op.
    EventQueue eq;
    EXPECT_TRUE(eq.run(10));
    EXPECT_EQ(eq.now(), 0u);  // nothing to do: time does not move
    eq.schedule(100, [] {});
    EXPECT_FALSE(eq.run(50));
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_FALSE(eq.run(70));
    EXPECT_EQ(eq.now(), 70u);
    EXPECT_TRUE(eq.run(100));
    EXPECT_EQ(eq.now(), 100u);  // drained: rests at the last event
    EXPECT_TRUE(eq.run(500));
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, FarFutureEventsOverflowTheWheel)
{
    EventQueue eq;
    std::vector<int> order;
    const Cycle h = EventQueue::kWheelHorizon;
    eq.schedule(3 * h + 5, [&] { order.push_back(4); });
    eq.schedule(h + 1, [&] { order.push_back(2); });
    eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(2 * h, [&] { order.push_back(3); });
    EXPECT_GE(eq.overflowPending(), 3u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(eq.now(), 3 * h + 5);
}

TEST(EventQueue, NextEventCyclePeeksWheelAndOverflow)
{
    // The sharded engine sizes its BSP windows off this peek; it must see
    // the true minimum whether the head event sits in the wheel or parked
    // in the overflow heap, without advancing anything.
    EventQueue eq;
    EXPECT_EQ(eq.nextEventCycle(), kCycleMax);

    const Cycle h = EventQueue::kWheelHorizon;
    eq.schedule(2 * h + 7, [] {});  // overflow only
    EXPECT_EQ(eq.nextEventCycle(), 2 * h + 7);
    eq.schedule(40, [] {});  // now the wheel holds the minimum
    EXPECT_EQ(eq.nextEventCycle(), 40u);
    EXPECT_EQ(eq.now(), 0u) << "peeking must not advance time";

    EXPECT_FALSE(eq.run(100));
    EXPECT_EQ(eq.nextEventCycle(), 2 * h + 7);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(eq.nextEventCycle(), kCycleMax);
}

TEST(EventQueue, ChunkedRunsMatchOneShotRun)
{
    // The engine drives queues in quantum-sized chunks; a chunked run must
    // execute the identical sequence as a single run().
    auto seed = [](EventQueue &eq, std::vector<Cycle> &fired) {
        for (Cycle c : {3u, 70u, 70u, 2'000u, 90'000u})
            eq.schedule(c, [&] { fired.push_back(eq.now()); });
        eq.schedule(10, [&eq, &fired] {
            eq.scheduleIn(55, [&] { fired.push_back(eq.now()); });
        });
    };
    EventQueue once;
    std::vector<Cycle> once_fired;
    seed(once, once_fired);
    EXPECT_TRUE(once.run());

    EventQueue chunked;
    std::vector<Cycle> chunked_fired;
    seed(chunked, chunked_fired);
    Cycle bound = 0;
    while (chunked.nextEventCycle() != kCycleMax) {
        bound = chunked.nextEventCycle() + 64;
        chunked.run(bound);
    }
    EXPECT_EQ(chunked_fired, once_fired);
    EXPECT_EQ(chunked.executed(), once.executed());
}

TEST(EventQueue, OverflowAndDirectSameCycleKeepFifo)
{
    // An event parked in the overflow heap was scheduled strictly earlier
    // than any direct wheel event for the same cycle, so it must run first
    // once its cycle enters the wheel window.
    EventQueue eq;
    const Cycle h = EventQueue::kWheelHorizon;
    const Cycle target = 2 * h;
    std::vector<int> order;
    eq.schedule(target, [&] { order.push_back(1); });  // beyond horizon
    eq.schedule(target, [&] { order.push_back(2); });
    // Walk time to within the horizon of `target`, then schedule directly.
    eq.schedule(target - h / 2, [&] {
        eq.schedule(target, [&] { order.push_back(3); });
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, WheelBucketsAreReusedAcrossWindows)
{
    // Cycles c and c + horizon share a bucket index; the second only enters
    // the wheel after the first drained, and both run in time order.
    EventQueue eq;
    const Cycle h = EventQueue::kWheelHorizon;
    std::vector<Cycle> fired;
    for (Cycle c : {Cycle(7), 7 + h, 7 + 2 * h, 7 + h / 2})
        eq.schedule(c, [&fired, &eq] { fired.push_back(eq.now()); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, (std::vector<Cycle>{7, 7 + h / 2, 7 + h, 7 + 2 * h}));
}

TEST(EventQueue, SchedulingDuringDispatchIsSafe)
{
    // Regression for the old kernel's const_cast move-out of heap_.top():
    // callbacks that schedule into the queue mid-dispatch (including enough
    // events to grow the node pool) must not invalidate the event being run.
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        for (int i = 0; i < 1000; ++i)
            eq.scheduleIn(1 + (i % 3), [&fired] { ++fired; });
        eq.scheduleIn(2 * EventQueue::kWheelHorizon, [&fired] { ++fired; });
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 1002);
    EXPECT_EQ(eq.executed(), 1002u);
}

TEST(EventQueue, ExecutedAndPendingStayConsistent)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.executed(), 0u);
    for (int i = 0; i < 10; ++i)
        eq.schedule(i + 1, [] {});
    eq.schedule(5 * EventQueue::kWheelHorizon, [] {});
    EXPECT_EQ(eq.pending(), 11u);
    EXPECT_TRUE(eq.runOne());
    EXPECT_EQ(eq.executed(), 1u);
    EXPECT_EQ(eq.pending(), 10u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(eq.executed(), 11u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.runOne());
    EXPECT_EQ(eq.executed(), 11u);
}

TEST(EventQueue, PoolRecyclesNodesUnderChurn)
{
    // A bounded number of in-flight events must not grow the pool without
    // bound, no matter how many events pass through in total.
    EventQueue eq;
    std::uint64_t fired = 0;
    constexpr std::uint64_t kTotal = 100'000;
    constexpr int kChains = 32;
    std::vector<std::function<void()>> chains(kChains);
    for (int i = 0; i < kChains; ++i) {
        chains[i] = [&eq, &fired, &chains, i] {
            if (++fired < kTotal)
                eq.scheduleIn(1 + (fired % (2 * EventQueue::kWheelHorizon)),
                              chains[i]);  // spans wheel and overflow deltas
        };
    }
    for (int i = 0; i < kChains; ++i)
        eq.scheduleIn(1 + i, chains[i]);
    EXPECT_TRUE(eq.run());
    // Once `fired` hits kTotal each chain stops; the other chains' in-flight
    // events still execute, so the total lands in [kTotal, kTotal + kChains).
    EXPECT_GE(eq.executed(), kTotal);
    EXPECT_LT(eq.executed(), kTotal + kChains);
    // At most kChains events were ever pending: one pool chunk suffices.
    EXPECT_LE(eq.poolAllocated(), 512u);
    EXPECT_EQ(eq.poolFree(), eq.poolAllocated());  // everything recycled
}

TEST(EventQueue, MatchesReferenceModelOnRandomStorm)
{
    // Determinism oracle: replay an identical random schedule storm through
    // the wheel kernel and a naive stable-sorted reference; the execution
    // order (event ids) must match exactly, including same-cycle ties that
    // straddle the wheel/overflow boundary.
    struct Ref {
        struct Ev {
            Cycle when;
            std::uint64_t seq;
            int id;
        };
        std::vector<Ev> pending;
        Cycle now = 0;
        std::uint64_t seq = 0;

        void
        schedule(Cycle when, int id)
        {
            pending.push_back({when, seq++, id});
        }

        bool
        popNext(Ev &out)
        {
            if (pending.empty())
                return false;
            size_t best = 0;
            for (size_t i = 1; i < pending.size(); ++i) {
                const Ev &a = pending[i], &b = pending[best];
                if (a.when < b.when || (a.when == b.when && a.seq < b.seq))
                    best = i;
            }
            out = pending[best];
            pending.erase(pending.begin() + best);
            now = out.when;
            return true;
        }
    };

    // Deterministic stimulus: each executed event decides its children from
    // an Rng stream keyed by its id, so both executions branch identically.
    auto childDeltas = [](int id) {
        Rng rng(0xabcd1234u + static_cast<std::uint64_t>(id));
        std::vector<Cycle> deltas;
        if (id < 4000) {
            unsigned n = static_cast<unsigned>(rng.below(3));
            for (unsigned i = 0; i < n; ++i)
                deltas.push_back(rng.below(3 * EventQueue::kWheelHorizon));
        }
        return deltas;
    };

    std::vector<int> real_order;
    {
        EventQueue eq;
        int next_id = 64;
        std::function<void(int)> body = [&](int id) {
            real_order.push_back(id);
            for (Cycle d : childDeltas(id)) {
                int child = next_id++;
                eq.scheduleIn(d, [&body, child] { body(child); });
            }
        };
        for (int i = 0; i < 64; ++i)
            eq.schedule(static_cast<Cycle>(i % 7), [&body, i] { body(i); });
        EXPECT_TRUE(eq.run());
    }

    std::vector<int> ref_order;
    {
        Ref ref;
        int next_id = 64;
        for (int i = 0; i < 64; ++i)
            ref.schedule(static_cast<Cycle>(i % 7), i);
        Ref::Ev ev;
        while (ref.popNext(ev)) {
            ref_order.push_back(ev.id);
            for (Cycle d : childDeltas(ev.id))
                ref.schedule(ref.now + d, next_id++);
        }
    }

    ASSERT_EQ(real_order.size(), ref_order.size());
    EXPECT_EQ(real_order, ref_order);
}

namespace {

Task<int>
addLater(EventQueue &eq, int a, int b)
{
    co_await delay(eq, 10);
    co_return a + b;
}

Task<void>
outer(EventQueue &eq, int *result)
{
    int x = co_await addLater(eq, 2, 3);
    int y = co_await addLater(eq, x, 10);
    *result = y;
}

}  // namespace

TEST(Coro, NestedTasksPropagateValues)
{
    EventQueue eq;
    int result = 0;
    Join j = spawn(outer(eq, &result));
    eq.run();
    ASSERT_TRUE(j.done());
    j.get();
    EXPECT_EQ(result, 15);
    EXPECT_EQ(eq.now(), 20u);
}

TEST(Coro, ExceptionsSurfaceThroughJoin)
{
    EventQueue eq;
    auto thrower = [](EventQueue &q) -> Task<void> {
        co_await delay(q, 1);
        throw std::runtime_error("boom");
    };
    Join j = spawn(thrower(eq));
    eq.run();
    ASSERT_TRUE(j.done());
    EXPECT_THROW(j.get(), std::runtime_error);
}

TEST(Coro, FutureFulfilledBeforeAwait)
{
    EventQueue eq;
    Future<int> f;
    f.set(42);
    int got = 0;
    auto waiter = [&]() -> Task<void> { got = co_await f; };
    Join j = spawn(waiter());
    eq.run();
    j.get();
    EXPECT_EQ(got, 42);
}

TEST(Coro, FutureResumesMultipleWaitersFifo)
{
    EventQueue eq;
    Future<int> f;
    std::vector<int> order;
    auto waiter = [&](int id) -> Task<void> {
        int v = co_await f;
        order.push_back(id * 100 + v);
    };
    Join j1 = spawn(waiter(1));
    Join j2 = spawn(waiter(2));
    Join j3 = spawn(waiter(3));
    eq.schedule(5, [&] { f.set(7); });
    eq.run();
    j1.get();
    j2.get();
    j3.get();
    EXPECT_EQ(order, (std::vector<int>{107, 207, 307}));
}

TEST(Coro, FutureDoubleSetPanics)
{
    Future<int> f;
    f.set(1);
    EXPECT_THROW(f.set(2), std::logic_error);
}

TEST(Coro, ZeroDelayDoesNotSuspend)
{
    EventQueue eq;
    bool done = false;
    auto t = [&]() -> Task<void> {
        co_await delay(eq, 0);
        done = true;
    };
    spawn(t());
    // No events needed: the task completed synchronously at spawn.
    EXPECT_TRUE(done);
}

namespace {

Task<int>
poolLeaf(EventQueue &eq, int v)
{
    co_await delay(eq, 1);
    co_return v;
}

Task<int>
poolMid(EventQueue &eq, int v)
{
    int x = co_await poolLeaf(eq, v);
    co_await delay(eq, 1);
    co_return x + 1;
}

Task<void>
poolLoop(EventQueue &eq, int iters, std::uint64_t *sum)
{
    for (int i = 0; i < iters; ++i)
        *sum += co_await poolMid(eq, i);
}

Task<int>
poolValue(int v)
{
    co_return 2 * v;
}

Task<void>
addTo(Task<int> t, std::uint64_t *sum)
{
    *sum += co_await std::move(t);
}

/** Keeps 2 KiB live across a suspension: a frame above every size class. */
Task<std::uint64_t>
bigFrame(EventQueue &eq, std::uint64_t seed)
{
    std::array<std::uint64_t, 256> buf{};
    std::iota(buf.begin(), buf.end(), seed);
    co_await delay(eq, 1);
    co_return std::accumulate(buf.begin(), buf.end(), std::uint64_t{0});
}

Task<void>
storeBig(EventQueue &eq, std::uint64_t seed, std::uint64_t *out)
{
    *out = co_await bigFrame(eq, seed);
}

}  // namespace

TEST(FramePool, WarmNestedDelayLoopMakesNoGlobalNew)
{
    if (!kPooled) {
        GTEST_SKIP() << "AddressSanitizer build: frames bypass the pool";
    }
    EventQueue eq;
    std::uint64_t sum = 0;
    Join warm = spawn(poolLoop(eq, 4, &sum));
    eq.run();
    warm.get();

    sum = 0;
    Join j = spawn(poolLoop(eq, 1000, &sum));
    std::uint64_t before = g_news.load();
    eq.run();
    std::uint64_t news = g_news.load() - before;
    j.get();
    EXPECT_EQ(sum, 1000u * 1001u / 2);
    // 2000 nested frames and 2000 delays, all recycled.
    EXPECT_EQ(news, 0u);
}

TEST(FramePool, FrameFreedOnAnotherThreadJoinsThatThreadsList)
{
    constexpr int kTasks = 512;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Task<int>> handoff;

    // Frames are allocated on the producer and run/destroyed on the
    // consumer while the producer keeps allocating.
    std::thread producer([&] {
        for (int i = 0; i < kTasks; ++i) {
            Task<int> t = poolValue(i);
            {
                std::lock_guard<std::mutex> lk(mu);
                handoff.push_back(std::move(t));
            }
            cv.notify_one();
        }
    });
    std::uint64_t sum = 0;
    int reused = 0;
    std::thread consumer([&] {
        for (int i = 0; i < kTasks; ++i) {
            Task<int> t;
            {
                std::unique_lock<std::mutex> lk(mu);
                cv.wait(lk, [&] { return !handoff.empty(); });
                t = std::move(handoff.front());
                handoff.pop_front();
            }
            if (i % 2 == 0) {
                spawn(addTo(std::move(t), &sum)).get();
                continue;
            }
            auto h = t.release();
            void *freed = h.address();
            h.destroy();
            auto again = poolValue(i).release();
            reused += again.address() == freed;
            again.destroy();
        }
    });
    producer.join();
    consumer.join();
    EXPECT_EQ(sum, std::uint64_t{kTasks / 2} * (kTasks - 2));  // 2 * sum of evens
    if (kPooled) {
        EXPECT_EQ(reused, kTasks / 2);
    }
}

TEST(FramePool, ExitingThreadReleasesItsCachedBlocks)
{
    if (!kPooled) {
        GTEST_SKIP() << "AddressSanitizer build: frames bypass the pool";
    }
    constexpr std::uint64_t kFrames = 16;
    std::uint64_t deletes_before_exit = 0;
    std::thread t([&] {
        std::vector<Task<int>> live;
        live.reserve(kFrames);
        for (std::uint64_t i = 0; i < kFrames; ++i)
            live.push_back(poolValue(static_cast<int>(i)));
        live.clear();  // every frame is now cached on this thread
        deletes_before_exit = g_deletes.load();
    });
    t.join();
    // Thread exit hands the 16 cached blocks back to ::operator delete
    // (LeakSanitizer builds would otherwise report them).
    EXPECT_GE(g_deletes.load() - deletes_before_exit, kFrames);
}

TEST(FramePool, FrameAboveTheLargestClassRoundTrips)
{
    EventQueue eq;
    std::uint64_t small_news = 0, big_news = 0;
    for (std::uint64_t rep = 0; rep < 3; ++rep) {
        std::uint64_t sum = 0;
        std::uint64_t before = g_news.load();
        Join small = spawn(poolLoop(eq, 1, &sum));
        eq.run();
        small.get();
        small_news = g_news.load() - before;

        std::uint64_t got = 0;
        before = g_news.load();
        Join big = spawn(storeBig(eq, rep, &got));
        eq.run();
        big.get();
        big_news = g_news.load() - before;
        EXPECT_EQ(got, 256 * rep + 255 * 256 / 2);
    }
    // After warm-up a spawn pays only for its Join state: the Detached
    // wrapper and every Task frame up to 1 KiB are pooled, while the big
    // frame goes to ::operator new on every run.
    if (kPooled) {
        EXPECT_EQ(small_news, 1u);
        EXPECT_EQ(big_news, 2u);
    }
}

TEST(Barrier, ReleasesAllPartiesTogether)
{
    EventQueue eq;
    Barrier bar(3);
    std::vector<Cycle> release_times;
    auto party = [&](Cycle arrive_at) -> Task<void> {
        co_await delay(eq, arrive_at);
        co_await bar.wait();
        release_times.push_back(eq.now());
    };
    std::vector<Join> joins;
    joins.push_back(spawn(party(5)));
    joins.push_back(spawn(party(17)));
    joins.push_back(spawn(party(11)));
    eq.run();
    for (auto &j : joins)
        j.get();
    ASSERT_EQ(release_times.size(), 3u);
    for (Cycle t : release_times)
        EXPECT_EQ(t, 17u);  // all release when the last party arrives
}

TEST(Barrier, IsReusableAcrossGenerations)
{
    EventQueue eq;
    Barrier bar(2);
    int rounds_a = 0, rounds_b = 0;
    auto party = [&](int *rounds, Cycle step) -> Task<void> {
        for (int r = 0; r < 5; ++r) {
            co_await delay(eq, step);
            co_await bar.wait();
            ++*rounds;
        }
    };
    Join a = spawn(party(&rounds_a, 3));
    Join b = spawn(party(&rounds_b, 9));
    eq.run();
    a.get();
    b.get();
    EXPECT_EQ(rounds_a, 5);
    EXPECT_EQ(rounds_b, 5);
}

TEST(Stats, GeomeanMatchesHandComputation)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(geomean({1.5, 2.0, 3.0}), std::cbrt(9.0), 1e-12);
    EXPECT_THROW(geomean({}), std::logic_error);
    EXPECT_THROW(geomean({1.0, -2.0}), std::logic_error);
}

TEST(Stats, HistogramPercentilesInterpolateWithinBucket)
{
    Histogram h(1.0, 16);
    for (int i = 0; i < 100; ++i)
        h.sample(i % 10);
    EXPECT_EQ(h.total(), 100u);
    // 10 samples per bucket: rank 5 lands halfway into bucket 0, rank 95
    // halfway into bucket 9 -- not at the buckets' lower edges.
    EXPECT_DOUBLE_EQ(h.percentile(0.05), 0.5);
    EXPECT_DOUBLE_EQ(h.percentile(0.95), 9.5);
    EXPECT_DOUBLE_EQ(h.percentile(0.50), 5.0);
    // p == 1.0 reports the largest observed sample.
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 9.0);
}

TEST(Stats, AverageTracksMinAndMax)
{
    Average a;
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
    a.sample(5.0);
    a.sample(-2.0);
    a.sample(11.0);
    EXPECT_DOUBLE_EQ(a.min(), -2.0);
    EXPECT_DOUBLE_EQ(a.max(), 11.0);
    a.reset();
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(Stats, StatGroupDumpsHistogramPercentiles)
{
    StatGroup g("grp");
    Histogram &h = g.histogram("lat", 2.0, 32);
    for (int i = 0; i < 10; ++i)
        h.sample(2.0 * i);
    // Same name returns the same histogram; geometry args are ignored.
    EXPECT_EQ(&g.histogram("lat", 99.0, 1), &h);
    std::string dump = g.dump();
    EXPECT_NE(dump.find("grp.lat"), std::string::npos);
    EXPECT_NE(dump.find("p50:"), std::string::npos);
    EXPECT_NE(dump.find("p95:"), std::string::npos);
    EXPECT_NE(dump.find("p99:"), std::string::npos);
    g.reset();
    EXPECT_EQ(g.histogram("lat").total(), 0u);
}

TEST(Stats, HandlesBindOnFirstUseAndSurviveLoadState)
{
    StatGroup g("grp");
    CounterHandle hits(g, "hits");
    CounterHandle misses(g, "misses");
    HistogramHandle lat(g, "lat", 4.0, 8);
    // No entry before the first increment: dumps, stats JSON and snapshot
    // images list exactly the counters that were touched.
    EXPECT_TRUE(g.counters().empty());
    EXPECT_TRUE(g.histograms().empty());

    hits.inc();
    hits.inc(4);
    lat.sample(9.0);
    EXPECT_EQ(g.counters().size(), 1u);
    EXPECT_EQ(g.counterValue("hits"), 5u);
    EXPECT_EQ(g.histogram("lat").total(), 1u);
    EXPECT_EQ(g.histogram("lat").buckets().size(), 8u);

    StatGroup other("grp");
    other.counter("hits").inc(20);
    other.counter("misses").inc(7);
    std::stringstream img;
    maple::ckpt::Sink out(img);
    other.saveState(out);

    maple::ckpt::Source in(img);
    g.loadState(in);
    hits.inc();    // bound before the restore: same entry, new value
    misses.inc();  // unbound: binds to the entry the restore created
    lat.sample(1.0);
    EXPECT_EQ(g.counterValue("hits"), 21u);
    EXPECT_EQ(g.counterValue("misses"), 8u);
    EXPECT_EQ(g.histogram("lat").total(), 2u);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123), c(124);
    bool all_equal = true, any_diff_seed_diff = false;
    for (int i = 0; i < 1000; ++i) {
        auto va = a.next(), vb = b.next(), vc = c.next();
        all_equal &= (va == vb);
        any_diff_seed_diff |= (va != vc);
    }
    EXPECT_TRUE(all_equal);
    EXPECT_TRUE(any_diff_seed_diff);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(r.below(37), 37u);
}

TEST(Rng, UniformCoversUnitInterval)
{
    Rng r(99);
    double mn = 1.0, mx = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        mn = std::min(mn, u);
        mx = std::max(mx, u);
    }
    EXPECT_LT(mn, 0.01);
    EXPECT_GT(mx, 0.99);
}
