#include "host_speed.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <ctime>
#include <stdexcept>
#include <string>

#include <pthread.h>
#include <unistd.h>

#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

namespace maple::perfbench::host_speed {

namespace {

constexpr long kPeriodNs = 20'000'000;  ///< one sample per 20 ms
constexpr int kEvents = 30'000;         ///< ~1.5 ms on the defining host
constexpr std::uint32_t kTableSize = 1u << 16;
constexpr std::size_t kMaxSamples = 1u << 16;

// Everything the timer handler touches is static and lock-free, so the
// handler is async-signal-safe: no allocation, no locks, clock_gettime.
std::uint64_t g_table[kTableSize];
double g_rates[kMaxSamples];
std::atomic<std::size_t> g_count{0};
std::atomic<std::uint64_t> g_busy_ns{0};
std::atomic<std::uint64_t> g_sink{0};
timer_t g_timer;
bool g_running = false;

static_assert(std::atomic<std::size_t>::is_always_lock_free &&
              std::atomic<std::uint64_t>::is_always_lock_free);

std::uint64_t
nowNs()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return std::uint64_t(ts.tv_sec) * 1'000'000'000u + std::uint64_t(ts.tv_nsec);
}

struct Ev {
    std::uint64_t t;
    std::uint32_t fn;
};

bool
later(const Ev &a, const Ev &b)
{
    return a.t > b.t;
}

using Handler = void (*)(std::uint64_t t, std::uint64_t &acc);

template <std::uint32_t K>
void
visit(std::uint64_t t, std::uint64_t &acc)
{
    std::uint64_t &s = g_table[std::uint32_t(t * 2654435761u) & (kTableSize - 1)];
    s += t ^ K;
    acc += s;
}

constexpr Handler kHandlers[8] = {visit<0>, visit<1>, visit<2>, visit<3>,
                                  visit<4>, visit<5>, visit<6>, visit<7>};

/** The fixed kernel: kEvents timestamped events popped from a heap and
 *  dispatched through a table. Returns its host nanoseconds. */
std::uint64_t
kernelNs()
{
    const std::uint64_t t0 = nowNs();
    Ev heap[64];
    for (std::uint32_t k = 0; k < 64; ++k)
        heap[k] = {k, k};
    std::make_heap(heap, heap + 64, later);
    std::uint64_t acc = 0;
    for (int i = 0; i < kEvents; ++i) {
        std::pop_heap(heap, heap + 64, later);
        Ev &e = heap[63];
        kHandlers[e.fn & 7](e.t, acc);
        e.t += 1 + (acc & 7);
        std::push_heap(heap, heap + 64, later);
    }
    g_sink.fetch_add(acc, std::memory_order_relaxed);  // keeps the loop live
    return nowNs() - t0;
}

/** Only ever runs on one thread at a time: in the timer handler, or on the
 *  sampling thread with the timer signal blocked. */
void
sample()
{
    const std::uint64_t ns = kernelNs();
    const std::size_t i = g_count.load(std::memory_order_relaxed);
    if (i < kMaxSamples)
        g_rates[i] = kEvents / (double(ns) * 1e-9);
    g_busy_ns.fetch_add(ns, std::memory_order_relaxed);
    g_count.store(std::min(i + 1, kMaxSamples), std::memory_order_release);
}

void
onTimer(int)
{
    const int saved = errno;
    sample();
    errno = saved;
}

void
check(bool ok, const char *what)
{
    if (!ok)
        throw std::runtime_error(std::string("host_speed: ") + what +
                                 " failed");
}

}  // namespace

void
start()
{
    if (g_running)
        return;
    kernelNs();  // first touch of the table, not recorded
    struct sigaction sa = {};
    sa.sa_handler = onTimer;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    check(sigaction(SIGALRM, &sa, nullptr) == 0, "sigaction");
    // Deliver to this thread only, so the samples run where the benchmark
    // runs, never on a simulator worker thread.
    struct sigevent sev = {};
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGALRM;
    sev.sigev_notify_thread_id = gettid();
    check(timer_create(CLOCK_MONOTONIC, &sev, &g_timer) == 0, "timer_create");
    struct itimerspec its = {};
    its.it_value.tv_nsec = kPeriodNs;
    its.it_interval.tv_nsec = kPeriodNs;
    check(timer_settime(g_timer, 0, &its, nullptr) == 0, "timer_settime");
    g_running = true;
}

void
stop()
{
    if (!g_running)
        return;
    timer_delete(g_timer);
    g_running = false;
}

std::size_t
count()
{
    return g_count.load(std::memory_order_acquire);
}

double
meanRateSince(std::size_t from)
{
    if (count() <= from) {
        sigset_t alarm, old;
        sigemptyset(&alarm);
        sigaddset(&alarm, SIGALRM);
        pthread_sigmask(SIG_BLOCK, &alarm, &old);
        sample();
        pthread_sigmask(SIG_SETMASK, &old, nullptr);
    }
    const std::size_t to = std::min(count(), kMaxSamples);
    double sum = 0;
    for (std::size_t i = from; i < to; ++i)
        sum += g_rates[i];
    return to > from ? sum / double(to - from) : 0.0;
}

std::uint64_t
busyNs()
{
    return g_busy_ns.load(std::memory_order_acquire);
}

}  // namespace maple::perfbench::host_speed
