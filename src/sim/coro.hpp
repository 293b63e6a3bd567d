/**
 * @file
 * Tiny C++20 coroutine toolkit used to express simulated software.
 *
 * Simulated threads are coroutines that co_await on hardware: awaiting a
 * memory access suspends the coroutine until the corresponding response event
 * fires in the EventQueue. This keeps workloads readable (straight-line code)
 * while the simulation stays event-driven and deterministic.
 *
 *  - Task<T>:   lazily-started coroutine, awaitable, symmetric transfer.
 *  - Future<T>: externally-fulfilled completion (one waiter).
 *  - delay():   awaitable that costs simulated cycles.
 *  - spawn():   runs a Task<> to completion as a root, returns a Join.
 *
 * Every coroutine frame comes from detail::FramePool, so the nested tasks
 * each simulated access creates and destroys recycle without reaching
 * malloc.
 */
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/log.hpp"
#include "sim/types.hpp"

namespace maple::sim {

template <typename T = void>
class Task;

namespace detail {

/**
 * Allocator for coroutine frames: per-thread free lists in 64 B size
 * classes up to 1 KiB; larger frames go straight to ::operator new. A frame
 * freed on another thread than the one that allocated it joins the freeing
 * thread's list (the sharded engine moves domains between workers), and a
 * thread's cached blocks are returned to ::operator delete when it exits.
 * Under AddressSanitizer every frame is forwarded to ::operator new/delete,
 * so the quarantine still catches a resumed-after-destroy frame.
 */
class FramePool {
  public:
    static constexpr std::size_t kGranule = 64;
    static constexpr std::size_t kMaxPooled = 1024;
#ifdef __SANITIZE_ADDRESS__
    static constexpr bool kEnabled = false;
#else
    static constexpr bool kEnabled = true;
#endif

    static void *
    allocate(std::size_t n)
    {
        if (kEnabled && n <= kMaxPooled) {
            std::size_t c = classOf(n);
            if (Block *b = lists_.head[c]) {
                lists_.head[c] = b->next;
                return b;
            }
            return ::operator new((c + 1) * kGranule);
        }
        return ::operator new(n);
    }

    static void
    release(void *p, std::size_t n) noexcept
    {
        if (kEnabled && n <= kMaxPooled && lists_.state != State::Closed) {
            if (lists_.state == State::Unarmed)
                arm();
            auto *b = static_cast<Block *>(p);
            std::size_t c = classOf(n);
            b->next = lists_.head[c];
            lists_.head[c] = b;
            return;
        }
        ::operator delete(p);
    }

  private:
    struct Block {
        Block *next;
    };

    /** Unarmed: no exit hook yet. Closed: the thread is exiting and its
     *  lists were drained, so later frees bypass the pool. */
    enum class State : std::uint8_t { Unarmed, Armed, Closed };

    /** Trivially destructible, so it stays usable after the thread's exit
     *  hook ran (a frame can still die in a later thread_local or static
     *  destructor). */
    struct Lists {
        Block *head[kMaxPooled / kGranule];
        State state;
    };

    /** Returns the thread's cached blocks when the thread exits. */
    struct Reaper {
        Reaper() = default;
        Reaper(const Reaper &) = delete;
        Reaper &operator=(const Reaper &) = delete;

        ~Reaper()
        {
            for (Block *&head : lists_.head) {
                while (Block *b = head) {
                    head = b->next;
                    ::operator delete(b);
                }
            }
            lists_.state = State::Closed;
        }
    };

    static constexpr std::size_t classOf(std::size_t n) { return (n - 1) / kGranule; }

    /** First pooled free on this thread: register the exit hook. */
    static void
    arm() noexcept
    {
        lists_.state = State::Armed;
        [[maybe_unused]] static thread_local Reaper reaper;
    }

    static inline constinit thread_local Lists lists_{};
};

/** Base of every promise type: frames come from FramePool. */
struct PooledFrame {
    static void *operator new(std::size_t n) { return FramePool::allocate(n); }

    static void
    operator delete(void *p, std::size_t n) noexcept
    {
        FramePool::release(p, n);
    }
};

struct PromiseBase : PooledFrame {
    std::coroutine_handle<> continuation;
    std::exception_ptr exception;

    struct FinalAwaiter {
        bool await_ready() const noexcept { return false; }

        template <typename Promise>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<Promise> h) const noexcept
        {
            auto cont = h.promise().continuation;
            return cont ? cont : std::noop_coroutine();
        }

        void await_resume() const noexcept {}
    };

    std::suspend_always initial_suspend() const noexcept { return {}; }
    FinalAwaiter final_suspend() const noexcept { return {}; }
    void unhandled_exception() { exception = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase {
    std::optional<T> value;

    Task<T> get_return_object();
    void return_value(T v) { value.emplace(std::move(v)); }

    T
    result()
    {
        if (exception)
            std::rethrow_exception(exception);
        MAPLE_ASSERT(value.has_value(), "task finished without a value");
        return std::move(*value);
    }
};

template <>
struct Promise<void> : PromiseBase {
    Task<void> get_return_object();
    void return_void() const noexcept {}

    void
    result() const
    {
        if (exception)
            std::rethrow_exception(exception);
    }
};

}  // namespace detail

/**
 * A lazily-started coroutine returning T. Owns its frame; moving transfers
 * ownership. co_await-ing a Task starts it and resumes the awaiter when the
 * task completes (symmetric transfer, no stack growth).
 */
template <typename T>
class [[nodiscard]] Task {
  public:
    using promise_type = detail::Promise<T>;

    Task() = default;
    explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
    Task(Task &&other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}

    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, nullptr);
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;
    ~Task() { destroy(); }

    bool valid() const { return handle_ != nullptr; }
    bool done() const { return handle_ && handle_.done(); }

    /** Awaiter: starts the child task, resumes awaiter at completion. */
    auto
    operator co_await() &&
    {
        struct Awaiter {
            std::coroutine_handle<promise_type> h;

            bool await_ready() const noexcept { return !h || h.done(); }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> cont) const noexcept
            {
                h.promise().continuation = cont;
                return h;
            }

            T await_resume() const { return h.promise().result(); }
        };
        return Awaiter{handle_};
    }

    /** Release ownership (used by spawn()). */
    std::coroutine_handle<promise_type> release() { return std::exchange(handle_, nullptr); }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    std::coroutine_handle<promise_type> handle_ = nullptr;
};

namespace detail {

template <typename T>
Task<T>
Promise<T>::get_return_object()
{
    return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void>
Promise<void>::get_return_object()
{
    return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}

}  // namespace detail

/**
 * Handle to a spawned root task. Lets the harness detect completion and
 * rethrow any exception that escaped the coroutine.
 */
class Join {
  public:
    struct State {
        bool done = false;
        std::exception_ptr exception;
    };

    Join() : state_(std::make_shared<State>()) {}

    bool done() const { return state_->done; }

    /** Rethrows any stored exception; asserts completion. */
    void
    get() const
    {
        MAPLE_ASSERT(state_->done, "join on unfinished task");
        if (state_->exception)
            std::rethrow_exception(state_->exception);
    }

    std::shared_ptr<State> state() const { return state_; }

  private:
    std::shared_ptr<State> state_;
};

namespace detail {

/** Self-destroying wrapper coroutine used by spawn(). */
struct Detached {
    struct promise_type : PooledFrame {
        Detached get_return_object() const noexcept { return {}; }
        std::suspend_never initial_suspend() const noexcept { return {}; }
        std::suspend_never final_suspend() const noexcept { return {}; }
        void return_void() const noexcept {}
        void unhandled_exception() const noexcept { std::terminate(); }
    };
};

inline Detached
spawnImpl(Task<void> task, std::shared_ptr<Join::State> st)
{
    try {
        co_await std::move(task);
    } catch (...) {
        st->exception = std::current_exception();
    }
    st->done = true;
}

inline Detached
spawnDetachedImpl(EventQueue &eq, Task<void> task)
{
    try {
        co_await std::move(task);
    } catch (...) {
        eq.reportTaskError(std::current_exception());
    }
}

}  // namespace detail

/**
 * Start @p task as a root coroutine. The frame self-destroys on completion.
 * @return a Join the caller can poll / get() after the EventQueue drains.
 */
inline Join
spawn(Task<void> task)
{
    Join join;
    detail::spawnImpl(std::move(task), join.state());
    return join;
}

/**
 * Start @p task as a detached root coroutine whose Join nobody will poll
 * (device-internal helpers: async scratchpad fills, LIMA workers, drain
 * engines). An exception escaping the task is routed to
 * EventQueue::reportTaskError and rethrown from the driving run() — with a
 * plain discarded spawn() it would be swallowed with the Join.
 */
inline void
spawnDetached(EventQueue &eq, Task<void> task)
{
    detail::spawnDetachedImpl(eq, std::move(task));
}

/**
 * Awaitable that suspends the coroutine for @p cycles simulated cycles.
 * Rides the EventQueue's pooled coroutine-resume path: suspending allocates
 * nothing, so delay() is free to sit on every hop of every hot loop.
 */
inline auto
delay(EventQueue &eq, Cycle cycles)
{
    struct Awaiter {
        EventQueue &eq;
        Cycle cycles;

        bool await_ready() const noexcept { return cycles == 0; }

        void
        await_suspend(std::coroutine_handle<> h) const
        {
            eq.scheduleResumeIn(cycles, h);
        }

        void await_resume() const noexcept {}
    };
    return Awaiter{eq, cycles};
}

/**
 * One-shot, externally-fulfilled completion carrying a copyable value of
 * type T. Any number of coroutines may await it (e.g. loads merged into one
 * cache MSHR); all are resumed in FIFO order when the value is set.
 * Fulfilling before the first await is fine.
 */
template <typename T>
class Future {
  public:
    Future() : state_(std::make_shared<State>()) {}

    /** Fulfil the future, resuming all waiters immediately (FIFO). */
    void
    set(T value) const
    {
        MAPLE_ASSERT(!state_->value.has_value(), "future fulfilled twice");
        state_->value.emplace(std::move(value));
        auto waiters = std::move(state_->waiters);
        state_->waiters.clear();
        for (auto w : waiters)
            w.resume();
    }

    bool ready() const { return state_->value.has_value(); }

    auto
    operator co_await() const
    {
        struct Awaiter {
            std::shared_ptr<State> st;

            bool await_ready() const noexcept { return st->value.has_value(); }

            void
            await_suspend(std::coroutine_handle<> h) const
            {
                st->waiters.push_back(h);
            }

            T await_resume() const { return *st->value; }
        };
        return Awaiter{state_};
    }

  private:
    struct State {
        std::optional<T> value;
        std::vector<std::coroutine_handle<>> waiters;
    };

    std::shared_ptr<State> state_;
};

/** Future<> carrying no payload; used as a pure completion signal. */
struct Unit {};
using Signal = Future<Unit>;

}  // namespace maple::sim
