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
 *  - WaitList:  intrusive FIFO of parked coroutines, woken all at once.
 *  - Signal:    one-shot latch: set once, awaited any number of times.
 *  - delay():   awaitable that costs simulated cycles (a Delay).
 *  - Soon<T>:   a step's value computed at the call, or its slow-path Task.
 *  - spawn():   runs a Task<> to completion as a root, returns a Join.
 *
 * Every coroutine frame comes from detail::FramePool, so the nested tasks
 * each simulated access creates and destroys recycle without reaching
 * malloc, and a parked waiter's link lives in its own frame, so waiting
 * allocates nothing either.
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

#include "sim/event_queue.hpp"
#include "sim/log.hpp"
#include "sim/types.hpp"

namespace maple::sim {

template <typename T = void>
class Task;

template <typename T = void>
class Soon;

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

    Awaiter operator co_await() && { return Awaiter{handle_}; }

    /** Release ownership (used by spawn()). */
    std::coroutine_handle<promise_type> release() { return std::exchange(handle_, nullptr); }

  private:
    template <typename>
    friend class Soon;

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
 * Awaitable that suspends the awaiting coroutine for @p cycles simulated
 * cycles; zero cycles is ready and does not suspend. Rides the EventQueue's
 * pooled coroutine-resume path: suspending allocates nothing, so a Delay is
 * free to sit on every hop of every hot loop.
 *
 * A step that returns a Delay (Core::compute, Mesh::transit) has done its
 * work by the time it returns, so its caller must co_await the Delay in the
 * same expression that calls the step: then no event runs between the work
 * and the wait, exactly as when the step was a Task started by the await.
 */
struct [[nodiscard]] Delay {
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

inline Delay
delay(EventQueue &eq, Cycle cycles)
{
    return Delay{eq, cycles};
}

/**
 * What a step that usually finishes at once returns: either the value it
 * computed at the call (ready: co_await does not suspend and no frame is
 * made) or the Task of its slow path, which starts when awaited. A TLB hit
 * is the value, a walk is the Task (Mmu::translate).
 *
 * The fast path does its work at the call, so the caller must co_await the
 * Soon in the same expression that calls the step: then no event runs
 * between the work and the await, exactly as when the whole step was one
 * Task started by the await.
 */
template <typename T>
class [[nodiscard]] Soon {
  public:
    Soon(T value) : value_(std::move(value)) {}
    Soon(Task<T> slow) : slow_(std::move(slow)) {}

    bool await_ready() const noexcept { return value_.has_value(); }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> cont) const noexcept
    {
        return slowAwaiter().await_suspend(cont);
    }

    T
    await_resume()
    {
        if (value_)
            return std::move(*value_);
        return slowAwaiter().await_resume();
    }

  private:
    typename Task<T>::Awaiter slowAwaiter() const { return {slow_.handle_}; }

    std::optional<T> value_;
    Task<T> slow_;
};

/** Soon<> of a step that yields no value: ready, or its slow-path Task. */
template <>
class [[nodiscard]] Soon<void> {
  public:
    Soon() = default;
    Soon(Task<void> slow) : slow_(std::move(slow)) {}

    bool await_ready() const noexcept { return !slow_.valid(); }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> cont) const noexcept
    {
        return slowAwaiter().await_suspend(cont);
    }

    void
    await_resume() const
    {
        if (slow_.valid())
            slowAwaiter().await_resume();
    }

  private:
    Task<void>::Awaiter slowAwaiter() const { return {slow_.handle_}; }

    Task<void> slow_;
};

/**
 * An intrusive FIFO of parked coroutines. `co_await list` parks the caller;
 * its link lives in the awaiter, inside the waiter's own frame, so parking
 * allocates nothing. wakeAll() first detaches the whole list, then resumes
 * it in FIFO order: a waiter that parks again while being woken waits for
 * the next wakeAll().
 *
 * Waiters keep no pointer to the list once parked, so a list with waiters
 * on it may be moved (out of a map node or table entry about to be freed,
 * say). A list destroyed with waiters on it leaves them parked forever.
 */
class WaitList {
  public:
    /** Parks the awaiting coroutine on a list; its link in the chain. */
    class Awaiter {
      public:
        explicit Awaiter(WaitList &list, bool ready = false) noexcept
            : list_(&list), ready_(ready)
        {}

        bool await_ready() const noexcept { return ready_; }

        void
        await_suspend(std::coroutine_handle<> h) noexcept
        {
            handle_ = h;
            list_->push(this);
        }

        void await_resume() const noexcept {}

      private:
        friend class WaitList;

        WaitList *list_;
        bool ready_;
        Awaiter *next_ = nullptr;
        std::coroutine_handle<> handle_;
    };

    WaitList() = default;

    WaitList(WaitList &&other) noexcept
        : head_(std::exchange(other.head_, nullptr)),
          tail_(std::exchange(other.tail_, nullptr))
    {}

    WaitList &
    operator=(WaitList &&other) noexcept
    {
        MAPLE_ASSERT(empty(), "waiters dropped by a wait-list move");
        head_ = std::exchange(other.head_, nullptr);
        tail_ = std::exchange(other.tail_, nullptr);
        return *this;
    }

    WaitList(const WaitList &) = delete;
    WaitList &operator=(const WaitList &) = delete;

    bool empty() const noexcept { return head_ == nullptr; }

    Awaiter operator co_await() noexcept { return Awaiter(*this); }

    /**
     * Resume every waiter parked now, FIFO. Touches nothing of *this once
     * the list is detached: a woken waiter may destroy the object that
     * holds the list (a Signal in its own frame).
     */
    void
    wakeAll()
    {
        Awaiter *w = std::exchange(head_, nullptr);
        tail_ = nullptr;
        while (w) {
            Awaiter *next = w->next_;  // w's frame may be gone after resume
            w->handle_.resume();
            w = next;
        }
    }

  private:
    void
    push(Awaiter *w) noexcept
    {
        if (tail_)
            tail_->next_ = w;
        else
            head_ = w;
        tail_ = w;
    }

    Awaiter *head_ = nullptr;
    Awaiter *tail_ = nullptr;
};

/**
 * One-shot latch: set() once resumes every waiter (FIFO, inline); awaiting
 * a set Signal does not suspend. Not copyable: whoever sets it holds its
 * address, so it lives where both sides can reach it for as long as either
 * needs it (DESIGN.md section 7).
 */
class Signal {
  public:
    Signal() = default;
    Signal(const Signal &) = delete;
    Signal &operator=(const Signal &) = delete;

    /** Latch and resume the waiters. The last thing set() does: a woken
     *  waiter may destroy the frame that holds this Signal. */
    void
    set()
    {
        MAPLE_ASSERT(!set_, "signal set twice");
        set_ = true;
        waiters_.wakeAll();
    }

    WaitList::Awaiter operator co_await() noexcept
    {
        return WaitList::Awaiter(waiters_, set_);
    }

  private:
    bool set_ = false;
    WaitList waiters_;
};

}  // namespace maple::sim
