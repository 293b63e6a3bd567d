/**
 * @file
 * Cycle-accurate tracing & telemetry.
 *
 * A TraceManager is registered next to the EventQueue (EventQueue::tracer())
 * and collects three kinds of data while the simulation runs:
 *
 *  - Duration/instant events: begin/end spans with a category, placed on
 *    named tracks. Serialized agents (a blocking in-order core) use a fixed
 *    track with stack discipline, so spans nest by construction. Concurrent
 *    agents (a MAPLE pipeline with many ops in flight) use a *lane group*:
 *    each span grabs the lowest free lane of the group, so spans within one
 *    lane never overlap and the lane count visualizes pipeline occupancy.
 *
 *  - Periodic time-series samples: registered probes (queue occupancy, MSHR
 *    occupancy, NoC flits, produce-buffer depth...) are sampled every
 *    `sample_interval` cycles. Sampling piggybacks on event execution --
 *    the EventQueue invokes the tracer when simulated time advances -- so
 *    tracing never schedules events and never changes simulation behavior.
 *
 *  - Stall attribution: wait cycles bucketed by cause (queue-full,
 *    queue-empty, TLB-miss, DRAM, NoC backpressure...), summarized in a
 *    post-run report.
 *
 * Export formats: Chrome trace-event JSON (loadable in Perfetto /
 * chrome://tracing; one trace "microsecond" = one simulated cycle) and a
 * compact CSV for the time-series. Tracing is off by default: with no
 * tracer attached every instrumentation site is a single null-pointer
 * check, and an attached-but-disabled tracer adds one boolean check.
 */
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/serial.hpp"
#include "sim/event_queue.hpp"
#include "sim/types.hpp"

namespace maple::trace {

/** Coarse component category carried on every event ("cat" in the JSON). */
enum class Category : std::uint8_t { Maple, Cache, Noc, Core, Mem, Os, kCount };
const char *categoryName(Category c);

/** Cause buckets for the post-run stall-attribution report. */
enum class StallCause : std::uint8_t {
    QueueFull,      ///< produce waited on a full MAPLE queue
    QueueEmpty,     ///< consume waited on an empty MAPLE queue
    ProduceBuffer,  ///< produce waited on a full produce buffer
    TlbMiss,        ///< translation waited on a page-table walk / fault
    Dram,           ///< waited on a memory fetch (DRAM or LLC round trip)
    NocBackpressure,///< packet waited on a busy mesh link
    // Injected-fault buckets (src/fault): the attribution report separates
    // latency the FaultPlan inserted from organic latency of the same kind.
    FaultNoc,       ///< injected transient NoC link stall
    FaultDram,      ///< injected DRAM latency spike
    FaultTlb,       ///< injected device-TLB miss storm (forced re-walk)
    FaultMmio,      ///< injected delayed MMIO response
    FaultRecovery,  ///< hard-fault handling: quiesce/reset/replay downtime
    kCount
};
const char *stallCauseName(StallCause c);

struct TraceConfig {
    bool enabled = false;
    std::string json_path;            ///< Chrome trace JSON ("" = don't write)
    std::string csv_path;             ///< time-series CSV ("" = don't write)
    sim::Cycle sample_interval = 1000;///< probe sampling cadence, in cycles
    std::size_t max_events = 1u << 22;///< events beyond this are counted, not stored
    bool report_to_stderr = true;     ///< print the stall report on write()
};

class TraceManager {
  public:
    using TrackId = std::uint32_t;
    using LaneGroupId = std::uint32_t;
    static constexpr std::uint32_t kNone = 0xffffffffu;

    /** Handle for a span on a lane group (endLane() closes it). */
    struct Span {
        TrackId tid = kNone;
        sim::Cycle start = 0;
        bool valid() const { return tid != kNone; }
    };

    /** Construct and attach to @p eq; detaches in the destructor. */
    TraceManager(sim::EventQueue &eq, TraceConfig cfg);
    ~TraceManager();

    TraceManager(const TraceManager &) = delete;
    TraceManager &operator=(const TraceManager &) = delete;

    /** Runtime toggle; instrumentation sites check this via active(). */
    bool enabled() const { return enabled_; }
    void setEnabled(bool e) { enabled_ = e; }

    const TraceConfig &config() const { return cfg_; }

    /// @name Tracks and spans
    /// @{

    /** A fixed track for a serialized agent (spans obey stack discipline). */
    TrackId track(const std::string &name);

    /** A lane group for a concurrent agent (lanes allocated per span). */
    LaneGroupId laneGroup(const std::string &base);

    /** Open a span on a fixed track. @p name must be a string literal. */
    void begin(TrackId t, const char *name, Category cat);

    /** Close the innermost open span on @p t (emits a complete event). */
    void end(TrackId t);

    /**
     * Emit a complete event [@p start, now] on a fixed track without the
     * begin/end stack: for conditional sub-spans whose duration is only
     * known afterwards (e.g. a TLB walk inside a load).
     */
    void complete(TrackId t, const char *name, Category cat, sim::Cycle start);

    /** Zero-duration marker on @p t. */
    void instant(TrackId t, const char *name, Category cat);

    /** Open a span on the lowest free lane of @p g. */
    Span beginLane(LaneGroupId g, const char *name, Category cat);

    /** Close a lane span (emits a complete event, frees the lane). */
    void endLane(const Span &s);

    /// @}

    /// @name Periodic time-series sampling
    /// @{

    /** Register a probe sampled every sample_interval cycles. */
    void addProbe(const std::string &name, std::function<double()> probe);

    /** Number of sample rows recorded so far. */
    std::size_t sampleRows() const { return sample_times_.size(); }

    /// @}

    /// @name Stall attribution
    /// @{
    void attributeStall(StallCause c, sim::Cycle cycles)
    {
        stall_cycles_[static_cast<std::size_t>(c)] += cycles;
    }
    std::uint64_t stallCycles(StallCause c) const
    {
        return stall_cycles_[static_cast<std::size_t>(c)];
    }
    /** Human-readable post-run report (cycles and share per cause). */
    std::string stallReport() const;
    /// @}

    /// @name Introspection (tests, reports)
    /// @{
    std::size_t eventCount() const { return events_.size(); }
    std::uint64_t droppedEvents() const { return dropped_; }
    /// @}

    /// @name Export
    /// @{
    void writeJson(std::ostream &os) const;
    void writeCsv(std::ostream &os) const;

    /**
     * Write the configured output files (idempotent). Repeated writes to the
     * same path within one process get a ".N" suffix instead of overwriting,
     * so multi-SoC benches keep one trace per run.
     */
    void write();
    /// @}

    /** EventQueue trampoline: drives sampling as simulated time advances. */
    static void onAdvance(TraceManager *t, sim::Cycle now) { t->advanceTo(now); }

    /**
     * Snapshot support (src/ckpt). Event/span names are string literals in
     * the live tracer; the snapshot carries them through a string table and
     * restore interns them into an owned pool, so a restored trace writes
     * byte-identical JSON/CSV. Probe *functions* are host-side and must
     * already be registered (in the same order) by the restoring Soc; only
     * their sampled values round-trip.
     */
    template <class Ar> void state(Ar &ar);

  private:
    struct Event {
        TrackId tid;
        const char *name;  ///< string literal (never owned)
        Category cat;
        bool is_instant;
        sim::Cycle ts;
        sim::Cycle dur;
    };

    struct OpenSpan {
        const char *name;
        Category cat;
        sim::Cycle start;
    };

    struct Track {
        std::string name;
        std::vector<OpenSpan> stack;  ///< fixed-track begin/end nesting
        bool lane_busy = false;       ///< lane-group occupancy
    };

    struct LaneGroup {
        std::string base;
        std::vector<TrackId> lanes;
    };

    struct Probe {
        std::string name;
        std::function<double()> fn;
        std::vector<double> values;  ///< aligned with sample_times_
    };

    void record(const Event &ev);
    void advanceTo(sim::Cycle now);
    void sampleAt(sim::Cycle ts);

    sim::EventQueue &eq_;
    TraceConfig cfg_;
    bool enabled_ = true;
    bool written_ = false;

    std::vector<Track> tracks_;
    std::vector<LaneGroup> groups_;
    std::vector<Event> events_;
    std::uint64_t dropped_ = 0;

    std::vector<Probe> probes_;
    std::vector<sim::Cycle> sample_times_;
    sim::Cycle next_sample_;

    /** Names interned by a restore (stable addresses, owned). */
    std::deque<std::string> interned_names_;

    std::array<std::uint64_t, static_cast<std::size_t>(StallCause::kCount)>
        stall_cycles_{};
};

/**
 * Scope guard for a lane span inside a coroutine: opens the span on
 * construction (no-op when @p t is null or tracing is off) and closes it
 * when the coroutine body finishes, surviving any number of co_awaits in
 * between. Move-only so a span can be handed across helper frames.
 */
class LaneSpan {
  public:
    LaneSpan() = default;

    LaneSpan(TraceManager *t, TraceManager::LaneGroupId g, const char *name,
             Category cat)
        : t_(t)
    {
        if (t_ && g != TraceManager::kNone)
            span_ = t_->beginLane(g, name, cat);
        else
            t_ = nullptr;
    }

    LaneSpan(LaneSpan &&other) noexcept
        : t_(std::exchange(other.t_, nullptr)), span_(other.span_)
    {
    }

    LaneSpan &
    operator=(LaneSpan &&other) noexcept
    {
        if (this != &other) {
            close();
            t_ = std::exchange(other.t_, nullptr);
            span_ = other.span_;
        }
        return *this;
    }

    LaneSpan(const LaneSpan &) = delete;
    LaneSpan &operator=(const LaneSpan &) = delete;
    ~LaneSpan() { close(); }

    void
    close()
    {
        if (t_) {
            t_->endLane(span_);
            t_ = nullptr;
        }
    }

  private:
    TraceManager *t_ = nullptr;
    TraceManager::Span span_{};
};

/**
 * The instrumentation fast path: null when tracing is off. Every hook in the
 * hot components is written as
 *
 *     if (trace::TraceManager *t = trace::active(eq_)) { ... }
 *
 * which costs one pointer load + compare when no tracer is attached.
 */
inline TraceManager *
active(const sim::EventQueue &eq)
{
    TraceManager *t = eq.tracer();
    return (t && t->enabled()) ? t : nullptr;
}

}  // namespace maple::trace
