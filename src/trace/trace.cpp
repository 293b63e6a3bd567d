#include "trace/trace.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "sim/log.hpp"

namespace maple::trace {

const char *
categoryName(Category c)
{
    switch (c) {
      case Category::Maple: return "maple";
      case Category::Cache: return "cache";
      case Category::Noc:   return "noc";
      case Category::Core:  return "core";
      case Category::Mem:   return "mem";
      case Category::Os:    return "os";
      default:              return "?";
    }
}

const char *
stallCauseName(StallCause c)
{
    switch (c) {
      case StallCause::QueueFull:       return "queue_full";
      case StallCause::QueueEmpty:      return "queue_empty";
      case StallCause::ProduceBuffer:   return "produce_buffer";
      case StallCause::TlbMiss:         return "tlb_miss";
      case StallCause::Dram:            return "dram";
      case StallCause::NocBackpressure: return "noc_backpressure";
      case StallCause::FaultNoc:        return "fault_noc";
      case StallCause::FaultDram:       return "fault_dram";
      case StallCause::FaultTlb:        return "fault_tlb";
      case StallCause::FaultMmio:       return "fault_mmio";
      case StallCause::FaultRecovery:   return "fault_recovery";
      default:                          return "?";
    }
}

TraceManager::TraceManager(sim::EventQueue &eq, TraceConfig cfg)
    : eq_(eq), cfg_(std::move(cfg))
{
    MAPLE_ASSERT(cfg_.sample_interval > 0, "sample interval must be nonzero");
    next_sample_ = eq_.now() + cfg_.sample_interval;
    // Pre-size the hot recording containers so span/sample recording does
    // not reallocate mid-run and perturb host-perf measurements.
    events_.reserve(std::min<std::size_t>(cfg_.max_events, 1u << 16));
    tracks_.reserve(64);
    probes_.reserve(32);
    sample_times_.reserve(4096);
    eq_.attachTracer(this, &TraceManager::onAdvance);
}

TraceManager::~TraceManager()
{
    if (eq_.tracer() == this)
        eq_.detachTracer();
    if (!written_ && (!cfg_.json_path.empty() || !cfg_.csv_path.empty()))
        write();
}

TraceManager::TrackId
TraceManager::track(const std::string &name)
{
    tracks_.push_back(Track{name, {}, false});
    return static_cast<TrackId>(tracks_.size() - 1);
}

TraceManager::LaneGroupId
TraceManager::laneGroup(const std::string &base)
{
    groups_.push_back(LaneGroup{base, {}});
    return static_cast<LaneGroupId>(groups_.size() - 1);
}

void
TraceManager::record(const Event &ev)
{
    if (events_.size() >= cfg_.max_events) {
        ++dropped_;
        return;
    }
    events_.push_back(ev);
}

void
TraceManager::begin(TrackId t, const char *name, Category cat)
{
    MAPLE_ASSERT(t < tracks_.size(), "begin on unknown track");
    tracks_[t].stack.push_back(OpenSpan{name, cat, eq_.now()});
}

void
TraceManager::end(TrackId t)
{
    MAPLE_ASSERT(t < tracks_.size() && !tracks_[t].stack.empty(),
                 "end without matching begin");
    OpenSpan span = tracks_[t].stack.back();
    tracks_[t].stack.pop_back();
    record(Event{t, span.name, span.cat, false, span.start,
                 eq_.now() - span.start});
}

void
TraceManager::complete(TrackId t, const char *name, Category cat,
                       sim::Cycle start)
{
    MAPLE_ASSERT(t < tracks_.size() && start <= eq_.now(), "bad complete span");
    record(Event{t, name, cat, false, start, eq_.now() - start});
}

void
TraceManager::instant(TrackId t, const char *name, Category cat)
{
    MAPLE_ASSERT(t < tracks_.size(), "instant on unknown track");
    record(Event{t, name, cat, true, eq_.now(), 0});
}

TraceManager::Span
TraceManager::beginLane(LaneGroupId g, const char *name, Category cat)
{
    MAPLE_ASSERT(g < groups_.size(), "beginLane on unknown group");
    LaneGroup &group = groups_[g];
    TrackId tid = kNone;
    for (TrackId lane : group.lanes) {
        if (!tracks_[lane].lane_busy) {
            tid = lane;
            break;
        }
    }
    if (tid == kNone) {
        std::string lane_name = group.base;
        if (!group.lanes.empty()) {
            lane_name += '#';
            lane_name += std::to_string(group.lanes.size());
        }
        tid = track(lane_name);
        group.lanes.push_back(tid);
    }
    tracks_[tid].lane_busy = true;
    tracks_[tid].stack.push_back(OpenSpan{name, cat, eq_.now()});
    return Span{tid, eq_.now()};
}

void
TraceManager::endLane(const Span &s)
{
    if (!s.valid())
        return;
    MAPLE_ASSERT(s.tid < tracks_.size() && tracks_[s.tid].lane_busy,
                 "endLane on a free lane");
    end(s.tid);
    tracks_[s.tid].lane_busy = false;
}

void
TraceManager::addProbe(const std::string &name, std::function<double()> probe)
{
    MAPLE_ASSERT(sample_times_.empty(),
                 "probes must be registered before sampling starts");
    probes_.push_back(Probe{name, std::move(probe), {}});
    probes_.back().values.reserve(4096);
}

void
TraceManager::advanceTo(sim::Cycle now)
{
    if (!enabled_ || probes_.empty())
        return;
    while (next_sample_ <= now) {
        sampleAt(next_sample_);
        next_sample_ += cfg_.sample_interval;
    }
}

void
TraceManager::sampleAt(sim::Cycle ts)
{
    sample_times_.push_back(ts);
    for (Probe &p : probes_)
        p.values.push_back(p.fn());
}

std::string
TraceManager::stallReport() const
{
    std::uint64_t total = 0;
    for (std::uint64_t c : stall_cycles_)
        total += c;
    std::ostringstream os;
    os << "stall attribution (" << total << " attributed wait cycles):\n";
    for (std::size_t i = 0; i < stall_cycles_.size(); ++i) {
        double share =
            total ? 100.0 * static_cast<double>(stall_cycles_[i]) /
                        static_cast<double>(total)
                  : 0.0;
        char line[96];
        std::snprintf(line, sizeof line, "  %-18s %12llu cycles  %5.1f%%\n",
                      stallCauseName(static_cast<StallCause>(i)),
                      (unsigned long long)stall_cycles_[i], share);
        os << line;
    }
    return os.str();
}

namespace {

/** JSON string escaping (quotes, backslashes, control characters). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

}  // namespace

void
TraceManager::writeJson(std::ostream &os) const
{
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",";
        first = false;
        os << "\n";
    };

    // Thread-name metadata: one simulated track per Chrome "thread".
    for (std::size_t t = 0; t < tracks_.size(); ++t) {
        sep();
        os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":" << t
           << ",\"args\":{\"name\":\"" << jsonEscape(tracks_[t].name)
           << "\"}}";
    }

    // Duration / instant events (ts in trace-microseconds == cycles).
    for (const Event &ev : events_) {
        sep();
        os << "{\"ph\":\"" << (ev.is_instant ? "i" : "X") << "\",\"name\":\""
           << jsonEscape(ev.name) << "\",\"cat\":\"" << categoryName(ev.cat)
           << "\",\"pid\":0,\"tid\":" << ev.tid << ",\"ts\":" << ev.ts;
        if (ev.is_instant)
            os << ",\"s\":\"t\"";
        else
            os << ",\"dur\":" << ev.dur;
        os << "}";
    }

    // Time-series samples as Chrome counter events.
    for (const Probe &p : probes_) {
        for (std::size_t i = 0; i < sample_times_.size(); ++i) {
            sep();
            os << "{\"ph\":\"C\",\"name\":\"" << jsonEscape(p.name)
               << "\",\"pid\":0,\"ts\":" << sample_times_[i]
               << ",\"args\":{\"value\":" << p.values[i] << "}}";
        }
    }
    os << "\n],\n\"stallAttribution\":{";
    for (std::size_t i = 0; i < stall_cycles_.size(); ++i) {
        os << (i ? "," : "") << "\""
           << stallCauseName(static_cast<StallCause>(i))
           << "\":" << stall_cycles_[i];
    }
    os << "},\n\"metadata\":{\"sampleIntervalCycles\":" << cfg_.sample_interval
       << ",\"droppedEvents\":" << dropped_ << "}}\n";
}

void
TraceManager::writeCsv(std::ostream &os) const
{
    os << "cycle";
    for (const Probe &p : probes_)
        os << "," << p.name;
    os << "\n";
    for (std::size_t i = 0; i < sample_times_.size(); ++i) {
        os << sample_times_[i];
        for (const Probe &p : probes_)
            os << "," << p.values[i];
        os << "\n";
    }
}

namespace {

/**
 * Per-path write counter: repeated writes to the same path within one
 * process (e.g. a bench sweeping many SoCs under MAPLE_TRACE) get ".N"
 * suffixed instead of clobbering earlier traces.
 */
std::string
uniquePath(const std::string &path)
{
    // Process-wide, so guard it: sharded runs can flush tracers for several
    // SoCs from different host worker threads.
    static std::mutex mu;
    static std::map<std::string, unsigned> writes;
    std::lock_guard<std::mutex> lock(mu);
    unsigned n = writes[path]++;
    if (n == 0)
        return path;
    std::size_t dot = path.rfind('.');
    if (dot == std::string::npos || dot == 0)
        return path + "." + std::to_string(n);
    return path.substr(0, dot) + "." + std::to_string(n) + path.substr(dot);
}

}  // namespace

void
TraceManager::write()
{
    if (written_)
        return;
    written_ = true;
    if (!cfg_.json_path.empty()) {
        std::string path = uniquePath(cfg_.json_path);
        std::ofstream os(path);
        if (!os) {
            MAPLE_WARN("cannot write trace to %s", path.c_str());
        } else {
            writeJson(os);
            MAPLE_INFORM("wrote trace: %s (%zu events, %zu samples)",
                         path.c_str(), events_.size(), sample_times_.size());
        }
    }
    if (!cfg_.csv_path.empty()) {
        std::string path = uniquePath(cfg_.csv_path);
        std::ofstream os(path);
        if (!os)
            MAPLE_WARN("cannot write trace CSV to %s", path.c_str());
        else
            writeCsv(os);
    }
    if (cfg_.report_to_stderr)
        std::fputs(stallReport().c_str(), stderr);
}

void
TraceManager::saveState(ckpt::Sink &out) const
{
    // String table for the const char* literals carried by events and open
    // spans: first-seen *content* gets an id, written once. Keying by content
    // (not pointer) keeps snapshots canonical after a restore, where old
    // events carry interned copies and new events carry the literals.
    std::unordered_map<std::string_view, std::uint32_t> ids;
    std::vector<std::string_view> table;
    auto intern = [&](const char *s) -> std::uint32_t {
        auto [it, inserted] = ids.try_emplace(
            std::string_view(s), static_cast<std::uint32_t>(table.size()));
        if (inserted)
            table.push_back(it->first);
        return it->second;
    };

    // Pass 1: build the table in a deterministic order.
    for (const Track &t : tracks_) {
        for (const OpenSpan &s : t.stack)
            intern(s.name);
    }
    for (const Event &ev : events_)
        intern(ev.name);

    out.u64(table.size());
    for (std::string_view s : table)
        out.str(std::string(s));

    out.b(enabled_);
    out.u64(dropped_);
    for (std::uint64_t c : stall_cycles_)
        out.u64(c);

    out.u64(tracks_.size());
    for (const Track &t : tracks_) {
        out.str(t.name);
        out.b(t.lane_busy);
        out.u64(t.stack.size());
        for (const OpenSpan &s : t.stack) {
            out.u32(intern(s.name));
            out.u8(static_cast<std::uint8_t>(s.cat));
            out.u64(s.start);
        }
    }

    out.u64(groups_.size());
    for (const LaneGroup &g : groups_) {
        out.str(g.base);
        out.u64(g.lanes.size());
        for (TrackId lane : g.lanes)
            out.u32(lane);
    }

    out.u64(events_.size());
    for (const Event &ev : events_) {
        out.u32(ev.tid);
        out.u32(intern(ev.name));
        out.u8(static_cast<std::uint8_t>(ev.cat));
        out.b(ev.is_instant);
        out.u64(ev.ts);
        out.u64(ev.dur);
    }

    out.u64(probes_.size());
    for (const Probe &p : probes_) {
        out.str(p.name);
        out.u64(p.values.size());
        for (double v : p.values)
            out.f64(v);
    }
    out.u64(sample_times_.size());
    for (sim::Cycle t : sample_times_)
        out.u64(t);
    out.u64(next_sample_);
}

void
TraceManager::loadState(ckpt::Source &in)
{
    std::vector<const char *> table;
    for (std::uint64_t n = in.u64(); n > 0; --n) {
        interned_names_.push_back(in.str());
        table.push_back(interned_names_.back().c_str());
    }
    auto name_at = [&](std::uint32_t id) -> const char * {
        MAPLE_CHECK(id < table.size(), ckpt::SnapshotError,
                    "trace string-table id out of range");
        return table[id];
    };

    enabled_ = in.b();
    dropped_ = in.u64();
    for (std::uint64_t &c : stall_cycles_)
        c = in.u64();

    tracks_.clear();
    for (std::uint64_t n = in.u64(); n > 0; --n) {
        Track t;
        t.name = in.str();
        t.lane_busy = in.b();
        for (std::uint64_t m = in.u64(); m > 0; --m) {
            OpenSpan s;
            s.name = name_at(in.u32());
            s.cat = static_cast<Category>(in.u8());
            s.start = in.u64();
            t.stack.push_back(s);
        }
        tracks_.push_back(std::move(t));
    }

    groups_.clear();
    for (std::uint64_t n = in.u64(); n > 0; --n) {
        LaneGroup g;
        g.base = in.str();
        for (std::uint64_t m = in.u64(); m > 0; --m)
            g.lanes.push_back(in.u32());
        groups_.push_back(std::move(g));
    }

    events_.clear();
    for (std::uint64_t n = in.u64(); n > 0; --n) {
        Event ev;
        ev.tid = in.u32();
        ev.name = name_at(in.u32());
        ev.cat = static_cast<Category>(in.u8());
        ev.is_instant = in.b();
        ev.ts = in.u64();
        ev.dur = in.u64();
        events_.push_back(ev);
    }

    // Probe functions are host-side: the restoring Soc must have registered
    // the same probes in the same order (Soc's registration is
    // deterministic); only the sampled values are restored.
    std::uint64_t probes = in.u64();
    MAPLE_CHECK(probes == probes_.size(), ckpt::SnapshotError,
                "trace probe-count mismatch (snapshot %llu, live %zu)",
                (unsigned long long)probes, probes_.size());
    for (Probe &p : probes_) {
        std::string name = in.str();
        MAPLE_CHECK(name == p.name, ckpt::SnapshotError,
                    "trace probe mismatch: snapshot '%s', live '%s'",
                    name.c_str(), p.name.c_str());
        p.values.clear();
        for (std::uint64_t m = in.u64(); m > 0; --m)
            p.values.push_back(in.f64());
    }
    sample_times_.clear();
    for (std::uint64_t n = in.u64(); n > 0; --n)
        sample_times_.push_back(in.u64());
    next_sample_ = in.u64();
}

}  // namespace maple::trace
