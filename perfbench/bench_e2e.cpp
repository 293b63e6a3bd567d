/**
 * @file
 * One workload of the end-to-end benchmark, in its own process.
 *
 *   bench_e2e --workload NAME [--seed N] [--seconds S] [--threads N]
 *             [--trace-dir DIR] [--smoke] [--corrupt-golden]
 *
 * Runs timed repetitions ("reps") of the workload, each on freshly built
 * simulated machines, while another rep still fits in --seconds, and at
 * least three (one with --smoke, which also shrinks every input about fifty
 * times). Every rep is a closed batch job: set up, run, validate against a
 * host-computed golden, tear down. The benchmark owns each Soc/SocGrid and
 * only uses the simulator's public API; it times its own calls into each
 * layer (spans), reads the public stat counters after the measured phase,
 * and with --trace-dir also times each layer's entry point in isolation
 * (probes.hpp) and runs one extra rep with MAPLE_TRACE set.
 *
 * The last stdout line is one JSON object with every rep's host times
 * (less host-speed sampling) and the mean rate of the host-speed samples
 * taken during it (host_speed.hpp), the measured phase's
 * simulated counts, the simulated fingerprint, op/failure totals, and the
 * traced/probe/grid sections; run_benchmark.py turns it into the named
 * metrics. A failed op (a thrown error, a golden mismatch, or a fingerprint
 * that differs between reps or host thread counts) is counted, never fatal.
 */
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/maple_runtime.hpp"
#include "harness/json.hpp"
#include "harness/scenario.hpp"
#include "host_speed.hpp"
#include "probes.hpp"
#include "soc/grid.hpp"
#include "soc/soc.hpp"
#include "workloads/workload.hpp"

using namespace maple;
namespace json = harness::json;
namespace host_speed = perfbench::host_speed;

namespace {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20;  ///< BENCHMARK.json run_seconds
    bool smoke = false;
    std::string trace_dir;       ///< non-empty: traced rep + probes + spans
    unsigned threads = 0;        ///< restore_grid4's extra rep; 0 = min(4, nproc)
    bool corrupt_golden = false; ///< cohgrid256: flip the golden (smoke check)
};

/**
 * Host-time spans the benchmark records around its own calls into the
 * simulator. Each span has an id, its parent (the innermost span open when
 * it started) and the rep it belongs to; kept in memory and written as a
 * Chrome trace at the end.
 */
class SpanLog {
  public:
    /** RAII span; on close optionally stores its duration in @p out. */
    class Scope {
      public:
        Scope(SpanLog &log, std::string name, double *out = nullptr)
            : log_(log), id_(log.open(std::move(name))), out_(out)
        {
        }
        ~Scope()
        {
            double d = log_.close(id_);
            if (out_)
                *out_ = d;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        int id_;
        double *out_;
    };

    void setRep(int rep) { rep_ = rep; }

    json::Value
    chromeTrace() const
    {
        json::Array events;
        for (const Span &s : spans_) {
            json::Object args;
            args.emplace_back("id", json::Value(s.id));
            args.emplace_back("parent", json::Value(s.parent));
            args.emplace_back("rep", json::Value(s.rep));
            json::Object ev;
            ev.emplace_back("name", json::Value(s.name));
            ev.emplace_back("ph", json::Value("X"));
            ev.emplace_back("pid", json::Value(0));
            ev.emplace_back("tid", json::Value(0));
            ev.emplace_back("ts", json::Value(s.start * 1e6));
            ev.emplace_back("dur", json::Value((s.end - s.start) * 1e6));
            ev.emplace_back("args", json::Value(std::move(args)));
            events.emplace_back(std::move(ev));
        }
        json::Object doc;
        doc.emplace_back("traceEvents", json::Value(std::move(events)));
        doc.emplace_back("displayTimeUnit", json::Value("ms"));
        return json::Value(std::move(doc));
    }

  private:
    struct Span {
        std::string name;
        double start = 0, end = 0;
        int id = 0, parent = -1, rep = 0;
    };

    int
    open(std::string name)
    {
        int id = static_cast<int>(spans_.size());
        int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back(Span{std::move(name), now(), 0.0, id, parent, rep_});
        stack_.push_back(id);
        return id;
    }

    double
    close(int id)
    {
        MAPLE_ASSERT(!stack_.empty() && stack_.back() == id,
                     "spans must close innermost first");
        stack_.pop_back();
        Span &s = spans_[static_cast<size_t>(id)];
        s.end = now();
        return s.end - s.start;
    }

    /** Host seconds since the log began, less the time spent taking
     *  host-speed samples, so spans time the benchmark's work only. */
    double
    now() const
    {
        for (;;) {
            const std::uint64_t busy = host_speed::busyNs();
            const auto t = std::chrono::steady_clock::now();
            if (host_speed::busyNs() == busy)
                return std::chrono::duration<double>(t - t0_).count() -
                       double(busy) * 1e-9;
        }
    }

    std::chrono::steady_clock::time_point t0_ =
        std::chrono::steady_clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
    int rep_ = 0;
};

using Scope = SpanLog::Scope;

/** Named values of one rep; ordered so JSON output is canonical. */
using Flat = std::map<std::string, double>;

/** The stall causes reported (the fault-injection buckets follow them). */
constexpr unsigned kStallCauses = unsigned(trace::StallCause::FaultNoc);

std::string
stallMetric(unsigned cause)
{
    return std::string("trace.stall.") +
           trace::stallCauseName(static_cast<trace::StallCause>(cause)) +
           "_cyc";
}

/**
 * Bucket width of every latency histogram read here: Dram "latency.<cls>"
 * (mem/dram.hpp), PortInterposer "latency.<cls>" (mem/fabric.cpp) and
 * Directory "txn_cycles" (mem/directory.cpp) all register 32-cycle buckets.
 * sim::Histogram does not expose its width; Stats::addHist checks it.
 */
constexpr double kLatBucketCycles = 32.0;

/** Histogram::percentile over raw bucket counts (same interpolation). */
double
bucketPercentile(const std::vector<std::uint64_t> &counts, double p)
{
    std::uint64_t total = 0;
    for (std::uint64_t c : counts)
        total += c;
    if (total == 0)
        return 0.0;
    double target = p * static_cast<double>(total);
    std::uint64_t seen = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
        std::uint64_t c = counts[i];
        if (c == 0)
            continue;
        if (static_cast<double>(seen + c) > target)
            return (static_cast<double>(i) +
                    (target - static_cast<double>(seen)) /
                        static_cast<double>(c)) *
                   kLatBucketCycles;
        seen += c;
    }
    return static_cast<double>(counts.size()) * kLatBucketCycles;
}

/**
 * Cumulative public counters and latency histograms of the simulated
 * machines, summed under dotted names. The measured phase's statistics are
 * the difference of a snapshot taken after it and one taken before it, so
 * warm passes and restored images do not count.
 */
struct Stats {
    Flat sums;
    std::map<std::string, std::vector<std::uint64_t>> hists;

    void
    addHist(const std::string &name, const sim::Histogram &h)
    {
        MAPLE_CHECK(h.total() == 0 || h.percentile(0.5) ==
                                          bucketPercentile(h.buckets(), 0.5),
                    sim::FatalError,
                    "%s: histogram bucket width is not %g cycles",
                    name.c_str(), kLatBucketCycles);
        auto &v = hists[name];
        v.resize(h.buckets().size(), 0);
        for (size_t i = 0; i < v.size(); ++i)
            v[i] += h.buckets()[i];
    }

    void
    addSoc(soc::Soc &soc)
    {
        using mem::RequesterClass;
        sums["sim.events"] += double(soc.eq().executed());
        for (unsigned i = 0; i < soc.numCores(); ++i) {
            cpu::Core &c = soc.core(i);
            sums["cpu.insts"] += double(c.instructions());
            sums["cpu.loads"] += double(c.loads());
            sums["cpu.stores"] += double(c.stores());
            sums["cpu.load_lat_sum"] += c.meanLoadLatency() * double(c.loads());
            mem::Cache &l1 = soc.l1(i);
            sums["mem.l1.hits"] += double(l1.demandHits());
            sums["mem.l1.misses"] += double(l1.demandMisses());
            sums["mem.l1.mshr_stalls"] +=
                double(l1.stats().counterValue("mshr_stalls"));
        }
        for (unsigned i = 0; i < soc.numMaples(); ++i) {
            core::Maple &m = soc.maple(i);
            sums["core.produced"] +=
                double(m.counter(core::Counter::ProducedData) +
                       m.counter(core::Counter::ProducedPtrs));
            sums["core.consumed"] += double(m.counter(core::Counter::Consumed));
            sums["core.full_stall_cyc"] +=
                double(m.counter(core::Counter::FullStallCycles));
            sums["core.empty_stall_cyc"] +=
                double(m.counter(core::Counter::EmptyStallCycles));
        }
        for (unsigned s = 0; s < soc.numLlcSlices(); ++s) {
            sums["mem.llc.hits"] += double(soc.llcSlice(s).demandHits());
            sums["mem.llc.misses"] += double(soc.llcSlice(s).demandMisses());
        }
        sums["mem.dram.requests"] += double(soc.dram().requests());
        for (RequesterClass c :
             {RequesterClass::Core, RequesterClass::MapleProduce}) {
            std::string cls = mem::requesterClassName(c);
            const auto &dh = soc.dram().stats().histograms();
            if (auto it = dh.find("latency." + cls); it != dh.end())
                addHist("mem.dram.lat." + cls, it->second);
            sums["mem.llc_front.requests." + cls] +=
                double(soc.llcFront().classRequests(c));
            addHist("mem.llc_front.lat." + cls, soc.llcFront().classLatency(c));
        }
        if (mem::CoherenceFabric *coh = soc.coherence()) {
            for (unsigned s = 0; s < coh->numSlices(); ++s) {
                const sim::StatGroup &g = coh->slice(s).stats();
                for (const char *k : {"invalidations", "interventions",
                                      "upgrades", "busy_waits"})
                    sums[std::string("mem.dir.") + k] +=
                        double(g.counterValue(k));
                if (auto it = g.histograms().find("txn_cycles");
                    it != g.histograms().end())
                    addHist("mem.dir.txn", it->second);
            }
            if (mem::CoherenceChecker *ck = coh->checker())
                sums["mem.checker.checks"] +=
                    double(ck->loadsChecked() + ck->storesChecked());
        }
        sums["noc.packets"] += double(soc.mesh().packets());
        sums["noc.flits"] += double(soc.mesh().flitsSent());
        if (trace::TraceManager *tr = soc.tracer()) {
            for (unsigned c = 0; c < kStallCauses; ++c)
                sums[stallMetric(c)] +=
                    double(tr->stallCycles(static_cast<trace::StallCause>(c)));
        }
    }

    /** this − @p before, as the per-layer metrics of the measured phase. */
    Flat
    since(const Stats &before) const
    {
        Flat d;
        for (const auto &[k, v] : sums) {
            auto it = before.sums.find(k);
            d[k] = v - (it == before.sums.end() ? 0.0 : it->second);
        }
        auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
        d["cpu.load_lat_cyc"] = ratio(d["cpu.load_lat_sum"], d["cpu.loads"]);
        d.erase("cpu.load_lat_sum");
        for (const char *c : {"mem.l1", "mem.llc"}) {
            std::string p = c;
            double hits = d[p + ".hits"], acc = hits + d[p + ".misses"];
            d[p + ".accesses"] = acc;
            d[p + ".hit_rate"] = ratio(hits, acc);
            d.erase(p + ".hits");
            d.erase(p + ".misses");
        }
        for (const auto &[k, after] : hists) {
            std::vector<std::uint64_t> delta = after;
            if (auto it = before.hists.find(k); it != before.hists.end())
                for (size_t i = 0; i < delta.size(); ++i)
                    delta[i] -= it->second[i];
            // "mem.dram.lat.core" -> "mem.dram.lat_p50.core"
            std::string head = "mem.dir.txn_cyc", tail;
            if (k == "mem.dir.txn") {
                std::uint64_t n = 0;
                for (std::uint64_t c : delta)
                    n += c;
                d["mem.dir.txns"] = double(n);
            } else {
                size_t dot = k.rfind(".lat.");
                head = k.substr(0, dot + 4);
                tail = k.substr(dot + 4);
            }
            d[head + "_p50" + tail] = bucketPercentile(delta, 0.50);
            d[head + "_p99" + tail] = bucketPercentile(delta, 0.99);
        }
        return d;
    }
};

std::uint64_t
fnv64(const void *data, size_t n, std::uint64_t h = 1469598103934665603ull)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx", (unsigned long long)v);
    return buf;
}

/** One timed repetition of a workload. */
struct Rep {
    double setup_s = 0, wall_s = 0;
    double cal_eps = 0;  ///< mean host_speed sample rate during this rep
    std::uint64_t attempted = 1;  ///< ops: 1, or one per cell for fig08
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    Flat counts;         ///< simulated statistics of the measured phase
    Flat stalls;         ///< trace.stall.* (traced reps only)
    json::Object extra;  ///< result checksum, per-cell cycles (fig08)

    void
    fail(std::string why, std::uint64_t ops = 1)
    {
        failed = std::min(attempted, failed + ops);
        errors.push_back(std::move(why));
    }

    /** Record the measured phase's statistics and result checksum. */
    void
    measured(Flat stats, std::uint64_t checksum)
    {
        for (auto &[k, v] : stats)
            (k.rfind("trace.", 0) == 0 ? stalls : counts)[k] = v;
        extra.emplace_back("checksum", json::Value(hex64(checksum)));
    }

    /** The simulated fingerprint (counts + extra) must repeat exactly
     *  across reps and host thread counts. */
    bool
    sameSimulation(const Rep &o) const
    {
        return counts == o.counts && json::Value(extra) == json::Value(o.extra);
    }
};

/** One rep of a workload: fills @p rep; @p host_threads drives a SocGrid. */
using RepFn = void (*)(const Options &, SpanLog &, Rep &,
                      unsigned host_threads);

// ------------------------------------------------------------------ fig08

/**
 * The Figure 8 grid: four apps x {doall, sw-decouple, maple-decouple} on
 * the FPGA SoC, cold caches, one Workload::run per cell so a bad cell is
 * counted instead of aborting the grid. Workload::run builds its SoCs
 * internally, so only RunResult fields are visible as layer counts here.
 */
void
fig08(const Options &o, SpanLog &log, Rep &rep, unsigned)
{
    const app::Technique techs[] = {app::Technique::Doall,
                                    app::Technique::SwDecouple,
                                    app::Technique::MapleDecouple};
    std::vector<std::unique_ptr<app::Workload>> apps;
    rep.attempted = 4 * std::size(techs);
    {
        Scope setup(log, "setup", &rep.setup_s);
        Scope ds(log, "setup.dataset");
        // Dataset seeds follow app::allWorkloads() order; --seed 1 gives the
        // default datasets (sdhp 2, spmm 3, spmv 1, bfs 4).
        const std::uint64_t s = o.seed;
        if (o.smoke) {
            apps.push_back(app::makeSdhp(128, 256, 16, s + 1));
            apps.push_back(app::makeSpmm(32, 8, s + 2));
            apps.push_back(app::makeSpmv(256, 4096, 8, s));
            apps.push_back(app::makeBfs(10, 8, s + 3));
        } else {
            apps.push_back(app::makeSdhp(2048, 1024, 16, s + 1));
            apps.push_back(app::makeSpmm(256, 8, s + 2));
            apps.push_back(app::makeSpmv(4096, 65536, 8, s));
            apps.push_back(app::makeBfs(15, 8, s + 3));
        }
    }

    std::vector<app::RunResult> cells;
    {
        Scope run(log, "run", &rep.wall_s);
        for (auto &w : apps) {
            for (app::Technique t : techs) {
                std::string cell = w->name() + "." + app::techniqueName(t);
                Scope cs(log, "run." + cell);
                app::RunConfig cfg;
                cfg.tech = t;
                cfg.threads = 2;
                cfg.soc = soc::SocConfig::fpga();
                try {
                    cells.push_back(w->run(cfg));
                } catch (const std::exception &e) {
                    rep.fail(cell + ": " + e.what());
                }
            }
        }
    }

    Scope validate(log, "validate");
    Flat counts;
    double lat_sum = 0;
    std::uint64_t checksum = 1469598103934665603ull;
    std::map<std::string, std::map<std::string, double>> cycles;
    for (const app::RunResult &r : cells) {
        std::string cell = r.workload + "." + r.technique;
        if (!r.valid)
            rep.fail(cell + ": checksum differs from the host golden");
        counts["sim.events"] += double(r.sim_events);
        counts["sim.cycles"] += double(r.cycles);
        counts["cpu.insts"] += double(r.instructions);
        counts["cpu.loads"] += double(r.loads);
        counts["cpu.stores"] += double(r.stores);
        lat_sum += r.mean_load_latency * double(r.loads);
        rep.extra.emplace_back("cycles." + cell, json::Value(r.cycles));
        checksum = fnv64(&r.checksum, sizeof r.checksum, checksum);
        cycles[r.workload][r.technique] = double(r.cycles);
    }
    counts["cpu.load_lat_cyc"] =
        counts["cpu.loads"] > 0 ? lat_sum / counts["cpu.loads"] : 0.0;
    // Model error against the paper's FPGA geomean (EXPERIMENTS.md: 1.51x).
    std::vector<double> speedups;
    for (auto &[w, by_tech] : cycles)
        if (by_tech.count("doall") && by_tech.count("maple-decouple"))
            speedups.push_back(by_tech["doall"] / by_tech["maple-decouple"]);
    if (speedups.size() == apps.size())
        counts["model_err_pct"] =
            std::fabs(sim::geomean(speedups) - 1.51) / 1.51 * 100.0;
    rep.measured(std::move(counts), checksum);
}

// ------------------------------------------------------------- spmv_maple

/** The paper's headline mechanism: MAPLE-decoupled SPMV scenario on one
 *  caller-owned FPGA Soc, statistics after the 64-row warm pass. */
void
spmvMaple(const Options &o, SpanLog &log, Rep &rep, unsigned)
{
    harness::ScenarioSpec spec;
    spec.rows = o.smoke ? 1024 : 65536;
    spec.cols = o.smoke ? 4096 : 65536;
    spec.nnz_per_row = 8;
    spec.seed = o.seed;
    spec.warm_rows = 64;
    spec.technique = "maple";
    spec.queue_entries = 32;

    std::unique_ptr<soc::Soc> soc;
    {
        Scope setup(log, "setup", &rep.setup_s);
        {
            Scope s(log, "setup.soc");
            soc = std::make_unique<soc::Soc>(harness::scenarioSocConfig(spec));
        }
        std::vector<sim::Join> warm;
        {
            Scope s(log, "setup.upload");  // dataset generation + upload
            warm = harness::spawnScenarioWarm(*soc, spec);
        }
        Scope s(log, "setup.warm");
        soc->run(std::move(warm));
    }
    Stats before;
    before.addSoc(*soc);
    harness::ScenarioResult res;
    {
        // measureScenario also recomputes the golden (a few ms).
        Scope run(log, "run", &rep.wall_s);
        res = harness::measureScenario(*soc, spec);
    }
    {
        Scope validate(log, "validate");
        Stats after;
        after.addSoc(*soc);
        Flat counts = after.since(before);
        counts["sim.cycles"] = double(res.result.cycles);
        rep.measured(std::move(counts), res.result.checksum);
        if (!res.result.valid)
            rep.fail("y differs from the host golden");
    }
    Scope teardown(log, "teardown");
    soc.reset();
}

// ------------------------------------------------------------- cohgrid256

/** Simulated-memory arrays of the coherent decoupled SPMV grid. */
struct GridArrays {
    app::SimCsr m;
    app::SimArray<float> x, y;
    app::SimArray<std::uint32_t> progress;  ///< actively-shared lines
};

sim::Task<void>
gridAccess(cpu::Core &core, GridArrays &s, core::MapleApi &api, unsigned q,
           app::Chunk rows)
{
    auto jb = static_cast<std::uint32_t>(
        co_await core.load(s.m.row_ptr.addr(rows.begin), 4));
    for (std::uint64_t r = rows.begin; r < rows.end; ++r) {
        auto je = static_cast<std::uint32_t>(
            co_await core.load(s.m.row_ptr.addr(r + 1), 4));
        for (std::uint32_t j = jb; j < je; ++j) {
            auto c = static_cast<std::uint32_t>(
                co_await core.load(s.m.col_idx.addr(j), 4));
            co_await core.compute(1);
            co_await api.producePtr(core, q, s.x.addr(c));
        }
        jb = je;
    }
}

sim::Task<void>
gridExecute(cpu::Core &core, GridArrays &s, core::MapleApi &api, unsigned q,
            app::Chunk rows, unsigned slot)
{
    auto jb = static_cast<std::uint32_t>(
        co_await core.load(s.m.row_ptr.addr(rows.begin), 4));
    for (std::uint64_t r = rows.begin; r < rows.end; ++r) {
        auto je = static_cast<std::uint32_t>(
            co_await core.load(s.m.row_ptr.addr(r + 1), 4));
        float acc = 0.0f;
        for (std::uint32_t j = jb; j < je; ++j) {
            float v = app::f32FromBits(co_await core.load(s.m.vals.addr(j), 4));
            float xv = app::f32FromBits(co_await api.consume(core, q));
            co_await core.compute(1);
            acc += v * xv;
        }
        co_await core.store(s.y.addr(r), app::bitsFromF32(acc), 4);
        // Many executors bump the same few counters: under MSI a stream of
        // upgrade misses and invalidations beside the gathers.
        auto p = static_cast<std::uint32_t>(
            co_await core.loadShared(s.progress.addr(slot), 4));
        co_await core.storeShared(s.progress.addr(slot), p + 1, 4);
        jb = je;
    }
}

/**
 * bench_coherence_grid's 256-tile configuration (192 cores, 48 MAPLEs with
 * two queue pairs each, 16 LLC/directory slices, MSI + checker): each
 * access core produces x pointers for its execute core, which
 * multiply-accumulates rows and bumps a shared progress slot.
 */
void
cohGrid256(const Options &o, SpanLog &log, Rep &rep, unsigned)
{
    constexpr unsigned kCores = 192, kMaples = 48, kSlices = 16;
    constexpr unsigned kPairs = kCores / 2, kPairsPerMaple = kPairs / kMaples;
    constexpr unsigned kSlots = kPairs / 4 + 1;
    constexpr std::uint32_t kCols = 4096, kNnz = 8;
    const std::uint32_t rows = kPairs * (o.smoke ? 8 : 512);

    app::SparseMatrix m;
    std::vector<float> x, golden;
    std::unique_ptr<soc::Soc> soc;
    GridArrays a;
    std::vector<core::MapleApi> apis;
    {
        Scope setup(log, "setup", &rep.setup_s);
        {
            Scope s(log, "setup.dataset");
            // --seed 1 gives bench_coherence_grid's datasets (seeds 7, 77).
            m = app::makeSkewedSparse(rows, kCols, kNnz, o.seed + 6, 2.0);
            x = app::makeDenseVector(kCols, o.seed + 76);
            golden.assign(rows, 0.0f);
            for (std::uint32_t r = 0; r < rows; ++r) {
                float acc = 0.0f;
                for (std::uint32_t j = m.row_ptr[r]; j < m.row_ptr[r + 1]; ++j)
                    acc += m.vals[j] * x[m.col_idx[j]];
                golden[r] = acc;
            }
            if (o.corrupt_golden)
                golden[0] += 1.0f;
        }
        {
            Scope s(log, "setup.soc");
            soc::SocConfig cfg = soc::SocConfig::simulated(kCores);
            cfg.name = "coh-grid-256";
            cfg.num_maples = kMaples;
            cfg.mesh_width = 0;
            cfg.mesh_height = 0;
            cfg.coherence.mode = mem::CoherenceMode::Msi;
            cfg.coherence.checker = true;
            cfg.llc_slices = kSlices;
            soc = std::make_unique<soc::Soc>(cfg);
        }
        {
            Scope s(log, "setup.upload");
            os::Process &proc = soc->createProcess("coh-grid");
            a.m = app::SimCsr::upload(proc, m, true);
            a.x = app::SimArray<float>(proc, x.size(), "x");
            a.x.upload(x);
            a.y = app::SimArray<float>(proc, rows, "y");
            a.progress = app::SimArray<std::uint32_t>(proc, kSlots, "progress");
            for (unsigned i = 0; i < kMaples; ++i)
                apis.push_back(core::MapleApi::attach(proc, soc->maple(i)));
        }
        Scope s(log, "setup.warm");  // queue INIT/OPEN on every MAPLE
        auto open = [&](cpu::Core &c) -> sim::Task<void> {
            for (core::MapleApi &api : apis) {
                co_await api.init(c, kPairsPerMaple, 32, 4);
                for (unsigned q = 0; q < kPairsPerMaple; ++q) {
                    bool ok = co_await api.open(c, q);
                    MAPLE_ASSERT(ok, "queue open failed");
                }
            }
        };
        soc->run({sim::spawn(open(soc->core(0)))});
    }
    Stats before;
    before.addSoc(*soc);
    sim::Cycle cycles = 0;
    {
        Scope run(log, "run", &rep.wall_s);
        std::vector<sim::Join> joins;
        for (unsigned p = 0; p < kPairs; ++p) {
            core::MapleApi &api = apis[p / kPairsPerMaple];
            unsigned q = p % kPairsPerMaple;
            app::Chunk r = app::chunkOf(rows, p, kPairs);
            joins.push_back(sim::spawn(gridAccess(soc->core(2 * p), a, api, q, r)));
            joins.push_back(sim::spawn(
                gridExecute(soc->core(2 * p + 1), a, api, q, r, p % kSlots)));
        }
        cycles = soc->run(std::move(joins));
    }
    {
        Scope validate(log, "validate");
        std::vector<float> y = a.y.download();
        std::vector<std::uint32_t> progress = a.progress.download();
        Stats after;
        after.addSoc(*soc);
        Flat counts = after.since(before);
        counts["sim.cycles"] = double(cycles);
        std::uint64_t sum = fnv64(y.data(), y.size() * sizeof(float));
        rep.measured(std::move(counts),
                     fnv64(progress.data(), progress.size() * 4, sum));
        if (y != golden)
            rep.fail("y differs from the host golden");
    }
    Scope teardown(log, "teardown");
    soc.reset();
}

// ---------------------------------------------------------- restore_grid4

/**
 * Campaign fan-out: warm one FPGA Soc on a doall SPMV scenario, snapshot
 * it, restore the image into every chip of a 4-chip SocGrid and run doall
 * on all chips through the sharded engine at @p host_threads.
 */
void
restoreGrid4(const Options &o, SpanLog &log, Rep &rep, unsigned host_threads)
{
    constexpr unsigned kChips = 4;
    harness::ScenarioSpec spec;
    spec.rows = o.smoke ? 1024 : 32768;
    spec.seed = o.seed;
    spec.warm_rows = 64;
    spec.technique = "doall";

    std::unique_ptr<soc::Soc> warm;
    std::unique_ptr<soc::SocGrid> grid;
    std::string image;
    {
        Scope setup(log, "setup", &rep.setup_s);
        {
            Scope s(log, "setup.soc");
            warm = std::make_unique<soc::Soc>(harness::scenarioSocConfig(spec));
        }
        std::vector<sim::Join> joins;
        {
            Scope s(log, "setup.upload");  // dataset generation + upload
            joins = harness::spawnScenarioWarm(*warm, spec);
        }
        {
            Scope s(log, "setup.warm");
            warm->run(std::move(joins));
        }
        {
            Scope s(log, "ckpt.snapshot");
            std::ostringstream os;
            warm->snapshot(os);
            image = std::move(os).str();
        }
        {
            Scope s(log, "setup.grid");
            soc::SocGridConfig gc = soc::SocGridConfig::uniform(
                harness::scenarioSocConfig(spec), kChips);
            gc.host_threads = host_threads;
            grid = std::make_unique<soc::SocGrid>(gc);
        }
        Scope s(log, "ckpt.restore");
        for (unsigned i = 0; i < kChips; ++i) {
            std::istringstream in(image);
            grid->restore(i, in);
        }
    }
    auto snap = [&] {
        Stats st;
        for (unsigned i = 0; i < kChips; ++i)
            st.addSoc(grid->soc(i));
        st.sums["sim.quanta"] = double(grid->engine().quanta());
        st.sums["sim.messages_merged"] = double(grid->engine().messagesMerged());
        return st;
    };
    Stats before = snap();
    std::vector<sim::Cycle> starts;
    sim::Cycle cycles = 0;
    {
        Scope run(log, "run", &rep.wall_s);
        std::vector<sim::Join> joins;
        for (unsigned i = 0; i < kChips; ++i) {
            starts.push_back(grid->soc(i).eq().now());
            for (sim::Join &j : harness::spawnScenarioDoall(grid->soc(i), spec))
                joins.push_back(std::move(j));
        }
        cycles = grid->run(std::move(joins));
    }
    {
        Scope validate(log, "validate");
        std::uint64_t checksum = 1469598103934665603ull;
        for (unsigned i = 0; i < kChips; ++i) {
            harness::ScenarioResult r =
                harness::collectScenarioResult(grid->soc(i), spec, starts[i]);
            if (!r.result.valid)
                rep.fail("chip " + std::to_string(i) +
                         ": y differs from the host golden");
            checksum = fnv64(&r.result.checksum, 8, checksum);
            checksum = fnv64(&r.result.cycles, 8, checksum);
        }
        Flat counts = snap().since(before);
        counts["sim.cycles"] = double(cycles);
        counts["ckpt.image_kb"] = double(image.size()) / 1024.0;
        rep.measured(std::move(counts), checksum);
    }
    Scope teardown(log, "teardown");
    grid.reset();
    warm.reset();
}

// ------------------------------------------------------------- main loop

Rep
runRep(RepFn fn, const Options &o, SpanLog &log, unsigned host_threads)
{
    Rep rep;
    const std::size_t first_sample = host_speed::count();
    try {
        Scope s(log, "rep");
        fn(o, log, rep, host_threads);
    } catch (const std::exception &e) {
        rep.fail(e.what(), rep.attempted);
    }
    rep.cal_eps = host_speed::meanRateSince(first_sample);
    return rep;
}

json::Value
flatJson(const Flat &f)
{
    json::Object o;
    for (const auto &[k, v] : f)
        o.emplace_back(k, json::Value(v));
    return json::Value(std::move(o));
}

/** Sum of every "stallAttribution" block among this workload's simulator
 *  traces (the block sits in the last few hundred bytes of each file). */
Flat
traceFileStalls(const std::vector<std::filesystem::path> &files)
{
    Flat out;
    for (const auto &path : files) {
        std::ifstream f(path, std::ios::binary | std::ios::ate);
        std::streamoff size = f.tellg();
        f.seekg(std::max<std::streamoff>(0, size - 4096));
        std::string tail((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
        size_t k = tail.find("\"stallAttribution\":");
        MAPLE_CHECK(k != std::string::npos, sim::FatalError,
                    "%s: no stallAttribution", path.c_str());
        size_t b = tail.find('{', k), e = tail.find('}', b);
        json::Value v = json::parse(tail.substr(b, e - b + 1));
        for (unsigned c = 0; c < kStallCauses; ++c)
            if (const json::Value *n = v.get(
                    trace::stallCauseName(static_cast<trace::StallCause>(c))))
                out[stallMetric(c)] += n->asDouble();
    }
    return out;
}

/**
 * Peak resident set of this process image, in MiB. VmHWM belongs to the
 * address space exec() created; getrusage's ru_maxrss would instead carry
 * over the launching process's high-water mark (e.g. run_benchmark.py's).
 */
double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    for (std::string line; std::getline(f, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    MAPLE_THROW(sim::FatalError, "no VmHWM in /proc/self/status");
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "bench_e2e: %s\n"
                 "usage: bench_e2e --workload fig08|spmv_maple|cohgrid256|"
                 "restore_grid4 [--seed N] [--seconds S] [--threads N]\n"
                 "                 [--trace-dir DIR] [--smoke] "
                 "[--corrupt-golden]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseCount(const char *flag, const char *v)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long n = std::strtoull(v, &end, 10);
    if (errno || !end || *end || *v == '-' || *v == '\0')
        usage((std::string("bad value for ") + flag).c_str());
    return n;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage((a + " needs a value").c_str());
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = parseCount("--seed", value());
        else if (a == "--seconds")
            o.seconds = double(parseCount("--seconds", value()));
        else if (a == "--threads")
            o.threads = unsigned(std::min<std::uint64_t>(
                64, parseCount("--threads", value())));
        else if (a == "--trace-dir")
            o.trace_dir = value();
        else if (a == "--smoke")
            o.smoke = true;
        else if (a == "--corrupt-golden")
            o.corrupt_golden = true;
        else
            usage(("unknown argument " + a).c_str());
    }
    if (o.threads == 0)
        o.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    return o;
}

}  // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    SpanLog log;
    const std::map<std::string, RepFn> table = {{"fig08", fig08},
                                             {"spmv_maple", spmvMaple},
                                             {"cohgrid256", cohGrid256},
                                             {"restore_grid4", restoreGrid4}};
    auto it = table.find(o.workload);
    if (it == table.end())
        usage("unknown workload");
    const RepFn fn = it->second;

    std::vector<Rep> reps;
    const size_t min_reps = o.smoke ? 1 : 3;
    const auto t0 = std::chrono::steady_clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
            .count();
    };
    // Peak RSS is read after the first rep: later reps only replay the same
    // job, and how many fit in --seconds must not move the metric.
    double peak_rss_mb = 0;
    host_speed::start();  // samples while reps run; stopped before probes
    // A rep starts only if one more, as long as the last, still ends
    // within --seconds, so a run never overshoots by up to a rep.
    double last_rep_s = 0;
    while (reps.size() < min_reps || elapsed() + last_rep_s <= o.seconds) {
        const double start = elapsed();
        log.setRep(int(reps.size()));
        reps.push_back(runRep(fn, o, log, 1));
        last_rep_s = elapsed() - start;
        if (reps.size() == 1)
            peak_rss_mb = peakRssMb();
    }

    // Simulated results are deterministic: any rep whose fingerprint
    // differs from the first passing rep's is a failed op.
    const Rep *ref = nullptr;
    for (Rep &r : reps) {
        if (r.failed)
            continue;
        if (!ref)
            ref = &r;
        else if (!r.sameSimulation(*ref))
            r.fail("simulated fingerprint differs from the first rep's");
    }

    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> errors;
    // Host times stay raw here; run_benchmark.py rescales them by cal_eps.
    auto repJson = [&](const Rep &r) {
        attempted += r.attempted;
        failed += r.failed;
        for (const std::string &e : r.errors)
            errors.push_back(e);
        json::Object d;
        d.emplace_back("setup_s", json::Value(r.setup_s));
        d.emplace_back("wall_s", json::Value(r.wall_s));
        d.emplace_back("cal_eps", json::Value(r.cal_eps));
        auto insts = r.counts.find("cpu.insts");
        d.emplace_back("insts", json::Value(insts == r.counts.end()
                                                ? 0.0
                                                : insts->second));
        d.emplace_back("failed", json::Value(r.failed));
        return d;
    };

    json::Object out;
    out.emplace_back("workload", json::Value(o.workload));
    out.emplace_back("seed", json::Value(o.seed));
    out.emplace_back("smoke", json::Value(o.smoke));
    json::Array rep_docs;
    for (const Rep &r : reps)
        rep_docs.emplace_back(repJson(r));
    out.emplace_back("reps", json::Value(std::move(rep_docs)));
    out.emplace_back("peak_rss_mb", json::Value(peak_rss_mb));
    if (ref) {
        out.emplace_back("counts", flatJson(ref->counts));
        out.emplace_back("extra", json::Value(ref->extra));
    }
    if (o.workload == "fig08")
        out.emplace_back(
            "note",
            json::Value("Workload::run builds its SoCs internally: layer "
                        "counts are RunResult fields only"));

    if (o.workload == "restore_grid4") {
        // Parallel scaling, reported but not gated; its fingerprint must
        // match the 1-thread reps'.
        log.setRep(int(reps.size()));
        Rep par = runRep(fn, o, log, o.threads);
        if (!par.failed && ref && !par.sameSimulation(*ref))
            par.fail("fingerprint at " + std::to_string(o.threads) +
                     " host threads differs from 1 thread");
        json::Object g = repJson(par);
        g.emplace_back("threads", json::Value(o.threads));
        out.emplace_back("grid", json::Value(std::move(g)));
    }

    if (!o.trace_dir.empty()) {
        namespace fs = std::filesystem;
        fs::create_directories(o.trace_dir);
        const std::string stem = o.workload + ".sim.";
        auto simTraces = [&] {
            std::vector<fs::path> v;
            for (const auto &e : fs::directory_iterator(o.trace_dir)) {
                std::string n = e.path().filename().string();
                if (n.rfind(stem, 0) == 0 && e.path().extension() == ".json")
                    v.push_back(e.path());
            }
            return v;
        };
        for (const fs::path &p : simTraces())
            fs::remove(p);
        const std::string sim_trace =
            (fs::path(o.trace_dir) / (stem + "json")).string();
        setenv("MAPLE_TRACE", sim_trace.c_str(), 1);
        const int traced_rep = int(reps.size()) + 1;
        log.setRep(traced_rep);
        Rep tr = runRep(fn, o, log, 1);
        unsetenv("MAPLE_TRACE");
        // fig08's SoCs live inside Workload::run; their stall attribution
        // is only reachable through the trace files they leave behind.
        std::vector<fs::path> files = simTraces();
        if (o.workload == "fig08")
            tr.stalls = traceFileStalls(files);
        for (const fs::path &p : files)
            fs::remove(p);
        json::Object t = repJson(tr);
        t.emplace_back("rep", json::Value(traced_rep));
        t.emplace_back("stalls", flatJson(tr.stalls));
        out.emplace_back("traced", json::Value(std::move(t)));
        json::writeFile(
            (fs::path(o.trace_dir) / (o.workload + ".spans.json")).string(),
            log.chromeTrace());
        host_speed::stop();
        Flat probes;
        for (const auto &[name, ns] : perfbench::runProbes(o.smoke))
            probes[name] = ns;
        out.emplace_back("probes", flatJson(probes));
    }

    host_speed::stop();
    out.emplace_back("attempted", json::Value(attempted));
    out.emplace_back("failed", json::Value(failed));
    for (const std::string &e : errors)
        std::fprintf(stderr, "bench_e2e: %s: %s\n", o.workload.c_str(),
                     e.c_str());
    std::cout << json::dumpCompact(json::Value(std::move(out))) << std::endl;
    return 0;
}
