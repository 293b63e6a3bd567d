#include "harness/scenario.hpp"

#include <vector>

#include "core/maple_runtime.hpp"
#include "harness/stats_io.hpp"
#include "sim/coro.hpp"
#include "sim/random.hpp"

namespace maple::harness {

namespace {

/**
 * Host-side copy of the SPMV dataset (CSR, uniform nnz_per_row, u32
 * wrap-around arithmetic so doall and decoupled runs are bit-comparable).
 * Regenerated from the seed whenever needed -- warm() materializes it into
 * simulated memory, measure() recomputes the golden result from it.
 */
struct SpmvData {
    std::vector<std::uint32_t> row_ptr;  // rows + 1
    std::vector<std::uint32_t> col_idx;  // nnz
    std::vector<std::uint32_t> vals;     // nnz
    std::vector<std::uint32_t> x;        // cols
    std::vector<std::uint32_t> golden;   // rows
};

SpmvData
buildSpmv(const ScenarioSpec &s)
{
    sim::Rng rng(s.seed);
    SpmvData d;
    const std::uint64_t nnz =
        static_cast<std::uint64_t>(s.rows) * s.nnz_per_row;
    d.row_ptr.resize(s.rows + 1);
    for (std::uint32_t r = 0; r <= s.rows; ++r)
        d.row_ptr[r] = r * s.nnz_per_row;
    d.col_idx.resize(nnz);
    d.vals.resize(nnz);
    for (std::uint64_t j = 0; j < nnz; ++j) {
        d.col_idx[j] = static_cast<std::uint32_t>(rng.next() % s.cols);
        d.vals[j] = static_cast<std::uint32_t>(rng.next());
    }
    d.x.resize(s.cols);
    for (std::uint32_t i = 0; i < s.cols; ++i)
        d.x[i] = static_cast<std::uint32_t>(rng.next());
    d.golden.resize(s.rows);
    for (std::uint32_t r = 0; r < s.rows; ++r) {
        std::uint32_t acc = 0;
        for (std::uint32_t j = d.row_ptr[r]; j < d.row_ptr[r + 1]; ++j)
            acc += d.vals[j] * d.x[d.col_idx[j]];
        d.golden[r] = acc;
    }
    return d;
}

std::uint64_t
fnv64(const std::vector<std::uint32_t> &v)
{
    std::uint64_t h = 1469598103934665603ull;
    for (std::uint32_t w : v) {
        for (int i = 0; i < 4; ++i) {
            h ^= (w >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
    return h;
}

/** Dataset vaddrs, from fresh allocation or tagged-region recovery. */
struct SpmvAddrs {
    sim::Addr row_ptr = 0, col_idx = 0, vals = 0, x = 0, y = 0;
};

SpmvAddrs
lookupAddrs(const os::Process &proc)
{
    SpmvAddrs a;
    a.row_ptr = proc.regionBase("spmv.row_ptr");
    a.col_idx = proc.regionBase("spmv.col_idx");
    a.vals = proc.regionBase("spmv.vals");
    a.x = proc.regionBase("spmv.x");
    a.y = proc.regionBase("spmv.y");
    return a;
}

/** One functional write per array; pages are demand-mapped in ascending
 *  order, as element-wise writes would map them. */
void
writeArray(os::Process &proc, sim::Addr base,
           const std::vector<std::uint32_t> &v)
{
    proc.writeBytes(base, v.data(), v.size() * sizeof(std::uint32_t));
}

/** Load-only row sweep that heats the caches and TLBs. */
sim::Task<void>
warmWorker(cpu::Core &core, SpmvAddrs a, app::Chunk rows)
{
    std::uint64_t sink = 0;
    for (std::uint64_t r = rows.begin; r < rows.end; ++r) {
        auto jb = static_cast<std::uint32_t>(
            co_await core.load(a.row_ptr + 4 * r, 4));
        auto je = static_cast<std::uint32_t>(
            co_await core.load(a.row_ptr + 4 * (r + 1), 4));
        for (std::uint32_t j = jb; j < je; ++j) {
            auto c = static_cast<std::uint32_t>(
                co_await core.load(a.col_idx + 4 * j, 4));
            sink += co_await core.load(a.vals + 4 * j, 4);
            sink += co_await core.load(a.x + 4 * c, 4);
        }
    }
    (void)sink;
}

sim::Task<void>
doallWorker(cpu::Core &core, SpmvAddrs a, app::Chunk rows)
{
    for (std::uint64_t r = rows.begin; r < rows.end; ++r) {
        auto jb = static_cast<std::uint32_t>(
            co_await core.load(a.row_ptr + 4 * r, 4));
        auto je = static_cast<std::uint32_t>(
            co_await core.load(a.row_ptr + 4 * (r + 1), 4));
        std::uint32_t acc = 0;
        for (std::uint32_t j = jb; j < je; ++j) {
            auto c = static_cast<std::uint32_t>(
                co_await core.load(a.col_idx + 4 * j, 4));
            auto v = static_cast<std::uint32_t>(
                co_await core.load(a.vals + 4 * j, 4));
            auto xv = static_cast<std::uint32_t>(
                co_await core.load(a.x + 4 * c, 4));
            co_await core.compute(1);
            acc += v * xv;
        }
        co_await core.store(a.y + 4 * r, acc, 4);
    }
}

/** Decoupled access slice: stream col_idx, produce &x[c] into the queue. */
sim::Task<void>
accessWorker(cpu::Core &core, core::MapleApi &api, SpmvAddrs a,
             std::uint32_t rows)
{
    auto jb = static_cast<std::uint32_t>(co_await core.load(a.row_ptr, 4));
    auto je = static_cast<std::uint32_t>(
        co_await core.load(a.row_ptr + 4 * rows, 4));
    for (std::uint32_t j = jb; j < je; ++j) {
        auto c = static_cast<std::uint32_t>(
            co_await core.load(a.col_idx + 4 * j, 4));
        co_await api.producePtr(core, 0, a.x + 4 * c);
    }
}

/** Decoupled execute slice: consume x values, multiply-accumulate rows. */
sim::Task<void>
executeWorker(cpu::Core &core, core::MapleApi &api, SpmvAddrs a,
              std::uint32_t rows)
{
    auto jb = static_cast<std::uint32_t>(co_await core.load(a.row_ptr, 4));
    for (std::uint32_t r = 0; r < rows; ++r) {
        auto je = static_cast<std::uint32_t>(
            co_await core.load(a.row_ptr + 4 * (r + 1), 4));
        std::uint32_t acc = 0;
        for (std::uint32_t j = jb; j < je; ++j) {
            auto v = static_cast<std::uint32_t>(
                co_await core.load(a.vals + 4 * j, 4));
            auto xv = static_cast<std::uint32_t>(
                co_await api.consumeReliable(core, 0));
            co_await core.compute(1);
            acc += v * xv;
        }
        co_await core.store(a.y + 4 * r, acc, 4);
        jb = je;
    }
}

}  // namespace

ScenarioSpec
parseScenarioSpec(const json::Value &job)
{
    MAPLE_CHECK(job.isObject(), json::JsonError,
                "scenario job is not an object");
    ScenarioSpec s;
    s.scenario = job.getString("scenario", s.scenario);
    MAPLE_CHECK(s.scenario == "spmv", json::JsonError,
                "unknown scenario \"%s\"", s.scenario.c_str());
    s.rows = static_cast<std::uint32_t>(job.getInt("rows", s.rows));
    s.nnz_per_row =
        static_cast<std::uint32_t>(job.getInt("nnz_per_row", s.nnz_per_row));
    s.cols = static_cast<std::uint32_t>(job.getInt("cols", s.cols));
    s.seed = static_cast<std::uint64_t>(job.getInt("seed", 1));
    s.warm_rows = static_cast<std::uint32_t>(
        job.getInt("warm_rows", std::min<std::int64_t>(s.rows, s.warm_rows)));
    s.technique = job.getString("technique", s.technique);
    MAPLE_CHECK(s.technique == "doall" || s.technique == "maple",
                json::JsonError, "unknown technique \"%s\"",
                s.technique.c_str());
    s.queue_entries = static_cast<unsigned>(
        job.getInt("queue_entries", s.queue_entries));
    s.host_threads = static_cast<unsigned>(
        job.getInt("host_threads", s.host_threads));
    MAPLE_CHECK(s.host_threads >= 1, json::JsonError,
                "host_threads must be >= 1");
    s.ecc = job.getString("ecc", s.ecc);
    MAPLE_CHECK(s.ecc == "off" || s.ecc == "secded", json::JsonError,
                "unknown ecc mode \"%s\" (want off|secded)", s.ecc.c_str());
    if (const json::Value *soc = job.get("soc")) {
        s.soc_preset = soc->getString("preset", s.soc_preset);
        MAPLE_CHECK(s.soc_preset == "fpga" || s.soc_preset == "simulated",
                    json::JsonError, "unknown soc preset \"%s\"",
                    s.soc_preset.c_str());
        s.num_cores =
            static_cast<unsigned>(soc->getInt("cores", s.num_cores));
        s.coherence = soc->getString("coherence", s.coherence);
        MAPLE_CHECK(mem::parseCoherenceMode(s.coherence).has_value(),
                    json::JsonError, "unknown coherence mode \"%s\"",
                    s.coherence.c_str());
        s.llc_slices = static_cast<unsigned>(
            soc->getInt("llc_slices", s.llc_slices));
        MAPLE_CHECK(s.llc_slices >= 1, json::JsonError,
                    "llc_slices must be >= 1");
    }
    MAPLE_CHECK(s.rows > 0 && s.nnz_per_row > 0 && s.cols > 0 &&
                    s.num_cores >= 2 && s.warm_rows <= s.rows,
                json::JsonError, "bad scenario geometry");
    return s;
}

json::Value
scenarioSpecJson(const ScenarioSpec &s)
{
    json::Value v = scenarioWarmKey(s);
    v.set("technique", json::Value(s.technique));
    v.set("queue_entries", json::Value(s.queue_entries));
    return v;
}

json::Value
scenarioWarmKey(const ScenarioSpec &s)
{
    json::Object o;
    o.emplace_back("scenario", json::Value(s.scenario));
    o.emplace_back("rows", json::Value(s.rows));
    o.emplace_back("nnz_per_row", json::Value(s.nnz_per_row));
    o.emplace_back("cols", json::Value(s.cols));
    o.emplace_back("seed", json::Value(s.seed));
    o.emplace_back("warm_rows", json::Value(s.warm_rows));
    o.emplace_back("soc_preset", json::Value(s.soc_preset));
    o.emplace_back("num_cores", json::Value(s.num_cores));
    // Structural knobs are part of the warm key (a coherent warm image is a
    // different machine), but only when they diverge from the defaults so
    // historical cache entries stay addressable.
    if (s.coherence != "none") {
        o.emplace_back("coherence", json::Value(s.coherence));
        o.emplace_back("llc_slices", json::Value(s.llc_slices));
    }
    if (s.ecc != "off")
        o.emplace_back("ecc", json::Value(s.ecc));
    return json::Value(std::move(o));
}

soc::SocConfig
scenarioSocConfig(const ScenarioSpec &s)
{
    soc::SocConfig cfg = s.soc_preset == "simulated"
                             ? soc::SocConfig::simulated()
                             : soc::SocConfig::fpga();
    cfg.name = "campaign-" + s.scenario;
    cfg.num_cores = s.num_cores;
    cfg.host_threads = s.host_threads;
    if (auto m = mem::parseCoherenceMode(s.coherence))
        cfg.coherence.mode = *m;
    if (cfg.coherence.enabled())
        cfg.llc_slices = s.llc_slices;
    cfg.resil.ecc = s.ecc == "secded";
    return cfg;
}

std::vector<sim::Join>
spawnScenarioWarm(soc::Soc &soc, const ScenarioSpec &s)
{
    SpmvData d = buildSpmv(s);
    os::Process &proc = soc.createProcess("campaign");
    sim::Addr row_ptr = proc.alloc(d.row_ptr.size() * 4, "spmv.row_ptr");
    sim::Addr col_idx = proc.alloc(d.col_idx.size() * 4, "spmv.col_idx");
    sim::Addr vals = proc.alloc(d.vals.size() * 4, "spmv.vals");
    sim::Addr x = proc.alloc(d.x.size() * 4, "spmv.x");
    proc.alloc(static_cast<size_t>(s.rows) * 4, "spmv.y");
    SpmvAddrs a = lookupAddrs(proc);
    MAPLE_ASSERT(a.row_ptr == row_ptr && a.col_idx == col_idx &&
                 a.vals == vals && a.x == x);
    writeArray(proc, a.row_ptr, d.row_ptr);
    writeArray(proc, a.col_idx, d.col_idx);
    writeArray(proc, a.vals, d.vals);
    writeArray(proc, a.x, d.x);

    std::vector<sim::Join> joins;
    for (unsigned t = 0; t < soc.numCores() && s.warm_rows > 0; ++t) {
        app::Chunk c = app::chunkOf(s.warm_rows, t, soc.numCores());
        if (c.begin < c.end)
            joins.push_back(sim::spawn(warmWorker(soc.core(t), a, c)));
    }
    return joins;
}

void
warmScenario(soc::Soc &soc, const ScenarioSpec &s)
{
    std::vector<sim::Join> joins = spawnScenarioWarm(soc, s);
    if (!joins.empty())
        soc.run(std::move(joins));
}

std::vector<sim::Join>
spawnScenarioDoall(soc::Soc &soc, const ScenarioSpec &s)
{
    MAPLE_CHECK(!soc.kernel().processes().empty(), sim::FatalError,
                "scenario measure needs a warmed (or restored) SoC");
    SpmvAddrs a = lookupAddrs(*soc.kernel().processes().front());
    std::vector<sim::Join> joins;
    for (unsigned t = 0; t < soc.numCores(); ++t) {
        app::Chunk c = app::chunkOf(s.rows, t, soc.numCores());
        if (c.begin < c.end)
            joins.push_back(sim::spawn(doallWorker(soc.core(t), a, c)));
    }
    return joins;
}

ScenarioResult
collectScenarioResult(soc::Soc &soc, const ScenarioSpec &s, sim::Cycle start)
{
    SpmvData d = buildSpmv(s);
    os::Process &proc = *soc.kernel().processes().front();
    SpmvAddrs a = lookupAddrs(proc);

    ScenarioResult res;
    res.end_cycle = soc.eq().now();
    res.result.workload = s.scenario;
    res.result.technique = s.technique;
    res.result.cycles = res.end_cycle - start;

    std::vector<std::uint32_t> y(s.rows);
    proc.readBytes(a.y, y.data(), y.size() * sizeof(std::uint32_t));
    res.result.checksum = fnv64(y);
    res.result.valid = y == d.golden;
    app::collectCoreStats(soc, res.result);
    return res;
}

ScenarioResult
measureScenario(soc::Soc &soc, const ScenarioSpec &s)
{
    MAPLE_CHECK(!soc.kernel().processes().empty(), sim::FatalError,
                "measureScenario needs a warmed (or restored) SoC");
    os::Process &proc = *soc.kernel().processes().front();
    SpmvAddrs a = lookupAddrs(proc);

    const sim::Cycle start = soc.eq().now();
    if (s.technique == "doall") {
        soc.run(spawnScenarioDoall(soc, s));
    } else {
        core::MapleApi api = core::MapleApi::attach(proc, soc.maple());
        auto setup = [&](cpu::Core &c) -> sim::Task<void> {
            co_await api.init(c, 1, s.queue_entries, 4);
            bool ok = co_await api.open(c, 0);
            MAPLE_ASSERT(ok, "campaign queue open failed");
        };
        soc.run({sim::spawn(setup(soc.core(0)))});
        soc.run({sim::spawn(accessWorker(soc.core(0), api, a, s.rows)),
                 sim::spawn(executeWorker(soc.core(1), api, a, s.rows))});
    }
    return collectScenarioResult(soc, s, start);
}

json::Value
scenarioResultJson(const ScenarioResult &r)
{
    json::Value v = runResultToJson(r.result);
    v.set("end_cycle", json::Value(r.end_cycle));
    return v;
}

}  // namespace maple::harness
