/**
 * @file
 * Campaign-service tests: JSON round-trips and format locks for the harness
 * serializer, spec expansion, the content-hashed result cache, scenario
 * warm/measure determinism (the cache-identity guarantee), and the
 * crash-isolated runner end to end.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "campaign/cache.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "harness/host_perf.hpp"
#include "harness/scenario.hpp"
#include "harness/stats_io.hpp"
#include "soc/soc.hpp"

using namespace maple;
using harness::json::Value;
namespace json = harness::json;
namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// JSON core
// ---------------------------------------------------------------------------

TEST(CampaignJson, ParseDumpIsByteStable)
{
    const std::string text = "{\n"
                             "  \"b\": true,\n"
                             "  \"i\": -42,\n"
                             "  \"big\": 9007199254740993,\n"
                             "  \"d\": 0.1,\n"
                             "  \"s\": \"he\\\"llo\\n\",\n"
                             "  \"a\": [\n"
                             "    1,\n"
                             "    []\n"
                             "  ],\n"
                             "  \"o\": {}\n"
                             "}\n";
    Value v = json::parse(text);
    EXPECT_EQ(json::dump(v), text);
    EXPECT_EQ(json::dump(json::parse(json::dump(v))), text);
}

TEST(CampaignJson, IntegersDoNotGoThroughDouble)
{
    // 2^53 + 1 is not representable as a double; it must round-trip.
    Value v = json::parse("9007199254740993");
    ASSERT_TRUE(v.isInt());
    EXPECT_EQ(v.asInt(), 9007199254740993ll);
}

TEST(CampaignJson, ObjectsPreserveInsertionOrder)
{
    Value v = json::parse("{\"z\": 1, \"a\": 2}");
    const json::Object &o = v.asObject();
    ASSERT_EQ(o.size(), 2u);
    EXPECT_EQ(o[0].first, "z");
    EXPECT_EQ(o[1].first, "a");
}

TEST(CampaignJson, MalformedInputThrowsWithOffset)
{
    EXPECT_THROW(json::parse("{\"a\": }"), json::JsonError);
    EXPECT_THROW(json::parse("[1, 2"), json::JsonError);
    EXPECT_THROW(json::parse("nul"), json::JsonError);
    EXPECT_THROW(json::parse("{} trailing"), json::JsonError);
    try {
        json::parse("[1, x]");
        FAIL();
    } catch (const json::JsonError &e) {
        EXPECT_NE(std::string(e.what()).find("offset 4"), std::string::npos);
    }
}

TEST(CampaignJson, DeepNestingIsATypedError)
{
    // The parser recurses once per level, so 60,000 unbounded levels would
    // exhaust the stack; past json::kMaxDepth it throws instead.
    auto nested = [](unsigned depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    try {
        json::parse(nested(60'000));
        FAIL() << "60,000 levels parsed";
    } catch (const json::JsonError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("offset " + std::to_string(json::kMaxDepth)),
                  std::string::npos)
            << what;
    }
    EXPECT_THROW(json::parse(nested(json::kMaxDepth + 1)), json::JsonError);
    std::string objects;
    for (unsigned i = 0; i <= json::kMaxDepth; ++i)
        objects += "{\"k\":";
    objects += "0" + std::string(json::kMaxDepth + 1, '}');
    EXPECT_THROW(json::parse(objects), json::JsonError);

    json::Value v = json::parse(nested(json::kMaxDepth));
    for (unsigned i = 1; i < json::kMaxDepth; ++i) {
        ASSERT_TRUE(v.isArray() && v.asArray().size() == 1u) << "level " << i;
        json::Value inner = std::move(v.asArray()[0]);
        v = std::move(inner);
    }
    EXPECT_TRUE(v.isArray() && v.asArray().empty());
}

TEST(CampaignJson, WriteFileIsAtomicAndReadable)
{
    const std::string path =
        ::testing::TempDir() + "campaign_json_atomic.json";
    Value v;
    v.set("k", Value(1));
    json::writeFile(path, v);
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    EXPECT_EQ(json::parseFile(path), v);
    fs::remove(path);
}

// ---------------------------------------------------------------------------
// Format locks: these strings are the on-disk contract with scripts/ and the
// result cache. A diff here is a format change -- bump campaign::kCacheVersion
// and update the consumers, don't just fix the test.
// ---------------------------------------------------------------------------

TEST(CampaignFormatLock, HostPerfReportSchema)
{
    harness::PerfSample s;
    s.name = "spmv";
    s.events = 10;
    s.sim_cycles = 20;
    s.host_seconds = 0.5;
    Value v = harness::hostPerfToJson({s}, "bench_host_perf", false);
    EXPECT_EQ(json::dump(v),
              "{\n"
              "  \"bench\": \"bench_host_perf\",\n"
              "  \"quick\": false,\n"
              "  \"benchmarks\": [\n"
              "    {\n"
              "      \"name\": \"spmv\",\n"
              "      \"threads\": 1,\n"
              "      \"events\": 10,\n"
              "      \"sim_cycles\": 20,\n"
              "      \"host_seconds\": 0.5,\n"
              "      \"events_per_sec\": 20.0\n"
              "    }\n"
              "  ]\n"
              "}\n");
}

TEST(CampaignFormatLock, StatGroupSchema)
{
    sim::StatGroup g("llc");
    g.counter("hits").inc(2);
    g.average("lat").sample(1.0);
    g.average("lat").sample(3.0);
    (void)g.histogram("occ", 2.0, 4);
    Value v = harness::statsToJson(g);
    EXPECT_EQ(json::dump(v),
              "{\n"
              "  \"name\": \"llc\",\n"
              "  \"counters\": {\n"
              "    \"hits\": 2\n"
              "  },\n"
              "  \"averages\": {\n"
              "    \"lat\": {\n"
              "      \"mean\": 2.0,\n"
              "      \"count\": 2,\n"
              "      \"min\": 1.0,\n"
              "      \"max\": 3.0\n"
              "    }\n"
              "  },\n"
              "  \"histograms\": {\n"
              "    \"occ\": {\n"
              "      \"total\": 0,\n"
              "      \"max\": 0.0,\n"
              "      \"p50\": 0.0,\n"
              "      \"p99\": 0.0,\n"
              "      \"buckets\": [\n"
              "        0,\n"
              "        0,\n"
              "        0,\n"
              "        0\n"
              "      ]\n"
              "    }\n"
              "  }\n"
              "}\n");
}

TEST(CampaignFormatLock, RunResultRoundTrips)
{
    app::RunResult r;
    r.workload = "spmv";
    r.technique = "maple-decouple";
    r.cycles = 12345;
    r.checksum = 0xdeadbeefcafef00dull;
    r.valid = true;
    r.instructions = 7;
    r.loads = 5;
    r.stores = 2;
    r.mean_load_latency = 33.25;
    r.sim_events = 99;
    app::RunResult back =
        harness::runResultFromJson(harness::runResultToJson(r));
    EXPECT_EQ(json::dump(harness::runResultToJson(back)),
              json::dump(harness::runResultToJson(r)));
    EXPECT_EQ(back.checksum, r.checksum);
    EXPECT_EQ(back.cycles, r.cycles);
}

// ---------------------------------------------------------------------------
// Spec expansion
// ---------------------------------------------------------------------------

const char *kSmokeSpec = R"({
  "name": "smoke",
  "workers": 2,
  "runs": 2,
  "base": {"scenario": "spmv", "rows": 64, "nnz_per_row": 4, "cols": 512,
           "warm_rows": 16},
  "axes": {"technique": ["doall", "maple"], "queue_entries": [8, 32]},
  "seeds": [1]
})";

TEST(CampaignSpec, AxesExpandCartesian)
{
    campaign::CampaignSpec c =
        campaign::parseCampaignSpec(json::parse(kSmokeSpec));
    ASSERT_EQ(c.jobs.size(), 4u);
    EXPECT_EQ(c.jobs[0].name, "technique=doall,queue_entries=8,seed=1");
    EXPECT_EQ(c.jobs[3].name, "technique=maple,queue_entries=32,seed=1");
    EXPECT_EQ(c.jobs[3].spec.getString("technique", ""), "maple");
    EXPECT_EQ(c.jobs[3].spec.getInt("queue_entries", 0), 32);
    EXPECT_EQ(c.runs, 2u);
}

TEST(CampaignSpec, RejectsBadScenarioAndDuplicates)
{
    EXPECT_THROW(campaign::parseCampaignSpec(json::parse(
                     R"({"base": {"technique": "warp-drive"}})")),
                 json::JsonError);
    EXPECT_THROW(campaign::parseCampaignSpec(json::parse(
                     R"({"jobs": [{"name": "a", "type": "exec",
                         "argv": ["/bin/true"]},
                        {"name": "a", "type": "exec",
                         "argv": ["/bin/true"]}]})")),
                 json::JsonError);
    EXPECT_THROW(campaign::parseCampaignSpec(json::parse(R"({})")),
                 json::JsonError);
}

TEST(CampaignSpec, MalformedFieldsAreTypedErrors)
{
    // Each was once accepted: a wrong type fell back to the default, a
    // number was truncated or wrapped, a typo was ignored. Negative cores
    // wrapped to 4294967294 and the warm-up died of bad_alloc.
    const std::pair<const char *, const char *> bad[] = {
        {"rows", R"({"base": {"rows": "64"}})"},
        {"cores", R"({"base": {"soc": {"cores": "4"}}})"},
        {"ecc", R"({"base": {"ecc": true}})"},
        {"workers", R"({"workers": "3", "base": {}})"},
        {"rows", R"({"base": {"rows": 100.9}})"},
        {"runs", R"({"runs": 2.9, "base": {}})"},
        {"rows", R"({"base": {"rows": 4294967297}})"},
        {"queue_entries", R"({"base": {"queue_entries": -1}})"},
        {"seed", R"({"base": {"seed": -1}})"},
        {"workers", R"({"workers": -1, "base": {}})"},
        {"retry_budget", R"({"retry_budget": -1, "base": {}})"},
        {"queue_entires", R"({"base": {"queue_entires": 8}})"},
        {"cores", R"({"base": {"soc": {"cores": -2}}})"},
    };
    for (const auto &[key, doc] : bad) {
        SCOPED_TRACE(doc);
        try {
            campaign::parseCampaignSpec(json::parse(doc));
            ADD_FAILURE() << "accepted";
        } catch (const json::JsonError &e) {
            EXPECT_NE(std::string(e.what()).find(std::string("\"") + key + "\""),
                      std::string::npos)
                << e.what();
        }
    }
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

TEST(CampaignCache, KeyIsStableAndSpecSensitive)
{
    campaign::CampaignSpec c =
        campaign::parseCampaignSpec(json::parse(kSmokeSpec));
    campaign::ResultCache cache(::testing::TempDir() + "campaign_cache",
                                true);
    EXPECT_EQ(cache.keyFor(c.jobs[0]), cache.keyFor(c.jobs[0]));
    EXPECT_NE(cache.keyFor(c.jobs[0]), cache.keyFor(c.jobs[1]));

    campaign::Job tweaked = c.jobs[0];
    tweaked.spec.set("seed", Value(2));
    EXPECT_NE(cache.keyFor(c.jobs[0]), cache.keyFor(tweaked));
}

TEST(CampaignCache, StoreThenLoadReturnsIdenticalDocument)
{
    campaign::ResultCache cache(::testing::TempDir() + "campaign_cache2",
                                true);
    Value doc;
    doc.set("result", Value("stats"));
    doc.set("cycles", Value(123));
    cache.store("abc123", doc);
    auto back = cache.load("abc123");
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(json::dump(*back), json::dump(doc));
    EXPECT_FALSE(cache.load("missing").has_value());

    campaign::ResultCache disabled(cache.dir(), false);
    EXPECT_FALSE(disabled.load("abc123").has_value());
    fs::remove_all(cache.dir());
}

TEST(CampaignCache, UnreadableFileHashIsATypedError)
{
    // A silent 0 for an unreadable file would give every missing binary the
    // same "content", poisoning cache keys; it must be a ConfigError.
    EXPECT_THROW(campaign::fileContentHash("/definitely/not/here"),
                 sim::ConfigError);
}

TEST(CampaignCache, CorruptEntryIsEvictedAndCounted)
{
    const std::string dir = ::testing::TempDir() + "campaign_cache3";
    campaign::ResultCache cache(dir, true);
    Value doc;
    doc.set("cycles", Value(7));
    cache.store("deadbeef", doc);
    ASSERT_TRUE(cache.load("deadbeef").has_value());
    EXPECT_EQ(cache.evictions(), 0u);

    // Flip one payload byte on disk: the checksum wrapper must catch it,
    // the entry must be deleted, and the eviction counted.
    const std::string path = dir + "/deadbeef.json";
    std::string bytes;
    {
        std::ifstream f(path, std::ios::binary);
        std::ostringstream ss;
        ss << f.rdbuf();
        bytes = ss.str();
    }
    bytes[bytes.find("\"cycles\"") + 2] ^= 0x20;
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << bytes;
    }
    EXPECT_FALSE(cache.load("deadbeef").has_value());
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_FALSE(fs::exists(path));
    // Gone, so the next probe is a plain miss, not another eviction.
    EXPECT_FALSE(cache.load("deadbeef").has_value());
    EXPECT_EQ(cache.evictions(), 1u);

    // A truncated (unparsable) entry takes the same path.
    cache.store("feedface", doc);
    {
        std::ofstream f(dir + "/feedface.json",
                        std::ios::binary | std::ios::trunc);
        f << "{\"fnv64\": \"12";
    }
    EXPECT_FALSE(cache.load("feedface").has_value());
    EXPECT_EQ(cache.evictions(), 2u);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Scenario: the cache-identity guarantee. A job measured on a
// restored-from-warm-image SoC must produce byte-identical stats to one
// measured on the SoC that was warmed in-process.
// ---------------------------------------------------------------------------

harness::ScenarioSpec
smallScenario(const std::string &technique)
{
    harness::ScenarioSpec s;
    s.rows = 96;
    s.nnz_per_row = 4;
    s.cols = 1024;
    s.seed = 7;
    s.warm_rows = 32;
    s.technique = technique;
    s.queue_entries = 8;
    return s;
}

TEST(CampaignScenario, MeasureValidatesAgainstGolden)
{
    for (const char *tech : {"doall", "maple"}) {
        harness::ScenarioSpec s = smallScenario(tech);
        soc::Soc soc(harness::scenarioSocConfig(s));
        harness::warmScenario(soc, s);
        harness::ScenarioResult r = harness::measureScenario(soc, s);
        EXPECT_TRUE(r.result.valid) << tech;
        EXPECT_GT(r.result.cycles, 0u) << tech;
    }
}

TEST(CampaignScenario, RestoredMeasureIsByteIdenticalToWarmMeasure)
{
    harness::ScenarioSpec s = smallScenario("maple");
    std::string warm_image;
    std::string direct;
    {
        soc::Soc soc(harness::scenarioSocConfig(s));
        harness::warmScenario(soc, s);
        std::stringstream img;
        soc.snapshot(img);
        warm_image = img.str();
        direct = json::dump(
            harness::scenarioResultJson(harness::measureScenario(soc, s)));
    }
    {
        soc::Soc soc(harness::scenarioSocConfig(s));
        std::istringstream img(warm_image);
        soc.restore(img);
        std::string restored = json::dump(
            harness::scenarioResultJson(harness::measureScenario(soc, s)));
        EXPECT_EQ(restored, direct);
    }
}

TEST(CampaignScenario, QueueEntriesIsAMeasureAxis)
{
    // Same warm image serves different queue depths: INIT runs in measure().
    harness::ScenarioSpec a = smallScenario("maple");
    harness::ScenarioSpec b = smallScenario("maple");
    b.queue_entries = 32;
    EXPECT_EQ(json::dump(harness::scenarioWarmKey(a)),
              json::dump(harness::scenarioWarmKey(b)));
    EXPECT_NE(json::dump(harness::scenarioSpecJson(a)),
              json::dump(harness::scenarioSpecJson(b)));
}

// ---------------------------------------------------------------------------
// Runner end to end (forks real worker processes)
// ---------------------------------------------------------------------------

struct TempCampaignDir {
    std::string path;
    TempCampaignDir()
    {
        std::string templ = ::testing::TempDir() + "campaignXXXXXX";
        path = ::mkdtemp(templ.data());
    }
    ~TempCampaignDir() { fs::remove_all(path); }
};

TEST(CampaignRunner, RunsWarmOnceCachesAndSurvivesCrash)
{
    TempCampaignDir dir;
    campaign::CampaignSpec spec =
        campaign::parseCampaignSpec(json::parse(kSmokeSpec));
    campaign::RunnerOptions opts;
    opts.out_dir = dir.path + "/out";
    opts.workers = 2;

    ASSERT_EQ(campaign::runCampaign(spec, opts), 0);
    Value m1 = json::parseFile(opts.out_dir + "/manifest.json");
    const Value *t1 = m1.get("totals");
    ASSERT_NE(t1, nullptr);
    EXPECT_EQ(t1->getInt("jobs", -1), 4);
    EXPECT_EQ(t1->getInt("ok", -1), 4);
    EXPECT_EQ(t1->getInt("warmups_run", -1), 1);
    EXPECT_GT(t1->getInt("simulated_cycles", 0), 0);

    // Every job ran restored from the shared warm image, deterministically.
    std::string first_results;
    for (const Value &row : m1.get("jobs")->asArray()) {
        const std::string name = row.getString("name", "");
        Value r = json::parseFile(opts.out_dir + "/jobs/" + name + ".json");
        EXPECT_TRUE(r.getBool("restored_from_warm_image", false)) << name;
        const Value *d = r.get("deterministic");
        ASSERT_NE(d, nullptr) << name;
        EXPECT_TRUE(d->isBool() && d->asBool()) << name;
        first_results += json::dump(r);
    }

    // Second invocation: zero warmups, zero simulated cycles, 100% cache
    // hits, byte-identical per-job results.
    ASSERT_EQ(campaign::runCampaign(spec, opts), 0);
    Value m2 = json::parseFile(opts.out_dir + "/manifest.json");
    const Value *t2 = m2.get("totals");
    EXPECT_EQ(t2->getInt("cache_hits", -1), 4);
    EXPECT_EQ(t2->getInt("warmups_run", -1), 0);
    EXPECT_EQ(t2->getInt("simulated_cycles", -1), 0);
    std::string second_results;
    for (const Value &row : m2.get("jobs")->asArray()) {
        second_results += json::dump(json::parseFile(
            opts.out_dir + "/jobs/" + row.getString("name", "") + ".json"));
    }
    EXPECT_EQ(second_results, first_results);

    // Crash one worker mid-campaign: only its job fails, with diagnostics,
    // and the campaign still exits 0.
    const std::string victim = "technique=maple,queue_entries=8,seed=1";
    ::setenv("MAPLE_CAMPAIGN_CRASH_JOB", victim.c_str(), 1);
    campaign::RunnerOptions crash_opts = opts;
    crash_opts.out_dir = dir.path + "/crash";
    EXPECT_EQ(campaign::runCampaign(spec, crash_opts), 0);
    ::unsetenv("MAPLE_CAMPAIGN_CRASH_JOB");

    Value m3 = json::parseFile(crash_opts.out_dir + "/manifest.json");
    EXPECT_EQ(m3.get("totals")->getInt("failed", -1), 1);
    EXPECT_EQ(m3.get("totals")->getInt("ok", -1), 3);
    for (const Value &row : m3.get("jobs")->asArray()) {
        if (row.getString("name", "") == victim) {
            EXPECT_EQ(row.getString("status", ""), "crashed");
            EXPECT_EQ(row.getInt("signal", 0), SIGSEGV);
            EXPECT_NE(row.getString("diagnostics", "").find("signal"),
                      std::string::npos);
        } else {
            EXPECT_EQ(row.getString("status", ""), "ok");
        }
    }
}

TEST(CampaignRunner, ExecJobsCaptureOutputAndIsolateFailure)
{
    TempCampaignDir dir;
    campaign::CampaignSpec spec = campaign::parseCampaignSpec(json::parse(R"({
      "name": "execs",
      "runs": 2,
      "jobs": [
        {"type": "exec", "name": "hello",
         "argv": ["/bin/sh", "-c", "echo out-$MARK"], "env": {"MARK": "42"}},
        {"type": "exec", "name": "fails",
         "argv": ["/bin/sh", "-c", "exit 7"]}
      ]
    })"));
    campaign::RunnerOptions opts;
    opts.out_dir = dir.path + "/out";
    ASSERT_EQ(campaign::runCampaign(spec, opts), 0);

    Value hello = json::parseFile(opts.out_dir + "/jobs/hello.json");
    EXPECT_EQ(hello.getString("stdout", ""), "out-42\n");
    EXPECT_TRUE(hello.get("deterministic")->asBool());
    Value m = json::parseFile(opts.out_dir + "/manifest.json");
    EXPECT_EQ(m.get("totals")->getInt("ok", -1), 1);
    EXPECT_EQ(m.get("totals")->getInt("failed", -1), 1);

    // --strict escalates recorded failures into the exit code.
    campaign::RunnerOptions strict = opts;
    strict.out_dir = dir.path + "/strict";
    strict.strict = true;
    EXPECT_EQ(campaign::runCampaign(spec, strict), 1);
}

}  // namespace
