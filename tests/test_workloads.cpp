/**
 * @file
 * End-to-end workload tests: every (workload x technique) combination must
 * produce a bitwise-correct result, and the headline performance orderings
 * from the paper must hold on small inputs.
 */
#include <gtest/gtest.h>

#include <bit>
#include <ostream>

#include "workloads/workload.hpp"

using namespace maple;
using app::RunConfig;
using app::RunResult;
using app::Technique;

namespace {

RunResult
runSmall(app::Workload &w, Technique t, unsigned threads = 2)
{
    RunConfig cfg;
    cfg.tech = t;
    cfg.threads = threads;
    return w.run(cfg);
}

constexpr Technique kAllTechniques[] = {
    Technique::Doall,        Technique::SwDecouple, Technique::MapleDecouple,
    Technique::NoPrefetch,   Technique::SwPrefetch, Technique::LimaPrefetch,
    Technique::Desc,         Technique::Droplet,
};

}  // namespace

class SpmvAllTechniques : public ::testing::TestWithParam<Technique> {};

TEST_P(SpmvAllTechniques, ProducesCorrectResult)
{
    auto w = app::makeSpmv(256, 8192, 8, 42);
    RunResult r = runSmall(*w, GetParam());
    EXPECT_TRUE(r.valid) << "wrong result for " << r.technique;
    EXPECT_GT(r.cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpmvAllTechniques, ::testing::ValuesIn(kAllTechniques),
    [](const ::testing::TestParamInfo<Technique> &info) {
        std::string s = app::techniqueName(info.param);
        for (char &c : s)
            if (c == '-')
                c = '_';
        return s;
    });

TEST(SpmvOrdering, MapleDecoupleBeatsSwDecouple)
{
    auto w = app::makeSpmv(512, 16384, 8, 7);
    RunResult maple = runSmall(*w, Technique::MapleDecouple);
    RunResult sw = runSmall(*w, Technique::SwDecouple);
    ASSERT_TRUE(maple.valid);
    ASSERT_TRUE(sw.valid);
    EXPECT_LT(maple.cycles, sw.cycles);
}

TEST(SpmvOrdering, LimaBeatsSwPrefetchAndNoPrefetch)
{
    auto w = app::makeSpmv(512, 16384, 8, 7);
    RunResult lima = runSmall(*w, Technique::LimaPrefetch, 1);
    RunResult swp = runSmall(*w, Technique::SwPrefetch, 1);
    RunResult none = runSmall(*w, Technique::NoPrefetch, 1);
    ASSERT_TRUE(lima.valid);
    ASSERT_TRUE(swp.valid);
    ASSERT_TRUE(none.valid);
    EXPECT_LT(lima.cycles, swp.cycles);
    EXPECT_LT(lima.cycles, none.cycles);
}

TEST(SpmvOrdering, SwPrefetchRoughlyDoublesLoads)
{
    auto w = app::makeSpmv(512, 16384, 8, 7);
    RunResult swp = runSmall(*w, Technique::SwPrefetch, 1);
    RunResult none = runSmall(*w, Technique::NoPrefetch, 1);
    double ratio = double(swp.loads) / double(none.loads);
    EXPECT_GT(ratio, 1.5);
    EXPECT_LT(ratio, 2.5);
}

TEST(SpmvOrdering, LimaReducesLoadsBelowBaseline)
{
    auto w = app::makeSpmv(512, 16384, 8, 7);
    RunResult lima = runSmall(*w, Technique::LimaPrefetch, 1);
    RunResult none = runSmall(*w, Technique::NoPrefetch, 1);
    EXPECT_LT(lima.loads, none.loads);
}

// ---------------------------------------------------------------------------
// Every workload x every technique must produce bitwise-correct results.
// ---------------------------------------------------------------------------

namespace {

enum class Wl { Sdhp, Spmm, Bfs };

std::unique_ptr<app::Workload>
makeSmall(Wl w)
{
    switch (w) {
      case Wl::Sdhp: return app::makeSdhp(256, 512, 8, 21);
      case Wl::Spmm: return app::makeSpmm(96, 4, 22);
      case Wl::Bfs: return app::makeBfs(10, 8, 23);
    }
    return nullptr;
}

}  // namespace

class AllWorkloadsAllTechniques
    : public ::testing::TestWithParam<std::tuple<Wl, Technique>> {};

TEST_P(AllWorkloadsAllTechniques, ProducesCorrectResult)
{
    auto [wl, tech] = GetParam();
    auto w = makeSmall(wl);
    RunResult r = runSmall(*w, tech);
    EXPECT_TRUE(r.valid) << r.workload << " wrong under " << r.technique;
    EXPECT_GT(r.cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllWorkloadsAllTechniques,
    ::testing::Combine(::testing::Values(Wl::Sdhp, Wl::Spmm, Wl::Bfs),
                       ::testing::ValuesIn(kAllTechniques)),
    [](const ::testing::TestParamInfo<std::tuple<Wl, Technique>> &info) {
        const char *wl = std::get<0>(info.param) == Wl::Sdhp   ? "sdhp"
                         : std::get<0>(info.param) == Wl::Spmm ? "spmm"
                                                               : "bfs";
        std::string t = app::techniqueName(std::get<1>(info.param));
        for (char &c : t)
            if (c == '-')
                c = '_';
        return std::string(wl) + "_" + t;
    });

TEST(WorkloadThreads, ResultsCorrectAcrossThreadCounts)
{
    auto bfs = app::makeBfs(10, 8, 31);
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        RunConfig cfg;
        cfg.tech = Technique::Doall;
        cfg.threads = threads;
        cfg.soc.num_cores = threads;
        cfg.soc.mesh_width = 0;
        cfg.soc.mesh_height = 0;
        RunResult r = bfs->run(cfg);
        EXPECT_TRUE(r.valid) << "bfs wrong with " << threads << " threads";
    }
}

TEST(WorkloadThreads, DecoupleCorrectWithFourPairs)
{
    std::unique_ptr<app::Workload> workloads[] = {
        app::makeSpmv(512, 8192, 8, 33), app::makeSdhp(128, 256, 16, 34),
        app::makeBfs(10, 8, 35)};
    for (auto &w : workloads) {
        for (Technique t :
             {Technique::MapleDecouple, Technique::SwDecouple, Technique::Desc}) {
            RunConfig cfg;
            cfg.tech = t;
            cfg.threads = 8;  // 4 Access/Execute pairs (sharing one MAPLE)
            cfg.soc.num_cores = 8;
            cfg.soc.mesh_width = 0;
            cfg.soc.mesh_height = 0;
            RunResult r = w->run(cfg);
            EXPECT_TRUE(r.valid) << r.workload << " " << r.technique;
            EXPECT_FALSE(r.fell_back_to_doall) << r.workload << " " << r.technique;
        }
    }
}

TEST(WorkloadInvariants, SpmmDecouplingFallsBackToDoall)
{
    auto spmm = app::makeSpmm(96, 4, 41);
    RunResult doall = runSmall(*spmm, Technique::Doall);
    RunResult maple = runSmall(*spmm, Technique::MapleDecouple);
    RunResult desc = runSmall(*spmm, Technique::Desc);
    EXPECT_FALSE(doall.fell_back_to_doall);
    EXPECT_TRUE(maple.fell_back_to_doall);
    EXPECT_TRUE(desc.fell_back_to_doall);
    // Fallback means literally the same execution.
    EXPECT_EQ(maple.cycles, doall.cycles);
}

TEST(WorkloadInvariants, DeterministicCycleCounts)
{
    auto w = app::makeSpmv(256, 8192, 8, 55);
    RunResult a = runSmall(*w, Technique::MapleDecouple);
    RunResult b = runSmall(*w, Technique::MapleDecouple);
    EXPECT_EQ(a.cycles, b.cycles) << "simulation must be deterministic";
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.checksum, b.checksum);
}

TEST(WorkloadInvariants, QueueSizeMonotonicity)
{
    auto w = app::makeSpmv(512, 16384, 8, 66);
    sim::Cycle prev = sim::kCycleMax;
    for (unsigned entries : {4u, 16u, 64u}) {
        RunConfig cfg;
        cfg.tech = Technique::MapleDecouple;
        cfg.queue_entries = entries;
        RunResult r = w->run(cfg);
        ASSERT_TRUE(r.valid);
        EXPECT_LE(r.cycles, prev + prev / 10)
            << "larger queues should not make things much worse";
        prev = r.cycles;
    }
}

TEST(WorkloadInvariants, BfsHandlesSingleVertexComponent)
{
    // A scale-2 graph with few edges: degenerate frontiers must terminate.
    auto w = app::makeBfs(2, 1, 3);
    RunResult r = runSmall(*w, Technique::Doall);
    EXPECT_TRUE(r.valid);
}

// ---------------------------------------------------------------------------
// Pinned runs. The tests above check that each run is valid, so they still
// pass when a change moves a cycle. These rows pin every counter of every
// workload x technique run on two SoC shapes.
// ---------------------------------------------------------------------------

namespace {

/** Every counter of one run; the mean load latency as its bit pattern. */
struct Pin {
    sim::Cycle cycles;
    std::uint64_t checksum;
    bool valid, fell_back_to_doall;
    std::uint64_t instructions, loads, stores, load_latency_bits, sim_events;

    bool operator==(const Pin &) const = default;
};

/** Prints a Pin as the initializer of its table row. */
std::ostream &
operator<<(std::ostream &os, const Pin &p)
{
    return os << std::boolalpha << "{" << p.cycles << ", " << p.checksum
              << ", " << p.valid << ", " << p.fell_back_to_doall << ", "
              << p.instructions << ", " << p.loads << ", " << p.stores
              << ", 0x" << std::hex << p.load_latency_bits << std::dec
              << ", " << p.sim_events << "}";
}

}  // namespace

TEST(WorkloadGolden, EveryTechniqueIsPinned)
{
    // Rows run workload-major, then threads, then kAllTechniques order.
    const Pin pins[] = {
        // spmv, 2 threads
        {182209, 550284339417, true, false, 17410, 12802, 512, 0x403afa5225ac92b2, 39644},
        {438079, 550284339417, true, false, 72330, 23690, 12800, 0x403b16f95d6e49df, 142679},
        {207755, 550284339417, true, false, 26116, 13315, 4609, 0x4036832e95ed8111, 91743},
        {362543, 550284339417, true, false, 17409, 12801, 512, 0x403aef5c7e266fdf, 39483},
        {297018, 550284339417, true, false, 41937, 20977, 512, 0x402e1638a8eb20b2, 59947},
        {175010, 550284339417, true, false, 12806, 7171, 1539, 0x4036925e0835fa37, 57301},
        {143613, 550284339417, true, false, 31745, 4609, 512, 0x4036fd63b3599778, 81797},
        {148579, 550284339417, true, false, 17410, 12802, 512, 0x4034d249822dfe29, 42365},
        // spmv, 4 threads
        {94753, 550284339417, true, false, 17412, 12804, 512, 0x403b9a0d469e30c9, 39873},
        {248410, 550284339417, true, false, 74519, 24417, 12800, 0x403c742dc11d2da9, 146691},
        {99096, 550284339417, true, false, 26119, 13318, 4609, 0x4035d1e7c7b7b992, 91837},
        {367665, 550284339417, true, false, 17409, 12801, 512, 0x403b55c0d84d980c, 39483},
        {298634, 550284339417, true, false, 41937, 20977, 512, 0x402e46e87d81acca, 59947},
        {175052, 550284339417, true, false, 12806, 7171, 1539, 0x403693b950b75a12, 57301},
        {73069, 550284339417, true, false, 31746, 4610, 512, 0x4037374f301719e1, 81807},
        {93998, 550284339417, true, false, 17412, 12804, 512, 0x403a5dd9c59e4542, 44666},
        // sdhp, 2 threads
        {298484, 2140716576286, true, false, 10498, 6402, 2048, 0x4056743bd2411983, 27024},
        {660285, 2140716576286, true, false, 79070, 25920, 8192, 0x4045a52b9d6480f3, 148790},
        {133864, 2140716576286, true, false, 14852, 6659, 4097, 0x4036bb56b112f3f8, 53706},
        {591252, 2140716576286, true, false, 10497, 6401, 2048, 0x40568554444f3008, 27075},
        {591252, 2140716576286, true, false, 10497, 6401, 2048, 0x40568554444f3008, 27075},
        {148892, 2140716576286, true, false, 8452, 3586, 2818, 0x403d75817fc92c67, 35571},
        {126895, 2140716576286, true, false, 21249, 2305, 2048, 0x40376782b8962834, 54053},
        {285713, 2140716576286, true, false, 10498, 6402, 2048, 0x405568e5b02f585f, 27106},
        // sdhp, 4 threads
        {151131, 2140716576286, true, false, 10500, 6404, 2048, 0x40569bf14a08a275, 26996},
        {342212, 2140716576286, true, false, 77480, 25380, 8192, 0x4046a17a4a7ae569, 146048},
        {65971, 2140716576286, true, false, 14855, 6662, 4097, 0x40363f2c7f93ca34, 54556},
        {594702, 2140716576286, true, false, 10497, 6401, 2048, 0x4056a786195b2550, 27075},
        {594702, 2140716576286, true, false, 10497, 6401, 2048, 0x4056a786195b2550, 27075},
        {149904, 2140716576286, true, false, 8452, 3586, 2818, 0x403dcfbdc0523d65, 35571},
        {64532, 2140716576286, true, false, 21250, 2306, 2048, 0x4037d4b449b6baf3, 53913},
        {144629, 2140716576286, true, false, 10500, 6404, 2048, 0x405591381ffae219, 27079},
        // spmm, 2 threads
        {125464, 1513565123531, true, false, 9314, 6242, 1536, 0x40432f151496990f, 21670},
        {125464, 1513565123531, true, true, 9314, 6242, 1536, 0x40432f151496990f, 21670},
        {125464, 1513565123531, true, true, 9314, 6242, 1536, 0x40432f151496990f, 21670},
        {247192, 1513565123531, true, false, 9313, 6241, 1536, 0x40430e704f69b4c5, 21764},
        {247192, 1513565123531, true, false, 9313, 6241, 1536, 0x40430e704f69b4c5, 21764},
        {207706, 1513565123531, true, false, 10178, 6241, 2401, 0x403f8a50f8bd5811, 31279},
        {125464, 1513565123531, true, true, 9314, 6242, 1536, 0x40432f151496990f, 21670},
        {122239, 1513565123531, true, false, 9314, 6242, 1536, 0x4042aae0e99b6ff7, 21670},
        // spmm, 4 threads
        {64551, 1513565123531, true, false, 9316, 6244, 1536, 0x4043c4bc44e10126, 21506},
        {64551, 1513565123531, true, true, 9316, 6244, 1536, 0x4043c4bc44e10126, 21506},
        {64551, 1513565123531, true, true, 9316, 6244, 1536, 0x4043c4bc44e10126, 21506},
        {248878, 1513565123531, true, false, 9313, 6241, 1536, 0x404330fa0d5f498c, 21764},
        {248878, 1513565123531, true, false, 9313, 6241, 1536, 0x404330fa0d5f498c, 21764},
        {208896, 1513565123531, true, false, 10178, 6241, 2401, 0x403fbae203db1535, 31279},
        {64551, 1513565123531, true, true, 9316, 6244, 1536, 0x4043c4bc44e10126, 21506},
        {62918, 1513565123531, true, false, 9316, 6244, 1536, 0x40433f4d921f28d6, 21506},
        // bfs, 2 threads
        {188505, 1481763717921, true, false, 23563, 15030, 1361, 0x402f2babed550f91, 47502},
        {515130, 1481763717921, true, false, 106476, 35201, 20843, 0x4033011afd02d081, 207255},
        {271359, 1481763717921, true, false, 45210, 23628, 7878, 0x403162ccfd9dcb8f, 157799},
        {279649, 1481763717921, true, false, 23563, 15030, 1361, 0x402f07e733561530, 47034},
        {292539, 1481763717921, true, false, 45463, 22330, 1361, 0x4027bf116e9f6924, 65284},
        {424482, 1481763717921, true, false, 26830, 17116, 2522, 0x40359557e2cdecbc, 119277},
        {454524, 1481763717921, true, false, 45769, 8536, 1361, 0x40365ad773e23fd2, 129316},
        {167617, 1481763717921, true, false, 23563, 15030, 1361, 0x402c2c630fc5ae2d, 49529},
        // bfs, 4 threads
        {125729, 1481763717921, true, false, 23581, 15041, 1363, 0x403009e3821e7750, 48388},
        {380551, 1481763717921, true, false, 108498, 35966, 20848, 0x403422d3daee29a7, 211589},
        {181769, 1481763717921, true, false, 45544, 23806, 7937, 0x4031149a97f841e6, 159303},
        {283517, 1481763717921, true, false, 23563, 15030, 1361, 0x402f5e6dc211c834, 47034},
        {296085, 1481763717921, true, false, 45463, 22330, 1361, 0x4027fe37ea12a35d, 65284},
        {437547, 1481763717921, true, false, 26830, 17116, 2522, 0x40364be02c086034, 119277},
        {322358, 1481763717921, true, false, 45779, 8536, 1361, 0x403669ce93505ff8, 130166},
        {106100, 1481763717921, true, false, 23563, 15030, 1361, 0x402df98fca0a6c88, 50524},
    };
    std::vector<std::unique_ptr<app::Workload>> ws;
    ws.push_back(app::makeSpmv(512, 4096, 8, 11));
    ws.push_back(app::makeSdhp(256, 512, 8, 21));
    ws.push_back(app::makeSpmm(96, 4, 22));
    ws.push_back(app::makeBfs(10, 8, 23));
    const Pin *pin = pins;
    for (const auto &w : ws) {
        for (unsigned threads : {2u, 4u}) {
            for (Technique t : kAllTechniques) {
                SCOPED_TRACE(w->name() + " " + app::techniqueName(t) + " x" +
                             std::to_string(threads));
                RunConfig cfg;  // fpga(); at 4 threads, 4 cores in a 3x2 mesh
                cfg.tech = t;
                cfg.threads = threads;
                if (threads == 4) {
                    cfg.soc.num_cores = 4;
                    cfg.soc.mesh_width = 3;
                    cfg.soc.mesh_height = 2;
                }
                const RunResult r = w->run(cfg);
                EXPECT_EQ((Pin{r.cycles, r.checksum, r.valid, r.fell_back_to_doall,
                               r.instructions, r.loads, r.stores,
                               std::bit_cast<std::uint64_t>(r.mean_load_latency),
                               r.sim_events}),
                          *pin++);
            }
        }
    }
}
