/**
 * @file
 * Tests for dataset generators and simulated-memory arrays: structural
 * validity, determinism, distribution properties (skew / power law) and
 * upload/download round trips.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "soc/soc.hpp"
#include "workloads/data.hpp"

using namespace maple;
using namespace maple::app;

TEST(Generators, UniformSparseIsWellFormed)
{
    SparseMatrix m = makeUniformSparse(100, 1000, 8, 1);
    EXPECT_TRUE(m.wellFormed());
    EXPECT_EQ(m.rows, 100u);
    EXPECT_EQ(m.nnz(), 800u);
    for (std::uint32_t r = 0; r < m.rows; ++r)
        EXPECT_EQ(m.row_ptr[r + 1] - m.row_ptr[r], 8u);
}

TEST(Generators, SkewedSparseIsWellFormedAndSkewed)
{
    SparseMatrix uni = makeUniformSparse(500, 10000, 16, 2);
    SparseMatrix skw = makeSkewedSparse(500, 10000, 16, 2, 4.0);
    EXPECT_TRUE(skw.wellFormed());

    auto below_frac = [](const SparseMatrix &m, std::uint32_t bound) {
        size_t n = std::count_if(m.col_idx.begin(), m.col_idx.end(),
                                 [bound](std::uint32_t c) { return c < bound; });
        return double(n) / double(m.nnz());
    };
    // With skew 4, far more mass lands in the low tenth of the columns.
    EXPECT_GT(below_frac(skw, 1000), 2.0 * below_frac(uni, 1000));
}

TEST(Generators, DeterministicForEqualSeeds)
{
    SparseMatrix a = makeUniformSparse(64, 512, 4, 77);
    SparseMatrix b = makeUniformSparse(64, 512, 4, 77);
    SparseMatrix c = makeUniformSparse(64, 512, 4, 78);
    EXPECT_EQ(a.col_idx, b.col_idx);
    EXPECT_EQ(a.vals, b.vals);
    EXPECT_NE(a.col_idx, c.col_idx);
}

TEST(Generators, RmatHasPowerLawDegrees)
{
    SparseMatrix g = makeRmat(12, 8, 3);
    EXPECT_TRUE(g.vals.empty() || g.wellFormed());
    ASSERT_GT(g.nnz(), 1000u);

    std::uint32_t max_deg = 0;
    std::uint64_t total = 0;
    std::uint32_t nonzero_rows = 0;
    for (std::uint32_t r = 0; r < g.rows; ++r) {
        std::uint32_t d = g.row_ptr[r + 1] - g.row_ptr[r];
        max_deg = std::max(max_deg, d);
        total += d;
        nonzero_rows += d > 0;
    }
    double mean = double(total) / double(g.rows);
    EXPECT_GT(max_deg, 20 * mean) << "no hub vertices: not power-law";
    EXPECT_LT(nonzero_rows, g.rows) << "R-MAT should leave isolated vertices";
}

TEST(Generators, RmatColumnsSortedAndDeduplicated)
{
    SparseMatrix g = makeRmat(10, 8, 4);
    for (std::uint32_t r = 0; r < g.rows; ++r) {
        for (std::uint32_t j = g.row_ptr[r] + 1; j < g.row_ptr[r + 1]; ++j)
            ASSERT_LT(g.col_idx[j - 1], g.col_idx[j]);
    }
}

namespace {

/** R-MAT by the whole edge list: draw it, sort and deduplicate it, then
 *  count rows. makeRmat must build the same CSR. */
SparseMatrix
rmatBySortedEdgeList(unsigned scale, unsigned edge_factor, std::uint64_t seed,
                     double a = 0.57, double b = 0.19, double c = 0.19)
{
    const std::uint32_t n = 1u << scale;
    sim::Rng rng(seed);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> el;
    for (std::uint64_t e = 0; e < std::uint64_t(edge_factor) * n; ++e) {
        std::uint32_t src = 0, dst = 0;
        for (unsigned bit = 0; bit < scale; ++bit) {
            double p = rng.uniform();
            unsigned quad = p < a ? 0 : p < a + b ? 1 : p < a + b + c ? 2 : 3;
            src = (src << 1) | (quad >> 1);
            dst = (dst << 1) | (quad & 1);
        }
        if (src != dst)
            el.emplace_back(src, dst);
    }
    std::sort(el.begin(), el.end());
    el.erase(std::unique(el.begin(), el.end()), el.end());
    SparseMatrix m;
    m.rows = m.cols = n;
    m.row_ptr.assign(n + 1, 0);
    for (auto &[s, d] : el)
        ++m.row_ptr[s + 1];
    for (std::uint32_t r = 0; r < n; ++r)
        m.row_ptr[r + 1] += m.row_ptr[r];
    for (auto &[s, d] : el)
        m.col_idx.push_back(d);
    m.vals.assign(m.col_idx.size(), 1.0f);
    return m;
}

}  // namespace

TEST(Generators, RmatMatchesSortedEdgeListReference)
{
    for (unsigned scale : {6u, 10u, 12u}) {
        for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 11u, 77u}) {
            SparseMatrix got = makeRmat(scale, 16, seed);
            SparseMatrix want = rmatBySortedEdgeList(scale, 16, seed);
            ASSERT_EQ(got.rows, want.rows);
            ASSERT_EQ(got.row_ptr, want.row_ptr) << scale << "/" << seed;
            ASSERT_EQ(got.col_idx, want.col_idx) << scale << "/" << seed;
            ASSERT_EQ(got.vals, want.vals) << scale << "/" << seed;
        }
    }
    // Skewed quadrant weights, one of them zero, take the same draws.
    SparseMatrix got = makeRmat(8, 8, 5, 0.7, 0.0, 0.25);
    SparseMatrix want = rmatBySortedEdgeList(8, 8, 5, 0.7, 0.0, 0.25);
    EXPECT_EQ(got.row_ptr, want.row_ptr);
    EXPECT_EQ(got.col_idx, want.col_idx);
}

TEST(Generators, DenseVectorInUnitInterval)
{
    auto v = makeDenseVector(10000, 5);
    for (float x : v) {
        ASSERT_GE(x, 0.0f);
        ASSERT_LT(x, 1.0f);
    }
}

TEST(SimArray, UploadDownloadRoundTrip)
{
    soc::Soc soc(soc::SocConfig::fpga());
    os::Process &proc = soc.createProcess("data");
    std::vector<std::uint32_t> host(5000);
    for (size_t i = 0; i < host.size(); ++i)
        host[i] = static_cast<std::uint32_t>(i * 13);

    SimArray<std::uint32_t> arr(proc, host.size(), "arr");
    arr.upload(host);
    EXPECT_EQ(arr.read(4321), 4321u * 13);
    arr.write(17, 999);
    auto back = arr.download();
    EXPECT_EQ(back[17], 999u);
    EXPECT_EQ(back[4321], 4321u * 13);
}

TEST(SimArray, AddressingIsContiguous)
{
    soc::Soc soc(soc::SocConfig::fpga());
    os::Process &proc = soc.createProcess("data");
    SimArray<float> arr(proc, 100, "f");
    EXPECT_EQ(arr.addr(10) - arr.addr(0), 40u);
    EXPECT_EQ(arr.size(), 100u);
}

TEST(SimCsr, UploadPreservesStructure)
{
    soc::Soc soc(soc::SocConfig::fpga());
    os::Process &proc = soc.createProcess("data");
    SparseMatrix m = makeUniformSparse(32, 256, 4, 9);
    SimCsr s = SimCsr::upload(proc, m, true);
    for (std::uint32_t r = 0; r <= m.rows; ++r)
        ASSERT_EQ(s.row_ptr.read(r), m.row_ptr[r]);
    for (size_t j = 0; j < m.nnz(); ++j) {
        ASSERT_EQ(s.col_idx.read(j), m.col_idx[j]);
        ASSERT_EQ(s.vals.read(j), m.vals[j]);
    }
}
