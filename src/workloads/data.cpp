#include "workloads/data.hpp"
#include <cmath>

#include <algorithm>
#include <set>

namespace maple::app {

bool
SparseMatrix::wellFormed() const
{
    if (row_ptr.size() != rows + 1u || row_ptr.front() != 0 ||
        row_ptr.back() != col_idx.size())
        return false;
    if (!vals.empty() && vals.size() != col_idx.size())
        return false;
    for (std::uint32_t r = 0; r < rows; ++r) {
        if (row_ptr[r] > row_ptr[r + 1])
            return false;
        for (std::uint32_t j = row_ptr[r]; j < row_ptr[r + 1]; ++j) {
            if (col_idx[j] >= cols)
                return false;
            if (j > row_ptr[r] && col_idx[j] <= col_idx[j - 1])
                return false;  // strictly sorted within a row
        }
    }
    return true;
}

SparseMatrix
makeUniformSparse(std::uint32_t rows, std::uint32_t cols,
                  std::uint32_t nnz_per_row, std::uint64_t seed)
{
    MAPLE_ASSERT(nnz_per_row <= cols, "row denser than the matrix is wide");
    sim::Rng rng(seed);
    SparseMatrix m;
    m.rows = rows;
    m.cols = cols;
    m.row_ptr.reserve(rows + 1);
    m.row_ptr.push_back(0);
    std::set<std::uint32_t> row;
    for (std::uint32_t r = 0; r < rows; ++r) {
        row.clear();
        while (row.size() < nnz_per_row)
            row.insert(static_cast<std::uint32_t>(rng.below(cols)));
        for (std::uint32_t c : row) {
            m.col_idx.push_back(c);
            m.vals.push_back(static_cast<float>(rng.uniform()) + 0.1f);
        }
        m.row_ptr.push_back(static_cast<std::uint32_t>(m.col_idx.size()));
    }
    return m;
}

SparseMatrix
makeSkewedSparse(std::uint32_t rows, std::uint32_t cols,
                 std::uint32_t nnz_per_row, std::uint64_t seed, double skew)
{
    MAPLE_ASSERT(nnz_per_row <= cols && skew >= 1.0);
    sim::Rng rng(seed);
    SparseMatrix m;
    m.rows = rows;
    m.cols = cols;
    m.row_ptr.reserve(rows + 1);
    m.row_ptr.push_back(0);
    std::set<std::uint32_t> row;
    for (std::uint32_t r = 0; r < rows; ++r) {
        row.clear();
        while (row.size() < nnz_per_row) {
            double u = rng.uniform();
            auto c = static_cast<std::uint32_t>(
                static_cast<double>(cols) * std::pow(u, skew));
            row.insert(std::min(c, cols - 1));
        }
        for (std::uint32_t c : row) {
            m.col_idx.push_back(c);
            m.vals.push_back(static_cast<float>(rng.uniform()) + 0.1f);
        }
        m.row_ptr.push_back(static_cast<std::uint32_t>(m.col_idx.size()));
    }
    return m;
}

SparseMatrix
makeRmat(unsigned scale, unsigned edge_factor, std::uint64_t seed, double a,
         double b, double c)
{
    MAPLE_ASSERT(scale >= 2 && scale <= 24, "unreasonable R-MAT scale");
    const std::uint32_t n = 1u << scale;
    const std::uint64_t edges = std::uint64_t(edge_factor) * n;
    sim::Rng rng(seed);

    std::vector<std::pair<std::uint32_t, std::uint32_t>> el;
    el.reserve(edges);
    for (std::uint64_t e = 0; e < edges; ++e) {
        std::uint32_t src = 0, dst = 0;
        for (unsigned bit = 0; bit < scale; ++bit) {
            double p = rng.uniform();
            // The quadrant, 0..3, without a branch (a, b, c >= 0).
            unsigned quad = unsigned(p >= a) + unsigned(p >= a + b) +
                unsigned(p >= a + b + c);
            src = (src << 1) | (quad >> 1);
            dst = (dst << 1) | (quad & 1);
        }
        if (src != dst)
            el.emplace_back(src, dst);
    }

    SparseMatrix m;
    m.rows = n;
    m.cols = n;
    m.row_ptr.assign(n + 1, 0);
    for (auto &[s, d] : el)
        ++m.row_ptr[s + 1];
    for (std::uint32_t r = 0; r < n; ++r)
        m.row_ptr[r + 1] += m.row_ptr[r];
    // Place each edge in its source's row, then sort and deduplicate row by
    // row, compacting leftwards: the CSR that sorting the whole edge list
    // gives, without the comparison sort over every edge.
    m.col_idx.resize(el.size());
    std::vector<std::uint32_t> fill(m.row_ptr.begin(), m.row_ptr.end() - 1);
    for (auto &[s, d] : el)
        m.col_idx[fill[s]++] = d;
    std::uint32_t kept = 0;
    for (std::uint32_t r = 0; r < n; ++r) {
        auto first = m.col_idx.begin() + m.row_ptr[r];
        auto last = m.col_idx.begin() + m.row_ptr[r + 1];
        std::sort(first, last);
        last = std::unique(first, last);
        m.row_ptr[r] = kept;  // bucket r is read; bucket r + 1 is not yet
        for (auto it = first; it != last; ++it)
            m.col_idx[kept++] = *it;
    }
    m.row_ptr[n] = kept;
    m.col_idx.resize(kept);
    m.vals.assign(m.col_idx.size(), 1.0f);
    return m;
}

std::vector<float>
makeDenseVector(size_t n, std::uint64_t seed)
{
    sim::Rng rng(seed);
    std::vector<float> v(n);
    for (auto &x : v)
        x = static_cast<float>(rng.uniform());
    return v;
}

SimCsr
SimCsr::upload(os::Process &proc, const SparseMatrix &m, bool with_vals)
{
    MAPLE_ASSERT(m.wellFormed() || m.vals.empty(), "uploading malformed matrix");
    SimCsr s;
    s.row_ptr = SimArray<std::uint32_t>(proc, m.row_ptr.size(), "row_ptr");
    s.row_ptr.upload(m.row_ptr);
    s.col_idx = SimArray<std::uint32_t>(proc, m.col_idx.size(), "col_idx");
    s.col_idx.upload(m.col_idx);
    if (with_vals) {
        s.vals = SimArray<float>(proc, m.vals.size(), "vals");
        s.vals.upload(m.vals);
    }
    return s;
}

}  // namespace maple::app
