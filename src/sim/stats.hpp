/**
 * @file
 * Lightweight statistics: named counters, averages and histograms that
 * hardware models register into a StatGroup and the harness can dump.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "ckpt/serial.hpp"
#include "sim/log.hpp"

namespace maple::sim {

/** Monotonic event counter. */
class Counter {
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

    template <class Ar> void state(Ar &ar) { ar.u64(value_); }

  private:
    std::uint64_t value_ = 0;
};

/** Running average of sampled values (e.g. load latency), with min/max. */
class Average {
  public:
    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
    std::uint64_t count() const { return count_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }

    template <class Ar>
    void
    state(Ar &ar)
    {
        ar.f64(sum_);
        ar.u64(count_);
        ar.f64(min_);
        ar.f64(max_);
    }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Fixed-bucket histogram (linear buckets, last bucket is overflow). */
class Histogram {
  public:
    Histogram(double bucket_width = 1.0, size_t buckets = 64)
        : width_(bucket_width), counts_(buckets, 0)
    {
        MAPLE_ASSERT(bucket_width > 0 && buckets > 0);
    }

    void
    sample(double v)
    {
        size_t idx = v < 0 ? 0 : static_cast<size_t>(v / width_);
        idx = std::min(idx, counts_.size() - 1);
        ++counts_[idx];
        ++total_;
        max_ = std::max(max_, v);
    }

    std::uint64_t total() const { return total_; }
    double maxSample() const { return max_; }
    const std::vector<std::uint64_t> &buckets() const { return counts_; }

    /**
     * Estimated p-quantile (p in [0, 1]), interpolating linearly within the
     * covering bucket -- a bucket holding ranks [seen, seen+c) maps the
     * target rank onto a fraction of the bucket's width rather than snapping
     * to its lower edge.
     */
    double
    percentile(double p) const
    {
        if (total_ == 0)
            return 0.0;
        double target = p * static_cast<double>(total_);
        std::uint64_t seen = 0;
        for (size_t i = 0; i < counts_.size(); ++i) {
            std::uint64_t c = counts_[i];
            if (c == 0)
                continue;
            if (static_cast<double>(seen) + static_cast<double>(c) > target) {
                double frac = (target - static_cast<double>(seen)) /
                              static_cast<double>(c);
                return (static_cast<double>(i) + frac) * width_;
            }
            seen += c;
        }
        return max_;  // p == 1.0 (or rounding): the largest observed sample
    }

    void
    reset()
    {
        counts_.assign(counts_.size(), 0);
        total_ = 0;
        max_ = 0.0;
    }

    template <class Ar>
    void
    state(Ar &ar)
    {
        ar.f64(width_);
        ar.vecU64(counts_);
        ar.u64(total_);
        ar.f64(max_);
    }

  private:
    double width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    double max_ = 0.0;
};

/** Hierarchical, name-addressed registry of stats for dumping. */
class StatGroup {
  public:
    explicit StatGroup(std::string name = "") : name_(std::move(name)) {}

    Counter &counter(const std::string &name) { return counters_[name]; }
    Average &average(const std::string &name) { return averages_[name]; }

    /**
     * Registered histogram; geometry arguments apply only on first use
     * (later calls return the existing histogram unchanged).
     */
    Histogram &
    histogram(const std::string &name, double bucket_width = 1.0,
              size_t buckets = 64)
    {
        auto [it, inserted] =
            histograms_.try_emplace(name, bucket_width, buckets);
        return it->second;
    }

    const std::map<std::string, Counter> &counters() const { return counters_; }
    const std::map<std::string, Average> &averages() const { return averages_; }
    const std::map<std::string, Histogram> &histograms() const { return histograms_; }
    const std::string &name() const { return name_; }

    std::uint64_t
    counterValue(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second.value();
    }

    void
    reset()
    {
        for (auto &[k, c] : counters_)
            c.reset();
        for (auto &[k, a] : averages_)
            a.reset();
        for (auto &[k, h] : histograms_)
            h.reset();
    }

    std::string dump() const;

    /**
     * Snapshot support. A restore never erases map entries: hardware models
     * hold borrowed pointers into this group's maps (e.g. Dram's per-class
     * latency histograms, every bound CounterHandle), so entries are
     * found-or-created and overwritten in place (ckpt::Source::sortedMap).
     */
    template <class Ar>
    void
    state(Ar &ar)
    {
        auto walk = [&ar](auto &stat) { stat.state(ar); };
        ar.sortedMap(counters_, walk);
        ar.sortedMap(averages_, walk);
        ar.sortedMap(histograms_, walk);
    }

  private:
    std::string name_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Average> averages_;
    std::map<std::string, Histogram> histograms_;
};

/**
 * A named counter of a StatGroup, looked up once instead of on every
 * increment. The entry is created on the first inc(), exactly when
 * `group.counter(name).inc()` would create it, so dumps, stats JSON and
 * snapshot images do not change. StatGroup never erases an entry, so the
 * bound counter stays valid for the group's lifetime, across a restore.
 * Not copyable: the handle belongs to the component owning the group.
 */
class CounterHandle {
  public:
    /** @p name must outlive the handle (a string literal). */
    CounterHandle(StatGroup &group, const char *name) : group_(group), name_(name) {}
    CounterHandle(const CounterHandle &) = delete;
    CounterHandle &operator=(const CounterHandle &) = delete;

    void
    inc(std::uint64_t n = 1)
    {
        if (!counter_)
            counter_ = &group_.counter(name_);
        counter_->inc(n);
    }

  private:
    StatGroup &group_;
    const char *name_;
    Counter *counter_ = nullptr;
};

/** CounterHandle's counterpart for a histogram, bound on first sample(). */
class HistogramHandle {
  public:
    HistogramHandle(StatGroup &group, const char *name, double bucket_width,
                    size_t buckets)
        : group_(group), name_(name), width_(bucket_width), buckets_(buckets)
    {
    }
    HistogramHandle(const HistogramHandle &) = delete;
    HistogramHandle &operator=(const HistogramHandle &) = delete;

    void
    sample(double v)
    {
        if (!hist_)
            hist_ = &group_.histogram(name_, width_, buckets_);
        hist_->sample(v);
    }

  private:
    StatGroup &group_;
    const char *name_;
    double width_;
    size_t buckets_;
    Histogram *hist_ = nullptr;
};

/** CounterHandle's counterpart for an average, bound on first sample(). */
class AverageHandle {
  public:
    AverageHandle(StatGroup &group, const char *name) : group_(group), name_(name) {}
    AverageHandle(const AverageHandle &) = delete;
    AverageHandle &operator=(const AverageHandle &) = delete;

    void
    sample(double v)
    {
        if (!avg_)
            avg_ = &group_.average(name_);
        avg_->sample(v);
    }

  private:
    StatGroup &group_;
    const char *name_;
    Average *avg_ = nullptr;
};

/** Geometric mean helper used by the figure harness. */
double geomean(const std::vector<double> &xs);

}  // namespace maple::sim
