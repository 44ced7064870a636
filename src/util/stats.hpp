// Small statistics helpers used by the monitor, benches and experiments.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/error.hpp"
#include "util/time.hpp"

namespace hades {

/// Streaming summary statistics (Welford's algorithm), value-semantic.
class running_stats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  void add(duration d) { add(static_cast<double>(d.count())); }

  /// Fold another summary into this one (Chan et al.'s parallel update).
  /// Used to combine node-confined accumulators into one report; merging in
  /// a fixed order keeps the result deterministic.
  void merge(const running_stats& o) {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    const auto na = static_cast<double>(n_);
    const auto nb = static_cast<double>(o.n_);
    const double delta = o.mean_ - mean_;
    const double total = na + nb;
    m2_ += o.m2_ + delta * delta * na * nb / total;
    mean_ += delta * nb / total;
    n_ += o.n_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Sample collector with percentile queries (copies are sorted lazily).
class sample_set {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  void add(duration d) { add(static_cast<double>(d.count())); }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// Percentile in [0, 100], nearest-rank method.
  [[nodiscard]] double percentile(double p) {
    require(!samples_.empty(), "sample_set::percentile on empty set");
    sort();
    const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
  }
  [[nodiscard]] double median() { return percentile(50.0); }
  [[nodiscard]] double max() {
    require(!samples_.empty(), "sample_set::max on empty set");
    sort();
    return samples_.back();
  }
  [[nodiscard]] double min() {
    require(!samples_.empty(), "sample_set::min on empty set");
    sort();
    return samples_.front();
  }
  [[nodiscard]] double mean() const {
    if (samples_.empty()) return 0.0;
    double sum = 0.0;
    for (double s : samples_) sum += s;
    return sum / static_cast<double>(samples_.size());
  }

 private:
  void sort() {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }
  std::vector<double> samples_;
  bool sorted_ = true;
};

}  // namespace hades
