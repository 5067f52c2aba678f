#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>

#include "validate/invariant.hpp"

namespace intox::sim {

void RunningStats::add(double x) {
  INTOX_INVARIANT(!std::isnan(x), "RunningStats::add(NaN) would poison the "
                                  "mean of all %zu samples", n_);
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const std::size_t n = n_ + other.n_;
  const double delta = other.mean_ - mean_;
  mean_ += delta * static_cast<double>(other.n_) / static_cast<double>(n);
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                         static_cast<double>(other.n_) /
                         static_cast<double>(n);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ = n;
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

void TimeSeries::record(Time t, double value) {
  INTOX_INVARIANT(points_.empty() || t >= points_.back().first,
                  "TimeSeries::record time went backwards (%lld < %lld); "
                  "at()/mean_over() assume time order",
                  static_cast<long long>(t),
                  static_cast<long long>(points_.back().first));
  points_.push_back({t, value});
}

double TimeSeries::at(Time t, double before) const {
  // points_ is time-ordered by construction (record() enforces it).
  auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](Time lhs, const auto& p) { return lhs < p.first; });
  if (it == points_.begin()) return before;
  return std::prev(it)->second;
}

double TimeSeries::mean_over(Time from, Time to) const {
  INTOX_INVARIANT(to >= from, "mean_over window is inverted: [%lld, %lld]",
                  static_cast<long long>(from), static_cast<long long>(to));
  if (to <= from) return at(from);
  // Integrate the step function: each segment contributes value * width.
  double integral = 0.0;
  Time seg_start = from;
  auto it = std::upper_bound(
      points_.begin(), points_.end(), from,
      [](Time lhs, const auto& p) { return lhs < p.first; });
  double value = (it == points_.begin()) ? 0.0 : std::prev(it)->second;
  for (; it != points_.end() && it->first < to; ++it) {
    if (it->first > seg_start) {
      integral += value * static_cast<double>(it->first - seg_start);
      seg_start = it->first;
    }
    value = it->second;  // same-timestamp points: the last one wins
  }
  integral += value * static_cast<double>(to - seg_start);
  return integral / static_cast<double>(to - from);
}

std::vector<double> TimeSeries::resample(Time from, Time to,
                                         Duration step) const {
  INTOX_INVARIANT(step > 0, "resample step must be positive (got %lld)",
                  static_cast<long long>(step));
  std::vector<double> out;
  if (step <= 0) return out;
  for (Time t = from; t <= to; t += step) out.push_back(at(t));
  return out;
}

WindowStats window_stats(const TimeSeries& series, Time from) {
  RunningStats stats;
  for (const auto& [t, v] : series.points()) {
    if (t >= from) stats.add(v);
  }
  WindowStats out;
  out.mean = stats.mean();
  if (out.mean > 0) {
    out.cv = stats.stddev() / out.mean;
    out.amplitude = (stats.max() - stats.min()) / (2.0 * out.mean);
  }
  return out;
}

SeriesStats::SeriesStats(Time from, Time to, Duration step)
    : from_(from), step_(step) {
  INTOX_INVARIANT(step > 0, "SeriesStats grid step must be positive (got "
                            "%lld)", static_cast<long long>(step));
  INTOX_INVARIANT(to >= from, "SeriesStats grid is inverted: [%lld, %lld]",
                  static_cast<long long>(from), static_cast<long long>(to));
  if (step <= 0 || to < from) return;  // degraded path: empty grid
  cells_.resize(static_cast<std::size_t>((to - from) / step) + 1);
}

void SeriesStats::add(const TimeSeries& series) {
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    cells_[i].add(series.at(time_at(i)));
  }
  ++series_;
}

void SeriesStats::merge(const SeriesStats& other) {
  if (other.cells_.size() != cells_.size() || other.from_ != from_ ||
      other.step_ != step_) {
    // A silent return here used to drop the other shard's trials from the
    // sweep aggregate — exactly the input corruption the paper warns
    // about, applied to ourselves.
    INTOX_INVARIANT(false,
                    "SeriesStats::merge grid mismatch (%zu cells from %lld "
                    "step %lld vs %zu cells from %lld step %lld) would drop "
                    "%zu series",
                    cells_.size(), static_cast<long long>(from_),
                    static_cast<long long>(step_), other.cells_.size(),
                    static_cast<long long>(other.from_),
                    static_cast<long long>(other.step_), other.series_);
    return;  // counter-only mode: keep the old skip rather than mixing grids
  }
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    cells_[i].merge(other.cells_[i]);
  }
  series_ += other.series_;
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi),
      width_(buckets > 0 ? (hi - lo) / static_cast<double>(buckets) : 0.0),
      counts_(buckets, 0) {
  INTOX_INVARIANT(buckets > 0, "Histogram needs at least one bucket");
  INTOX_INVARIANT(hi > lo, "Histogram range is empty: [%g, %g)", lo, hi);
}

void Histogram::merge(const Histogram& other) {
  if (other.counts_.size() != counts_.size() || other.lo_ != lo_ ||
      other.hi_ != hi_) {
    INTOX_INVARIANT(false,
                    "Histogram::merge layout mismatch ([%g, %g) x%zu vs "
                    "[%g, %g) x%zu) would drop %llu samples",
                    lo_, hi_, counts_.size(), other.lo_, other.hi_,
                    other.counts_.size(),
                    static_cast<unsigned long long>(other.total_));
    return;  // counter-only mode: keep the old skip rather than mixing layouts
  }
  if (other.total_ == 0) return;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  if (total_ == 0) {
    min_seen_ = other.min_seen_;
    max_seen_ = other.max_seen_;
  } else {
    min_seen_ = std::min(min_seen_, other.min_seen_);
    max_seen_ = std::max(max_seen_, other.max_seen_);
  }
  total_ += other.total_;
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;

  std::uint64_t in_range = 0;
  for (std::uint64_t c : counts_) in_range += c;
  INTOX_INVARIANT(in_range + underflow_ + overflow_ == total_,
                  "Histogram::merge lost samples: %llu bucketed + %llu "
                  "under + %llu over != %llu total",
                  static_cast<unsigned long long>(in_range),
                  static_cast<unsigned long long>(underflow_),
                  static_cast<unsigned long long>(overflow_),
                  static_cast<unsigned long long>(total_));
}

void Histogram::add(double x) {
  INTOX_INVARIANT(!std::isnan(x), "Histogram::add(NaN) is unclassifiable");
  if (std::isnan(x)) return;  // counter-only mode: drop rather than misfile
  if (total_ == 0) {
    min_seen_ = max_seen_ = x;
  } else {
    min_seen_ = std::min(min_seen_, x);
    max_seen_ = std::max(max_seen_, x);
  }
  ++total_;
  if (x < lo_) {
    ++underflow_;
  } else if (x >= hi_) {
    ++overflow_;
  } else {
    auto i = static_cast<std::size_t>((x - lo_) / width_);
    if (i >= counts_.size()) i = counts_.size() - 1;  // float edge case
    ++counts_[i];
  }
}

double Histogram::quantile(double q) const {
  if (total_ == 0) return lo_;
  if (q <= 0.0) return min_seen_;
  if (q >= 1.0) return max_seen_;
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(total_));
  // Rank order: underflow mass first, then the buckets, then overflow.
  if (target < underflow_) return min_seen_;
  std::uint64_t seen = underflow_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen > target) {
      const double mid = bucket_lo(i) + width_ / 2.0;
      return std::clamp(mid, min_seen_, max_seen_);
    }
  }
  return max_seen_;  // target falls in the overflow mass
}

}  // namespace intox::sim
