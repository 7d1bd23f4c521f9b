#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace genealog {

void RunStats::Add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  sum_sq_ += x * x;
}

double RunStats::mean() const {
  return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_);
}

double RunStats::variance() const {
  if (n_ < 2) return 0.0;
  const double n = static_cast<double>(n_);
  const double var = (sum_sq_ - sum_ * sum_ / n) / (n - 1);
  return var > 0 ? var : 0.0;
}

double RunStats::stddev() const { return std::sqrt(variance()); }

double RunStats::ci95() const {
  if (n_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = pct / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

SampleStats::SampleStats(size_t reservoir_capacity)
    : capacity_(reservoir_capacity), rng_state_(0x9e3779b97f4a7c15ULL) {
  reservoir_.reserve(std::min<size_t>(capacity_, 4096));
}

void SampleStats::Add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  if (reservoir_.size() < capacity_) {
    reservoir_.push_back(x);
  } else {
    // Algorithm R: replace a random slot with probability capacity/n.
    const uint64_t slot = NextRandom() % n_;
    if (slot < capacity_) reservoir_[slot] = x;
  }
}

uint64_t SampleStats::NextRandom() {
  rng_state_ ^= rng_state_ << 13;
  rng_state_ ^= rng_state_ >> 7;
  rng_state_ ^= rng_state_ << 17;
  return rng_state_;
}

double SampleStats::mean() const {
  return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_);
}

double SampleStats::percentile(double pct) const {
  return Percentile(reservoir_, pct);
}

void SampleStats::Merge(const SampleStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  const size_t n = n_ + other.n_;
  const bool exact = reservoir_.size() == n_ &&
                     other.reservoir_.size() == other.n_ && n <= capacity_;
  if (exact) {
    reservoir_.insert(reservoir_.end(), other.reservoir_.begin(),
                      other.reservoir_.end());
  } else {
    // Each reservoir is a uniform sample standing for its side's n_ samples.
    // Keep as large a sample of the union as the sparser side supports,
    // split between the sides in proportion to their counts.
    const double total = static_cast<double>(n);
    auto supported = [total](const SampleStats& side) {
      return static_cast<double>(side.reservoir_.size()) * total /
             static_cast<double>(side.n_);
    };
    double fit = std::min(static_cast<double>(capacity_), supported(other));
    if (n_ > 0) fit = std::min(fit, supported(*this));
    const size_t keep = static_cast<size_t>(fit);
    const double mine = std::round(static_cast<double>(keep) *
                                   static_cast<double>(n_) / total);
    const size_t keep_mine =
        std::min(reservoir_.size(), static_cast<size_t>(mine));
    const size_t keep_other =
        std::min(other.reservoir_.size(), keep - keep_mine);
    std::vector<double> theirs = other.reservoir_;
    Subsample(reservoir_, keep_mine);
    Subsample(theirs, keep_other);
    reservoir_.insert(reservoir_.end(), theirs.begin(), theirs.end());
  }
  n_ = n;
  sum_ += other.sum_;
}

void SampleStats::Subsample(std::vector<double>& samples, size_t keep) {
  // Partial Fisher–Yates: the first `keep` slots end up a uniform subset.
  for (size_t i = 0; i < keep && i + 1 < samples.size(); ++i) {
    const size_t j =
        i + static_cast<size_t>(NextRandom() % (samples.size() - i));
    std::swap(samples[i], samples[j]);
  }
  samples.resize(std::min(keep, samples.size()));
}

}  // namespace genealog
