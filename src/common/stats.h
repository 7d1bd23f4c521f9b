// Descriptive statistics for experiment reporting: mean, stddev, 95% CI,
// percentiles. The benches average over repeated runs and report the 95%
// confidence interval like the paper does.
#ifndef GENEALOG_COMMON_STATS_H_
#define GENEALOG_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace genealog {

class RunStats {
 public:
  void Add(double x);

  size_t count() const { return n_; }
  double mean() const;
  double variance() const;  // sample variance (n-1)
  double stddev() const;
  // Half-width of the 95% confidence interval (normal approximation).
  double ci95() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  size_t n_ = 0;
  double sum_ = 0;
  double sum_sq_ = 0;
  double min_ = 0;
  double max_ = 0;
};

// Percentile over an explicit sample set (nearest-rank).
double Percentile(std::vector<double> samples, double pct);

// Welford-style online accumulator for high-volume per-tuple measurements
// (latency, traversal time) where we keep a bounded reservoir for percentiles.
class SampleStats {
 public:
  explicit SampleStats(size_t reservoir_capacity = 65536);

  void Add(double x);
  size_t count() const { return n_; }
  double mean() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double percentile(double pct) const;

  // Folds `other` in, as if its samples had been added here. Count, mean,
  // min and max are exact. So are percentiles while neither reservoir has
  // overflowed and the union fits this one's capacity; past that the
  // reservoir keeps a uniform sample of the union, each side represented in
  // proportion to its sample count (Adds after such a lossy merge are no
  // longer uniformly sampled, so merge to report, not to keep recording).
  void Merge(const SampleStats& other);

 private:
  uint64_t NextRandom();  // xorshift64
  // Shrinks `samples` in place to a uniform random subset of `keep`.
  void Subsample(std::vector<double>& samples, size_t keep);

  size_t n_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  size_t capacity_;
  uint64_t rng_state_;
  std::vector<double> reservoir_;
};

}  // namespace genealog

#endif  // GENEALOG_COMMON_STATS_H_
