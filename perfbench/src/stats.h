// Order statistics for the benchmark's reported figures.
//
// A timing is reported as a median plus the highest percentile its samples
// support: a percentile is only given when at least kMinTailSamples samples
// lie beyond it; otherwise the value is absent and the sample count is still
// reported, never a stand-in 0. Repeated runs are combined by taking the
// median or the lowest of their per-run figures.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr size_t kMinTailSamples = 10;

struct Percentile {
  std::optional<double> value;  // empty: too few samples beyond it
  size_t samples = 0;           // all samples the value was taken from
  size_t beyond = 0;            // samples strictly after it in sorted order
};

// Nearest-rank percentile `pct` (0 < pct <= 100) of `samples`.
Percentile TailPercentile(std::vector<double> samples, double pct,
                          size_t min_beyond = kMinTailSamples);

// The lowest over runs of each run's percentile `pct`. Absent unless every
// run has at least `min_beyond` samples beyond its own percentile; `samples`
// is the total over runs and `beyond` the smallest per-run tail.
Percentile LowestOfRunPercentiles(const std::vector<std::vector<double>>& runs,
                                  double pct,
                                  size_t min_beyond = kMinTailSamples);

// Median of `values` (mean of the two middle values for even counts); 0 for
// an empty input.
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
