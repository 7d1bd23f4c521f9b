#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Percentile TailPercentile(std::vector<double> samples, double pct,
                          size_t min_beyond) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(samples.size()));
  const size_t index =
      std::min(samples.size() - 1, static_cast<size_t>(std::max(rank, 1.0)) - 1);
  p.beyond = samples.size() - 1 - index;
  if (p.beyond >= min_beyond) p.value = samples[index];
  return p;
}

Percentile LowestOfRunPercentiles(const std::vector<std::vector<double>>& runs,
                                  double pct, size_t min_beyond) {
  Percentile p;
  std::vector<double> values;
  bool all = !runs.empty();
  for (const std::vector<double>& run : runs) {
    const Percentile r = TailPercentile(run, pct, min_beyond);
    p.beyond = values.empty() && p.samples == 0 ? r.beyond
                                                : std::min(p.beyond, r.beyond);
    p.samples += r.samples;
    if (r.value.has_value()) {
      values.push_back(*r.value);
    } else {
      all = false;
    }
  }
  if (all) p.value = *std::min_element(values.begin(), values.end());
  return p;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

}  // namespace perfbench
