#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie beyond
/// it (so p99 needs n >= 1000).
inline constexpr size_t kMinTailSamples = 10;

struct Quantile {
  double value = 0.0;
  size_t samples = 0;
  bool supported = false;  ///< >= kMinTailSamples samples beyond the rank.
};

/// Nearest-rank q-quantile of `samples` (sorted in place).
Quantile TailQuantile(std::vector<double>* samples, double q);

/// Median of `values`; 0 when empty. Even counts average the two middle
/// values.
double Median(std::vector<double> values);

/// The q-quantile of each window that supports it, then the median across
/// those windows. Supported when more than half of the windows support q,
/// so one stalled window cannot decide the result. `samples` is the total.
Quantile WindowedQuantile(std::vector<std::vector<double>> windows, double q);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
