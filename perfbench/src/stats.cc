#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Quantile TailQuantile(std::vector<double>* samples, double q) {
  Quantile out;
  out.samples = samples->size();
  if (samples->empty()) return out;
  std::sort(samples->begin(), samples->end());
  const size_t n = samples->size();
  // Nearest rank: the smallest value with at least q*n samples at or below.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  out.value = (*samples)[rank - 1];
  out.supported = n - rank >= kMinTailSamples;
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Quantile WindowedQuantile(std::vector<std::vector<double>> windows,
                          double q) {
  Quantile out;
  std::vector<double> values;
  for (std::vector<double>& w : windows) {
    const Quantile wq = TailQuantile(&w, q);
    out.samples += wq.samples;
    if (wq.supported) values.push_back(wq.value);
  }
  out.supported = !windows.empty() && 2 * values.size() > windows.size();
  out.value = Median(std::move(values));
  return out;
}

}  // namespace perfbench
