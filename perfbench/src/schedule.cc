#include "schedule.h"

#include <algorithm>
#include <cmath>
#include <random>

namespace perfbench {
namespace {

bool Bursty(const ScheduleSpec& spec) {
  return spec.burst_factor != 1.0 && spec.period_s > 0.0 &&
         spec.burst_s > 0.0 && spec.burst_s < spec.period_s;
}

double RestRate(const ScheduleSpec& spec) {
  const double rest =
      (spec.mean_rate * spec.period_s -
       spec.burst_factor * spec.mean_rate * spec.burst_s) /
      (spec.period_s - spec.burst_s);
  return std::max(rest, 0.0);
}

}  // namespace

double RateAt(const ScheduleSpec& spec, double t) {
  if (!Bursty(spec)) return spec.mean_rate;
  const double phase = t - std::floor(t / spec.period_s) * spec.period_s;
  return phase < spec.burst_s ? spec.burst_factor * spec.mean_rate
                              : RestRate(spec);
}

void MakeSchedule(const ScheduleSpec& spec, std::vector<Arrival>* arrivals) {
  std::vector<Arrival>& out = *arrivals;
  out.clear();
  if (spec.mean_rate <= 0.0 || spec.duration_s <= 0.0 || spec.tenants == 0) {
    return;
  }
  out.reserve(static_cast<size_t>(spec.mean_rate * spec.duration_s * 1.1) +
              16);
  std::mt19937_64 engine(spec.seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<uint64_t> pick(0, spec.tenants - 1);

  // Poisson arrivals over [begin, end) at a constant rate.
  auto fill = [&](double begin, double end, double rate) {
    if (rate <= 0.0) return;
    double t = begin;
    while (true) {
      t += -std::log(1.0 - unit(engine)) / rate;
      if (t >= end) return;
      out.push_back({t, static_cast<uint32_t>(pick(engine))});
    }
  };

  if (!Bursty(spec)) {
    fill(0.0, spec.duration_s, spec.mean_rate);
    return;
  }
  const double burst_rate = spec.burst_factor * spec.mean_rate;
  const double rest_rate = RestRate(spec);
  for (size_t k = 0;; ++k) {
    const double start = static_cast<double>(k) * spec.period_s;
    if (start >= spec.duration_s) break;
    const double burst_end = std::min(start + spec.burst_s, spec.duration_s);
    fill(start, burst_end, burst_rate);
    fill(burst_end, std::min(start + spec.period_s, spec.duration_s),
         rest_rate);
  }
}

}  // namespace perfbench
