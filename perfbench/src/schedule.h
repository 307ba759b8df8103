#ifndef PERFBENCH_SCHEDULE_H_
#define PERFBENCH_SCHEDULE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// An open-loop arrival schedule: Poisson arrivals whose rate is piecewise
/// constant over a repeating period. Within the first `burst_s` of every
/// `period_s` the rate is `burst_factor * mean_rate`; the rest of the period
/// runs at whatever rate keeps the period's mean at `mean_rate` (zero when
/// the burst already carries the whole mean). burst_factor == 1 is a plain
/// Poisson process.
struct ScheduleSpec {
  double mean_rate = 0.0;    ///< arrivals per second, averaged per period.
  double duration_s = 0.0;   ///< schedule horizon.
  size_t tenants = 1;        ///< each arrival picks a uniform tenant.
  double burst_factor = 1.0;
  double burst_s = 0.0;
  double period_s = 0.0;
  uint64_t seed = 0;
};

struct Arrival {
  double t = 0.0;        ///< seconds since the schedule start.
  uint32_t tenant = 0;
};

/// Arrival rate in effect at time `t` (seconds since start).
double RateAt(const ScheduleSpec& spec, double t);

/// Replaces `out` with the arrivals of `spec`, in time order; its capacity
/// is kept, so a caller can reuse one buffer. The same spec (seed
/// included) always yields the same schedule.
void MakeSchedule(const ScheduleSpec& spec, std::vector<Arrival>* out);

}  // namespace perfbench

#endif  // PERFBENCH_SCHEDULE_H_
