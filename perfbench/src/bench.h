#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "recorder.h"

namespace perfbench {

/// What one benchmark run was asked to do.
struct RunContext {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;          ///< serving-traffic budget of the run.
  size_t nproc = 1;               ///< hardware threads.
  /// Non-null in a traced run: per-layer metrics come from its spans.
  SpanRecorder* recorder = nullptr;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything a run measured and checked.
struct RunResult {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Measured in untraced runs but not gated by BENCHMARK.json: their
  /// run-to-run spread on a shared host exceeds any usable bound (latency
  /// quantiles), or they are 0 when all is well (fail_ratio). Kept in the
  /// result file.
  std::map<std::string, Metric> reported;
  uint64_t attempted = 0;
  uint64_t failed = 0;      ///< includes every output mismatch.
  uint64_t mismatches = 0;  ///< served/suite outputs that disagreed.
  double setup_s = 0.0;     ///< sum of each phase's median set-up time.
  /// Extra provenance / diagnostics (string-valued, printed as-is).
  std::map<std::string, std::string> info;
  /// Free-form JSON fragments (already serialized) kept in the result file,
  /// e.g. the per-rung table.
  std::map<std::string, std::string> raw_json;

  void E2E(const std::string& name, double value, const char* unit) {
    end_to_end[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const char* unit) {
    per_layer[name] = {value, unit};
  }
  void Report(const std::string& name, double value, const char* unit) {
    reported[name] = {value, unit};
  }
};

/// Process CPU time (user + system, all threads), seconds.
double ProcessCpuSeconds();
/// CPU time of the calling thread, seconds.
double ThreadCpuSeconds();
/// Peak resident set size of the process so far, MiB.
double PeakRssMib();
/// The machine's cumulative CPU time from /proc/stat, summed over CPUs:
/// time busy (stolen time included) and time the hypervisor stole from
/// runnable virtual CPUs. Zeros where /proc/stat is unavailable.
struct HostCpu {
  double busy_s = 0.0;
  double steal_s = 0.0;
};
HostCpu ReadHostCpu();
/// Share of the busy CPU time between readings `a` and `b` that the
/// hypervisor stole: 0 on an unshared machine or when nothing ran. Timed
/// intervals are scaled by (1 - share), so a host that gives the machine
/// less CPU does not read as a slower program.
double StealShare(const HostCpu& a, const HostCpu& b);
/// Seconds between two NowNs() readings.
inline double SecondsBetween(int64_t a, int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

/// 64-bit FNV-1a, for output digests.
class Digest {
 public:
  void Add(const void* data, size_t n);
  void Add(const std::string& s) { Add(s.data(), s.size()); }
  void Add(double v) { Add(&v, sizeof(v)); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// Offline suite phase: exp::RunSuite over the synthetic Table-I datasets.
void RunSuitePhase(const RunContext& ctx, RunResult* result);

/// Serving phase: open-loop traffic against serve::ForecastService.
void RunServePhase(const RunContext& ctx, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
