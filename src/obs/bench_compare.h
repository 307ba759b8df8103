#ifndef EADRL_OBS_BENCH_COMPARE_H_
#define EADRL_OBS_BENCH_COMPARE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace eadrl::obs {

// Machine-readable perf snapshots (`BENCH_<n>.json` at the repo root) and
// their regression comparator — the perf-trajectory layer behind
// tools/eadrl_bench (see DESIGN.md, "Perf trajectory & resource
// observability"). A snapshot records every benchmark's timing, the host
// configuration that produced it, and process resource/span-profile stats;
// the comparator matches two snapshots by benchmark name under a noise
// threshold so "this PR made X faster/slower" is a checkable claim.

/// Bump when the JSON layout changes incompatibly. Parsers reject files with
/// a different major version rather than guessing.
inline constexpr int kBenchSchemaVersion = 1;

/// One benchmark's timing. Times are nanoseconds per iteration (the
/// google-benchmark convention, whatever time_unit the suite displays in).
struct BenchEntry {
  std::string name;  ///< "suite/BM_Name/args" — the comparator's match key.
  double real_time_ns = 0.0;
  double cpu_time_ns = 0.0;
  uint64_t iterations = 0;
};

/// The configuration that produced a snapshot. Comparisons across differing
/// hosts are flagged, not rejected — noise thresholds are the caller's job.
struct BenchHost {
  uint32_t hardware_threads = 0;
  uint32_t default_threads = 0;  ///< eadrl::par default at record time.
  std::string build_type;        ///< CMAKE_BUILD_TYPE.
  std::string sanitizer;         ///< EADRL_SANITIZE mode, "" for none.
  bool checks = false;           ///< eadrl::chk contracts compiled in.
  std::string compiler;          ///< __VERSION__.
  /// math::ForwardKernelName of the batched Dense-forward kernel; empty in
  /// snapshots recorded before the field existed.
  std::string forward_kernel;
};

/// A full perf snapshot: benchmark timings + the resource/span-profile view
/// of the macro workloads that ran in-process.
struct BenchSnapshot {
  int schema_version = kBenchSchemaVersion;
  std::string label;  ///< free-form, e.g. "PR6" or a git describe.
  BenchHost host;
  std::vector<BenchEntry> entries;
  ResourceSample resources;
  AllocStats allocs;
  std::vector<SpanProfileRow> spans;
};

/// Extracts the `benchmarks` array of a google-benchmark
/// `--benchmark_format=json` document. Entry names get `prefix` prepended
/// ("micro/" etc.) so suites cannot collide. Aggregate rows (mean/median/
/// stddev reported with repetitions) are skipped — the comparator wants raw
/// iterations. Errors carry the parse offset or the offending member.
StatusOr<std::vector<BenchEntry>> ParseGoogleBenchmarkJson(
    const std::string& text, const std::string& prefix);

std::string BenchSnapshotToJson(const BenchSnapshot& snapshot);
StatusOr<BenchSnapshot> ParseBenchSnapshot(const std::string& text);
StatusOr<BenchSnapshot> LoadBenchSnapshot(const std::string& path);
Status WriteBenchSnapshot(const BenchSnapshot& snapshot,
                          const std::string& path);

struct BenchCompareOptions {
  /// Relative real-time change treated as noise: a benchmark regresses when
  /// current > baseline * (1 + noise_threshold), improves when
  /// current < baseline * (1 - noise_threshold). Exactly at the boundary is
  /// unchanged. 10% default suits shared CI boxes; tighten locally.
  double noise_threshold = 0.10;
};

/// One matched benchmark's delta. `ratio` is current/baseline real time
/// (>1 = slower).
struct BenchDelta {
  std::string name;
  double baseline_ns = 0.0;
  double current_ns = 0.0;
  double ratio = 1.0;
};

struct BenchComparison {
  std::vector<BenchDelta> regressions;   ///< sorted worst-first.
  std::vector<BenchDelta> improvements;  ///< sorted best-first.
  std::vector<BenchDelta> unchanged;
  std::vector<std::string> only_in_baseline;
  std::vector<std::string> only_in_current;
  /// Matched on both sides but not comparable (zero iterations or zero
  /// time on either side).
  std::vector<std::string> skipped;
  bool host_differs = false;

  bool HasRegressions() const { return !regressions.empty(); }
};

/// Matches entries by name and classifies each pair under the threshold.
/// Contract (eadrl::chk): every matched entry's timings must be finite and
/// non-negative — a doctored or corrupt snapshot fails loudly instead of
/// producing a quiet verdict.
BenchComparison CompareBenchSnapshots(const BenchSnapshot& baseline,
                                      const BenchSnapshot& current,
                                      const BenchCompareOptions& options = {});

/// Human-readable comparison report (regressions first, then improvements,
/// then coverage notes).
std::string FormatComparisonHuman(const BenchComparison& comparison,
                                  const BenchCompareOptions& options = {});

/// Machine-readable comparison: the same classification as one JSON object.
std::string FormatComparisonJson(const BenchComparison& comparison,
                                 const BenchCompareOptions& options = {});

}  // namespace eadrl::obs

#endif  // EADRL_OBS_BENCH_COMPARE_H_
