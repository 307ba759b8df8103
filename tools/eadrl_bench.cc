// eadrl_bench: the perf-trajectory harness.
//
// Record mode runs every google-benchmark suite in a build's bench/
// directory (via --benchmark_format=json) plus three in-process macro
// workloads (an experiment-suite run, a predict/online-update loop, and a
// multi-tenant serving replay, all span-profiled), and writes a
// schema-versioned BENCH_<n>.json
// snapshot: per-benchmark wall/cpu time and iterations, process resource
// stats, per-span self-time/allocation rows, and the host configuration
// that produced it.
//
// Usage:
//   eadrl_bench --out BENCH_6.json [--label PR6] [--bench-dir build/bench]
//               [--min-time 0.05] [--skip-suites] [--skip-macro]
//               [--episodes N] [--threads N] [--trace F] [--profile-report]
//   eadrl_bench --compare BENCH_a.json BENCH_b.json
//               [--threshold 0.10] [--json]
//   eadrl_bench --inject-regression in.json out.json [--factor 2.0]
//
// --compare exits 0 when no matched benchmark regressed past the noise
// threshold, 1 otherwise (2 = usage / IO error) — so CI can gate on it.
// --inject-regression multiplies every timing in a snapshot by --factor;
// tools/check.sh uses it to prove the comparator actually detects a
// synthetic 2x regression (a self-test, not a perf claim).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/eadrl.h"
#include "exp/experiment.h"
#include "math/matrix.h"
#include "obs/bench_compare.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "par/parallel.h"
#include "serve/replay.h"
#include "serve/service.h"
#include "ts/datasets.h"

namespace {

using eadrl::Status;
using eadrl::StatusOr;
using eadrl::obs::BenchCompareOptions;
using eadrl::obs::BenchComparison;
using eadrl::obs::BenchEntry;
using eadrl::obs::BenchSnapshot;

// The google-benchmark suites a snapshot covers, in bench/ of the build dir.
constexpr const char* kGbmSuites[] = {"batched_kernels", "chk_bench",
                                      "micro_benchmarks", "parallel_bench",
                                      "serve_bench", "trace_bench",
                                      "window_bench"};

struct Args {
  std::string out;
  std::string label;
  std::string bench_dir = "build/bench";
  std::string min_time;  // empty = suite default.
  bool skip_suites = false;
  bool skip_macro = false;
  size_t episodes = 4;
  size_t threads = 0;
  std::string trace;
  bool profile_report = false;

  bool compare = false;
  std::string compare_baseline;
  std::string compare_current;
  double threshold = 0.10;
  bool json_output = false;

  bool inject = false;
  std::string inject_in;
  std::string inject_out;
  double inject_factor = 2.0;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: eadrl_bench --out FILE [--label L] [--bench-dir DIR]\n"
      "                   [--min-time SEC] [--skip-suites] [--skip-macro]\n"
      "                   [--episodes N] [--threads N] [--trace F]\n"
      "                   [--profile-report]\n"
      "       eadrl_bench --compare BASELINE CURRENT [--threshold T] "
      "[--json]\n"
      "       eadrl_bench --inject-regression IN OUT [--factor F]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    if (flag == "--out") {
      const char* v = next("--out");
      if (v == nullptr) return false;
      args->out = v;
    } else if (flag == "--label") {
      const char* v = next("--label");
      if (v == nullptr) return false;
      args->label = v;
    } else if (flag == "--bench-dir") {
      const char* v = next("--bench-dir");
      if (v == nullptr) return false;
      args->bench_dir = v;
    } else if (flag == "--min-time") {
      const char* v = next("--min-time");
      if (v == nullptr) return false;
      args->min_time = v;
    } else if (flag == "--skip-suites") {
      args->skip_suites = true;
    } else if (flag == "--skip-macro") {
      args->skip_macro = true;
    } else if (flag == "--episodes") {
      const char* v = next("--episodes");
      if (v == nullptr) return false;
      args->episodes = std::strtoul(v, nullptr, 10);
    } else if (flag == "--threads") {
      const char* v = next("--threads");
      if (v == nullptr) return false;
      args->threads = std::strtoul(v, nullptr, 10);
      if (args->threads == 0) {
        std::fprintf(stderr, "--threads must be >= 1\n");
        return false;
      }
    } else if (flag == "--trace") {
      const char* v = next("--trace");
      if (v == nullptr) return false;
      args->trace = v;
    } else if (flag == "--profile-report") {
      args->profile_report = true;
    } else if (flag == "--compare") {
      if (i + 2 >= argc) {
        std::fprintf(stderr, "--compare needs BASELINE and CURRENT\n");
        return false;
      }
      args->compare = true;
      args->compare_baseline = argv[++i];
      args->compare_current = argv[++i];
    } else if (flag == "--threshold") {
      const char* v = next("--threshold");
      if (v == nullptr) return false;
      args->threshold = std::atof(v);
      if (args->threshold < 0.0) {
        std::fprintf(stderr, "--threshold must be >= 0\n");
        return false;
      }
    } else if (flag == "--json") {
      args->json_output = true;
    } else if (flag == "--inject-regression") {
      if (i + 2 >= argc) {
        std::fprintf(stderr, "--inject-regression needs IN and OUT\n");
        return false;
      }
      args->inject = true;
      args->inject_in = argv[++i];
      args->inject_out = argv[++i];
    } else if (flag == "--factor") {
      const char* v = next("--factor");
      if (v == nullptr) return false;
      args->inject_factor = std::atof(v);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  if (!args->compare && !args->inject && args->out.empty()) {
    Usage();
    return false;
  }
  return true;
}

/// Runs one google-benchmark binary with JSON output and returns its parsed
/// entries, names prefixed "<suite>/".
StatusOr<std::vector<BenchEntry>> RunGbmSuite(const std::string& bench_dir,
                                              const std::string& suite,
                                              const std::string& min_time) {
  std::string cmd = bench_dir + "/" + suite + " --benchmark_format=json";
  if (!min_time.empty()) cmd += " --benchmark_min_time=" + min_time;
  cmd += " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    return Status::Internal("popen failed for " + cmd);
  }
  std::string output;
  char buf[4096];
  size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) output.append(buf, n);
  const int rc = pclose(pipe);
  if (rc != 0) {
    return Status::Internal(suite + " exited with status " +
                            std::to_string(rc));
  }
  return eadrl::obs::ParseGoogleBenchmarkJson(output, suite + "/");
}

double ElapsedNs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Macro workload 1: the experiment grid on two small synthetic datasets —
/// pool fitting, every combiner, online evaluation, all under the
/// work-stealing pool. Exercises the same spans a real suite run emits.
Status RunSuiteWorkload(size_t episodes, std::vector<BenchEntry>* entries) {
  std::vector<eadrl::ts::Series> datasets;
  for (int id : {2, 3}) {
    auto series = eadrl::ts::MakeDataset(id, 42, 160);
    if (!series.ok()) return series.status();
    datasets.push_back(std::move(series).value());
  }
  eadrl::exp::ExperimentOptions opt;
  opt.seed = 42;
  opt.pool.fast_mode = true;
  opt.pool.nn_epochs = 2;
  opt.eadrl.max_episodes = episodes;
  opt.include_standalone = false;

  const auto start = std::chrono::steady_clock::now();
  size_t method_runs = 0;
  {
    eadrl::obs::Span span("bench_suite_workload");
    std::vector<eadrl::exp::DatasetResult> results =
        eadrl::exp::RunSuite(datasets, opt);
    for (const auto& r : results) method_runs += r.methods.size();
    span.SetAttr("method_runs", static_cast<int64_t>(method_runs));
  }
  BenchEntry entry;
  entry.name = "macro/suite_workload";
  entry.real_time_ns = ElapsedNs(start);
  entry.cpu_time_ns = entry.real_time_ns;  // single in-process run.
  entry.iterations = 1;
  entries->push_back(std::move(entry));
  std::printf("macro/suite_workload: %zu method runs, %.1f ms\n", method_runs,
              entries->back().real_time_ns / 1e6);
  return Status::Ok();
}

/// Macro workload 2: the online serving path — a trained combiner predicting
/// and fine-tuning step by step over a held-out segment, repeated to get a
/// per-step figure.
Status RunPredictLoopWorkload(size_t episodes,
                              std::vector<BenchEntry>* entries) {
  auto series = eadrl::ts::MakeDataset(2, 42, 240);
  if (!series.ok()) return series.status();
  eadrl::exp::ExperimentOptions opt;
  opt.seed = 42;
  opt.pool.fast_mode = true;
  opt.pool.nn_epochs = 2;
  opt.eadrl.max_episodes = episodes;
  eadrl::exp::PoolRun pool = eadrl::exp::PreparePool(*series, opt);
  eadrl::core::EadrlCombiner combiner(opt.eadrl);
  Status st = combiner.Initialize(pool.val_preds, pool.val_actuals);
  if (!st.ok()) return st;

  constexpr size_t kReps = 5;
  const size_t steps = pool.test_actuals.size();
  const auto start = std::chrono::steady_clock::now();
  double checksum = 0.0;
  {
    eadrl::obs::Span span("bench_predict_loop");
    for (size_t rep = 0; rep < kReps; ++rep) {
      for (size_t t = 0; t < steps; ++t) {
        eadrl::math::Vec preds = pool.test_preds.Row(t);
        checksum += combiner.Predict(preds);
        combiner.Update(preds, pool.test_actuals[t]);
      }
    }
    span.SetAttr("steps", static_cast<int64_t>(kReps * steps));
  }
  const double total_ns = ElapsedNs(start);
  BenchEntry entry;
  entry.name = "macro/predict_loop";
  entry.iterations = kReps * steps;
  entry.real_time_ns =
      total_ns / static_cast<double>(entry.iterations == 0 ? 1
                                                           : entry.iterations);
  entry.cpu_time_ns = entry.real_time_ns;
  entries->push_back(std::move(entry));
  std::printf("macro/predict_loop: %zu steps, %.1f us/step (checksum %.3f)\n",
              kReps * steps, entries->back().real_time_ns / 1e3, checksum);
  return Status::Ok();
}

/// Macro workload 3: the multi-tenant serving path — a trained policy behind
/// a ForecastService taking an open-loop Poisson replay across 200 tenants
/// through the cross-tenant batching queue. Records the end-to-end predict
/// p50/p99 and the per-accepted-request wall cost.
Status RunServeWorkload(size_t episodes, std::vector<BenchEntry>* entries) {
  auto series = eadrl::ts::MakeDataset(2, 42, 240);
  if (!series.ok()) return series.status();
  eadrl::exp::ExperimentOptions opt;
  opt.seed = 42;
  opt.pool.fast_mode = true;
  opt.pool.nn_epochs = 2;
  opt.eadrl.max_episodes = episodes;
  eadrl::exp::PoolRun pool = eadrl::exp::PreparePool(*series, opt);
  auto combiner = std::make_unique<eadrl::core::EadrlCombiner>(opt.eadrl);
  Status st = combiner->Initialize(pool.val_preds, pool.val_actuals);
  if (!st.ok()) return st;

  eadrl::serve::ServeConfig config;
  config.max_batch = 32;
  config.max_queue = 8192;
  eadrl::serve::ForecastService service(config);
  const size_t policy_id = service.RegisterPolicy(std::move(combiner));

  eadrl::serve::ReplayOptions replay;
  replay.tenants = 200;
  replay.requests = 4000;
  replay.target_qps = 20000.0;
  replay.seed = 42;
  replay.policy_id = policy_id;
  StatusOr<eadrl::serve::ReplayReport> report =
      eadrl::serve::RunOpenLoopReplay(&service, pool.test_preds,
                                      pool.test_actuals, replay);
  if (!report.ok()) return report.status();

  auto add = [entries](const char* name, double ns, size_t iterations) {
    BenchEntry entry;
    entry.name = name;
    entry.real_time_ns = ns;
    entry.cpu_time_ns = ns;
    entry.iterations = iterations;
    entries->push_back(std::move(entry));
  };
  const size_t accepted =
      report->accepted == 0 ? 1 : static_cast<size_t>(report->accepted);
  add("macro/serve_replay_per_request",
      report->wall_seconds * 1e9 / static_cast<double>(accepted), accepted);
  add("macro/serve_predict_p50", report->predict_p50_ms * 1e6, accepted);
  add("macro/serve_predict_p99", report->predict_p99_ms * 1e6, accepted);
  std::printf(
      "macro/serve_replay: %llu accepted, %llu shed, p50 %.3f ms, p99 %.3f "
      "ms, occupancy %.2f\n",
      static_cast<unsigned long long>(report->accepted),
      static_cast<unsigned long long>(report->predict_shed +
                                      report->observe_shed),
      report->predict_p50_ms, report->predict_p99_ms,
      report->MeanBatchOccupancy());
  return Status::Ok();
}

int RunRecord(const Args& args) {
  BenchSnapshot snapshot;
  snapshot.label = args.label;
  snapshot.host.hardware_threads = std::thread::hardware_concurrency();
  snapshot.host.default_threads =
      static_cast<uint32_t>(eadrl::par::DefaultThreads());
#ifdef EADRL_BUILD_TYPE
  snapshot.host.build_type = EADRL_BUILD_TYPE;
#endif
#ifdef EADRL_SANITIZE_MODE
  snapshot.host.sanitizer = EADRL_SANITIZE_MODE;
#endif
#if EADRL_CHECKS
  snapshot.host.checks = true;
#endif
  snapshot.host.compiler = __VERSION__;
  snapshot.host.forward_kernel = eadrl::math::ForwardKernelName(
      eadrl::math::ForwardKernelFor(eadrl::math::kForwardPackMinRows));

  if (!args.skip_suites) {
    for (const char* suite : kGbmSuites) {
      std::printf("running %s ...\n", suite);
      StatusOr<std::vector<BenchEntry>> entries =
          RunGbmSuite(args.bench_dir, suite, args.min_time);
      if (!entries.ok()) {
        std::fprintf(stderr, "%s\n", entries.status().ToString().c_str());
        return 2;
      }
      std::printf("  %zu benchmarks\n", entries->size());
      for (BenchEntry& entry : *entries) {
        snapshot.entries.push_back(std::move(entry));
      }
    }
  }

  if (!args.skip_macro) {
    // The span profiler only feeds on armed spans, so install a trace buffer
    // even when no --trace path was asked for; profiling rides on tracing.
    eadrl::obs::SetCurrentThreadTraceName("main");
    auto trace_buffer = std::make_unique<eadrl::obs::TraceBuffer>();
    eadrl::obs::SetTraceBuffer(trace_buffer.get());
    eadrl::obs::ResetSpanProfileForTest();

    Status st = RunSuiteWorkload(args.episodes, &snapshot.entries);
    if (st.ok()) st = RunPredictLoopWorkload(args.episodes, &snapshot.entries);
    if (st.ok()) st = RunServeWorkload(args.episodes, &snapshot.entries);
    eadrl::obs::SetTraceBuffer(nullptr);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 2;
    }
    snapshot.spans = eadrl::obs::SpanProfileSnapshot();
    if (!args.trace.empty()) {
      st = trace_buffer->WriteChromeTrace(args.trace);
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 2;
      }
      std::printf("trace written to %s (%zu spans)\n", args.trace.c_str(),
                  trace_buffer->size());
    }
    if (args.profile_report) {
      std::printf("\n%s\n", eadrl::obs::FormatSpanProfileReport().c_str());
    }
  }

  snapshot.resources = eadrl::obs::SampleResources();
  snapshot.allocs = eadrl::obs::TotalAllocStats();
  eadrl::obs::UpdateResourceMetrics();

  Status st = eadrl::obs::WriteBenchSnapshot(snapshot, args.out);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  std::printf("wrote %s: %zu benchmarks, %zu span rows, peak RSS %.1f MB\n",
              args.out.c_str(), snapshot.entries.size(),
              snapshot.spans.size(),
              static_cast<double>(snapshot.resources.peak_rss_bytes) / 1e6);
  return 0;
}

int RunCompare(const Args& args) {
  StatusOr<BenchSnapshot> baseline =
      eadrl::obs::LoadBenchSnapshot(args.compare_baseline);
  if (!baseline.ok()) {
    std::fprintf(stderr, "%s\n", baseline.status().ToString().c_str());
    return 2;
  }
  StatusOr<BenchSnapshot> current =
      eadrl::obs::LoadBenchSnapshot(args.compare_current);
  if (!current.ok()) {
    std::fprintf(stderr, "%s\n", current.status().ToString().c_str());
    return 2;
  }
  BenchCompareOptions options;
  options.noise_threshold = args.threshold;
  BenchComparison comparison =
      eadrl::obs::CompareBenchSnapshots(*baseline, *current, options);
  const std::string report =
      args.json_output ? eadrl::obs::FormatComparisonJson(comparison, options)
                       : eadrl::obs::FormatComparisonHuman(comparison, options);
  std::printf("%s\n", report.c_str());
  return comparison.HasRegressions() ? 1 : 0;
}

int RunInject(const Args& args) {
  StatusOr<BenchSnapshot> snapshot =
      eadrl::obs::LoadBenchSnapshot(args.inject_in);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "%s\n", snapshot.status().ToString().c_str());
    return 2;
  }
  for (BenchEntry& entry : snapshot->entries) {
    entry.real_time_ns *= args.inject_factor;
    entry.cpu_time_ns *= args.inject_factor;
  }
  Status st = eadrl::obs::WriteBenchSnapshot(*snapshot, args.inject_out);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  std::printf("wrote %s with all timings scaled by %g\n",
              args.inject_out.c_str(), args.inject_factor);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  if (args.compare) return RunCompare(args);
  if (args.inject) return RunInject(args);
  if (args.threads > 0) eadrl::par::SetDefaultThreads(args.threads);
  return RunRecord(args);
}
