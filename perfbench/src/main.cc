// perfbench: the repository benchmark's measuring program. run.py builds and
// runs it; see ../README.md for the workloads, metrics and how to read them.
//
// Usage:
//   perfbench --phase suite|serve --workload serve_steady|serve_burst
//             --seed N [--seconds S] [--trace-file PATH]
//
// A benchmark run is two processes, so each phase's peak memory is its own:
// the offline suite phase (the same for every workload) and the workload's
// serving phase. Human-readable lines go to stdout; the last line is one
// JSON object with the phase's metrics, counts, provenance and per-rung
// table. With --trace-file the phase also records per-layer spans and
// writes them there as Chrome trace-event JSON. Exit status: 0 when every
// output check passed, 1 on an output mismatch, 2 on a usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "bench.h"
#include "par/thread_pool.h"

namespace {

using perfbench::Metric;
using perfbench::RunContext;
using perfbench::RunResult;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ",";
    first = false;
    out += JsonString(name) + ":{\"value\":" + JsonNumber(m.value) +
           ",\"unit\":" + JsonString(m.unit) + "}";
  }
  return out + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --phase suite|serve --workload "
               "serve_steady|serve_burst --seed N [--seconds S] "
               "[--trace-file PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunContext ctx;
  std::string trace_file;
  std::string phase;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      ctx.workload = value;
    } else if (flag == "--seed") {
      ctx.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return Usage();
      have_seed = true;
    } else if (flag == "--seconds") {
      ctx.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(ctx.seconds > 0.0)) return Usage();
    } else if (flag == "--trace-file") {
      trace_file = value;
    } else if (flag == "--phase") {
      phase = value;
    } else {
      return Usage();
    }
  }
  if (!have_seed || (ctx.workload != "serve_steady" &&
                     ctx.workload != "serve_burst") ||
      (phase != "suite" && phase != "serve")) {
    return Usage();
  }
  ctx.nproc = std::max(1u, std::thread::hardware_concurrency());
  std::unique_ptr<perfbench::SpanRecorder> recorder;
  if (!trace_file.empty()) {
    recorder = std::make_unique<perfbench::SpanRecorder>(400000);
    ctx.recorder = recorder.get();
  }
  // Every parallel library path (pool fitting, DDPG updates, the suite's
  // dataset fan-out) shares one nproc-worker default pool.
  eadrl::par::SetDefaultThreads(ctx.nproc);

  RunResult result;
  if (phase == "suite") {
    perfbench::RunSuitePhase(ctx, &result);
  } else {
    perfbench::RunServePhase(ctx, &result);
  }

  result.E2E("setup_s", result.setup_s, "s");
  if (result.end_to_end.count("peak_rss_mb") == 0) {
    result.E2E("peak_rss_mb", perfbench::PeakRssMib(), "MiB");
  }
  result.failed += result.mismatches;

  bool trace_ok = true;
  if (recorder != nullptr) {
    trace_ok = recorder->WriteChromeTrace(trace_file);
    std::printf("trace: %zu spans (%llu dropped) -> %s%s\n", recorder->size(),
                static_cast<unsigned long long>(recorder->dropped()),
                trace_file.c_str(), trace_ok ? "" : " (WRITE FAILED)");
  }

  const bool correct = result.mismatches == 0;
  std::string out = "{\"workload\":" + JsonString(ctx.workload) +
                    ",\"phase\":" + JsonString(phase) +
                    ",\"seed\":" + std::to_string(ctx.seed) +
                    ",\"traced\":" + (recorder ? "true" : "false") +
                    ",\"correct\":" + (correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(result.attempted) +
                    ",\"failed\":" + std::to_string(result.failed) +
                    ",\"mismatches\":" + std::to_string(result.mismatches) +
                    ",\"end_to_end\":" + MetricsJson(result.end_to_end) +
                    ",\"per_layer\":" + MetricsJson(result.per_layer) +
                    ",\"reported\":" + MetricsJson(result.reported);
  out += ",\"provenance\":{\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
         ",\"compiler\":" + JsonString(PERFBENCH_COMPILER) +
         ",\"eadrl_checks\":" + std::to_string(EADRL_CHECKS) +
         ",\"nproc\":" + std::to_string(ctx.nproc);
  for (const auto& [k, v] : result.info) {
    out += "," + JsonString(k) + ":" + JsonString(v);
  }
  out += "}";
  for (const auto& [k, v] : result.raw_json) out += "," + JsonString(k) + ":" + v;
  out += "}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  if (!trace_ok) return 2;
  return correct ? 0 : 1;
}
