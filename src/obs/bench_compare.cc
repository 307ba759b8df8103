#include "obs/bench_compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "chk/chk.h"
#include "common/json.h"
#include "common/string_util.h"

namespace eadrl::obs {
namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendKey(std::string* out, const char* key) {
  *out += '"';
  *out += key;
  *out += "\":";
}

// Typed member lookups; every miss is a Status so a truncated or hand-edited
// snapshot reports *which* member is wrong instead of aborting.
Status GetNumber(const json::Value& obj, const char* key, double* out) {
  const json::Value* v = obj.Find(key);
  if (v == nullptr || !v->is_number()) {
    return Status::InvalidArgument(
        StrCat("bench snapshot: missing or non-numeric member '", key, "'"));
  }
  *out = v->AsNumber();
  return Status::Ok();
}

double NumberOr(const json::Value& obj, const char* key, double fallback) {
  const json::Value* v = obj.Find(key);
  return v != nullptr && v->is_number() ? v->AsNumber() : fallback;
}

std::string StringOr(const json::Value& obj, const char* key,
                     const std::string& fallback) {
  const json::Value* v = obj.Find(key);
  return v != nullptr && v->is_string() ? v->AsString() : fallback;
}

uint64_t U64Or(const json::Value& obj, const char* key, uint64_t fallback) {
  const json::Value* v = obj.Find(key);
  if (v == nullptr || !v->is_number()) return fallback;
  const double n = v->AsNumber();
  return n > 0 ? static_cast<uint64_t>(n) : fallback;
}

// google-benchmark time_unit -> nanoseconds multiplier.
double TimeUnitToNs(const std::string& unit) {
  if (unit == "ns") return 1.0;
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  return 1.0;  // google-benchmark defaults to ns.
}

}  // namespace

StatusOr<std::vector<BenchEntry>> ParseGoogleBenchmarkJson(
    const std::string& text, const std::string& prefix) {
  StatusOr<json::Value> doc = json::Parse(text);
  if (!doc.ok()) return doc.status();
  const json::Value* benchmarks = doc->Find("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) {
    return Status::InvalidArgument(
        "google-benchmark output: no 'benchmarks' array");
  }
  std::vector<BenchEntry> entries;
  for (const json::Value& row : benchmarks->AsArray()) {
    if (!row.is_object()) {
      return Status::InvalidArgument(
          "google-benchmark output: non-object benchmark row");
    }
    // With --benchmark_repetitions google-benchmark appends aggregate rows
    // (mean/median/stddev/cv); only raw iteration rows carry a trajectory.
    if (row.Find("aggregate_name") != nullptr) continue;
    const json::Value* name = row.Find("name");
    if (name == nullptr || !name->is_string()) {
      return Status::InvalidArgument(
          "google-benchmark output: benchmark row without a name");
    }
    BenchEntry entry;
    entry.name = prefix + name->AsString();
    double real_time = 0.0;
    double cpu_time = 0.0;
    Status st = GetNumber(row, "real_time", &real_time);
    if (!st.ok()) return st;
    st = GetNumber(row, "cpu_time", &cpu_time);
    if (!st.ok()) return st;
    const double to_ns = TimeUnitToNs(StringOr(row, "time_unit", "ns"));
    entry.real_time_ns = real_time * to_ns;
    entry.cpu_time_ns = cpu_time * to_ns;
    entry.iterations = U64Or(row, "iterations", 0);
    entries.push_back(std::move(entry));
  }
  return entries;
}

std::string BenchSnapshotToJson(const BenchSnapshot& snapshot) {
  std::string out;
  out.reserve(1024 + snapshot.entries.size() * 160);
  out += "{";
  AppendKey(&out, "schema_version");
  out += std::to_string(snapshot.schema_version);
  out += ',';
  AppendKey(&out, "label");
  out += '"';
  AppendJsonEscaped(&out, snapshot.label);
  out += "\",";
  AppendKey(&out, "host");
  out += "{";
  AppendKey(&out, "hardware_threads");
  out += std::to_string(snapshot.host.hardware_threads);
  out += ',';
  AppendKey(&out, "default_threads");
  out += std::to_string(snapshot.host.default_threads);
  out += ',';
  AppendKey(&out, "build_type");
  out += '"';
  AppendJsonEscaped(&out, snapshot.host.build_type);
  out += "\",";
  AppendKey(&out, "sanitizer");
  out += '"';
  AppendJsonEscaped(&out, snapshot.host.sanitizer);
  out += "\",";
  AppendKey(&out, "checks");
  out += snapshot.host.checks ? "true" : "false";
  out += ',';
  AppendKey(&out, "compiler");
  out += '"';
  AppendJsonEscaped(&out, snapshot.host.compiler);
  out += "\",";
  AppendKey(&out, "forward_kernel");
  out += '"';
  AppendJsonEscaped(&out, snapshot.host.forward_kernel);
  out += "\"},";
  AppendKey(&out, "benchmarks");
  out += "[";
  for (size_t i = 0; i < snapshot.entries.size(); ++i) {
    const BenchEntry& entry = snapshot.entries[i];
    if (i > 0) out += ',';
    out += "{";
    AppendKey(&out, "name");
    out += '"';
    AppendJsonEscaped(&out, entry.name);
    out += "\",";
    AppendKey(&out, "real_time_ns");
    out += JsonNumber(entry.real_time_ns);
    out += ',';
    AppendKey(&out, "cpu_time_ns");
    out += JsonNumber(entry.cpu_time_ns);
    out += ',';
    AppendKey(&out, "iterations");
    out += std::to_string(entry.iterations);
    out += "}";
  }
  out += "],";
  AppendKey(&out, "resources");
  out += "{";
  AppendKey(&out, "peak_rss_bytes");
  out += std::to_string(snapshot.resources.peak_rss_bytes);
  out += ',';
  AppendKey(&out, "current_rss_bytes");
  out += std::to_string(snapshot.resources.current_rss_bytes);
  out += ',';
  AppendKey(&out, "minor_faults");
  out += std::to_string(snapshot.resources.minor_faults);
  out += ',';
  AppendKey(&out, "major_faults");
  out += std::to_string(snapshot.resources.major_faults);
  out += ',';
  AppendKey(&out, "voluntary_ctx_switches");
  out += std::to_string(snapshot.resources.voluntary_ctx_switches);
  out += ',';
  AppendKey(&out, "involuntary_ctx_switches");
  out += std::to_string(snapshot.resources.involuntary_ctx_switches);
  out += ',';
  AppendKey(&out, "user_cpu_seconds");
  out += JsonNumber(snapshot.resources.user_cpu_seconds);
  out += ',';
  AppendKey(&out, "system_cpu_seconds");
  out += JsonNumber(snapshot.resources.system_cpu_seconds);
  out += ',';
  AppendKey(&out, "alloc_count");
  out += std::to_string(snapshot.allocs.count);
  out += ',';
  AppendKey(&out, "alloc_bytes");
  out += std::to_string(snapshot.allocs.bytes);
  out += "},";
  AppendKey(&out, "spans");
  out += "[";
  for (size_t i = 0; i < snapshot.spans.size(); ++i) {
    const SpanProfileRow& row = snapshot.spans[i];
    if (i > 0) out += ',';
    out += "{";
    AppendKey(&out, "name");
    out += '"';
    AppendJsonEscaped(&out, row.name);
    out += "\",";
    AppendKey(&out, "count");
    out += std::to_string(row.count);
    out += ',';
    AppendKey(&out, "total_seconds");
    out += JsonNumber(row.total_seconds);
    out += ',';
    AppendKey(&out, "self_seconds");
    out += JsonNumber(row.self_seconds);
    out += ',';
    AppendKey(&out, "alloc_count");
    out += std::to_string(row.alloc_count);
    out += ',';
    AppendKey(&out, "alloc_bytes");
    out += std::to_string(row.alloc_bytes);
    out += "}";
  }
  out += "]}";
  return out;
}

StatusOr<BenchSnapshot> ParseBenchSnapshot(const std::string& text) {
  StatusOr<json::Value> doc = json::Parse(text);
  if (!doc.ok()) return doc.status();
  if (!doc->is_object()) {
    return Status::InvalidArgument("bench snapshot: document is not an object");
  }
  BenchSnapshot snapshot;
  double version = 0.0;
  Status st = GetNumber(*doc, "schema_version", &version);
  if (!st.ok()) return st;
  snapshot.schema_version = static_cast<int>(version);
  if (snapshot.schema_version != kBenchSchemaVersion) {
    return Status::InvalidArgument(
        StrCat("bench snapshot: schema_version ", snapshot.schema_version,
               " unsupported (want ", kBenchSchemaVersion, ")"));
  }
  snapshot.label = StringOr(*doc, "label", "");
  if (const json::Value* host = doc->Find("host");
      host != nullptr && host->is_object()) {
    snapshot.host.hardware_threads =
        static_cast<uint32_t>(U64Or(*host, "hardware_threads", 0));
    snapshot.host.default_threads =
        static_cast<uint32_t>(U64Or(*host, "default_threads", 0));
    snapshot.host.build_type = StringOr(*host, "build_type", "");
    snapshot.host.sanitizer = StringOr(*host, "sanitizer", "");
    const json::Value* checks = host->Find("checks");
    snapshot.host.checks =
        checks != nullptr && checks->is_bool() && checks->AsBool();
    snapshot.host.compiler = StringOr(*host, "compiler", "");
    snapshot.host.forward_kernel = StringOr(*host, "forward_kernel", "");
  }
  const json::Value* benchmarks = doc->Find("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) {
    return Status::InvalidArgument("bench snapshot: no 'benchmarks' array");
  }
  for (const json::Value& row : benchmarks->AsArray()) {
    if (!row.is_object()) {
      return Status::InvalidArgument("bench snapshot: non-object benchmark");
    }
    BenchEntry entry;
    entry.name = StringOr(row, "name", "");
    if (entry.name.empty()) {
      return Status::InvalidArgument("bench snapshot: benchmark without name");
    }
    st = GetNumber(row, "real_time_ns", &entry.real_time_ns);
    if (!st.ok()) return st;
    st = GetNumber(row, "cpu_time_ns", &entry.cpu_time_ns);
    if (!st.ok()) return st;
    entry.iterations = U64Or(row, "iterations", 0);
    snapshot.entries.push_back(std::move(entry));
  }
  if (const json::Value* res = doc->Find("resources");
      res != nullptr && res->is_object()) {
    snapshot.resources.peak_rss_bytes = U64Or(*res, "peak_rss_bytes", 0);
    snapshot.resources.current_rss_bytes = U64Or(*res, "current_rss_bytes", 0);
    snapshot.resources.minor_faults = U64Or(*res, "minor_faults", 0);
    snapshot.resources.major_faults = U64Or(*res, "major_faults", 0);
    snapshot.resources.voluntary_ctx_switches =
        U64Or(*res, "voluntary_ctx_switches", 0);
    snapshot.resources.involuntary_ctx_switches =
        U64Or(*res, "involuntary_ctx_switches", 0);
    snapshot.resources.user_cpu_seconds =
        NumberOr(*res, "user_cpu_seconds", 0.0);
    snapshot.resources.system_cpu_seconds =
        NumberOr(*res, "system_cpu_seconds", 0.0);
    snapshot.allocs.count = U64Or(*res, "alloc_count", 0);
    snapshot.allocs.bytes = U64Or(*res, "alloc_bytes", 0);
  }
  if (const json::Value* spans = doc->Find("spans");
      spans != nullptr && spans->is_array()) {
    for (const json::Value& row : spans->AsArray()) {
      if (!row.is_object()) continue;
      SpanProfileRow span;
      span.name = StringOr(row, "name", "");
      span.count = U64Or(row, "count", 0);
      span.total_seconds = NumberOr(row, "total_seconds", 0.0);
      span.self_seconds = NumberOr(row, "self_seconds", 0.0);
      span.alloc_count = U64Or(row, "alloc_count", 0);
      span.alloc_bytes = U64Or(row, "alloc_bytes", 0);
      snapshot.spans.push_back(std::move(span));
    }
  }
  return snapshot;
}

StatusOr<BenchSnapshot> LoadBenchSnapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound(StrCat("bench snapshot: cannot open ", path));
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  StatusOr<BenchSnapshot> snapshot = ParseBenchSnapshot(contents.str());
  if (!snapshot.ok()) {
    return Status::InvalidArgument(
        StrCat(path, ": ", snapshot.status().ToString()));
  }
  return snapshot;
}

Status WriteBenchSnapshot(const BenchSnapshot& snapshot,
                          const std::string& path) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) {
    return Status::InvalidArgument(
        StrCat("bench snapshot: cannot open ", path));
  }
  out << BenchSnapshotToJson(snapshot) << "\n";
  out.flush();
  if (!out) {
    return Status::Internal(StrCat("bench snapshot: write to ", path,
                                   " failed"));
  }
  return Status::Ok();
}

BenchComparison CompareBenchSnapshots(const BenchSnapshot& baseline,
                                      const BenchSnapshot& current,
                                      const BenchCompareOptions& options) {
  EADRL_CHK(options.noise_threshold >= 0.0,
            "CompareBenchSnapshots noise_threshold");
  BenchComparison comparison;
  comparison.host_differs =
      baseline.host.hardware_threads != current.host.hardware_threads ||
      baseline.host.build_type != current.host.build_type ||
      baseline.host.sanitizer != current.host.sanitizer ||
      baseline.host.checks != current.host.checks ||
      (!baseline.host.forward_kernel.empty() &&
       !current.host.forward_kernel.empty() &&
       baseline.host.forward_kernel != current.host.forward_kernel);

  std::map<std::string, const BenchEntry*> base_by_name;
  for (const BenchEntry& entry : baseline.entries) {
    base_by_name.emplace(entry.name, &entry);
  }
  std::map<std::string, bool> base_matched;
  for (const BenchEntry& entry : current.entries) {
    auto it = base_by_name.find(entry.name);
    if (it == base_by_name.end()) {
      comparison.only_in_current.push_back(entry.name);
      continue;
    }
    base_matched[entry.name] = true;
    const BenchEntry& base = *it->second;
    // Contract: timings in a snapshot are measurements — finite and
    // non-negative. A NaN or negative time means the file was corrupted or
    // doctored; fail loudly rather than classifying garbage.
    EADRL_CHK_FINITE_VALUE(base.real_time_ns, "baseline real_time_ns");
    EADRL_CHK_FINITE_VALUE(entry.real_time_ns, "current real_time_ns");
    EADRL_CHK(base.real_time_ns >= 0.0 && entry.real_time_ns >= 0.0,
              "bench snapshot real_time_ns must be non-negative");
    if (base.iterations == 0 || entry.iterations == 0 ||
        base.real_time_ns <= 0.0 || entry.real_time_ns <= 0.0) {
      comparison.skipped.push_back(entry.name);
      continue;
    }
    BenchDelta delta;
    delta.name = entry.name;
    delta.baseline_ns = base.real_time_ns;
    delta.current_ns = entry.real_time_ns;
    delta.ratio = entry.real_time_ns / base.real_time_ns;
    if (delta.ratio > 1.0 + options.noise_threshold) {
      comparison.regressions.push_back(std::move(delta));
    } else if (delta.ratio < 1.0 - options.noise_threshold) {
      comparison.improvements.push_back(std::move(delta));
    } else {
      comparison.unchanged.push_back(std::move(delta));
    }
  }
  for (const BenchEntry& entry : baseline.entries) {
    if (base_matched.find(entry.name) == base_matched.end()) {
      comparison.only_in_baseline.push_back(entry.name);
    }
  }
  std::sort(comparison.regressions.begin(), comparison.regressions.end(),
            [](const BenchDelta& a, const BenchDelta& b) {
              return a.ratio > b.ratio;
            });
  std::sort(comparison.improvements.begin(), comparison.improvements.end(),
            [](const BenchDelta& a, const BenchDelta& b) {
              return a.ratio < b.ratio;
            });
  return comparison;
}

namespace {

void AppendDeltaLine(std::string* out, const BenchDelta& delta) {
  *out += "  ";
  *out += PadRight(delta.name, 48);
  *out += PadLeft(FormatDouble(delta.baseline_ns, 1), 14);
  *out += " ->";
  *out += PadLeft(FormatDouble(delta.current_ns, 1), 14);
  *out += " ns  (";
  *out += FormatDouble((delta.ratio - 1.0) * 100.0, 1);
  *out += "%)\n";
}

void AppendDeltaJson(std::string* out, const BenchDelta& delta) {
  *out += "{\"name\":\"";
  AppendJsonEscaped(out, delta.name);
  *out += "\",\"baseline_ns\":";
  *out += JsonNumber(delta.baseline_ns);
  *out += ",\"current_ns\":";
  *out += JsonNumber(delta.current_ns);
  *out += ",\"ratio\":";
  *out += JsonNumber(delta.ratio);
  *out += "}";
}

void AppendNameListJson(std::string* out, const char* key,
                        const std::vector<std::string>& names) {
  AppendKey(out, key);
  *out += "[";
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) *out += ',';
    *out += '"';
    AppendJsonEscaped(out, names[i]);
    *out += '"';
  }
  *out += "]";
}

}  // namespace

std::string FormatComparisonHuman(const BenchComparison& comparison,
                                  const BenchCompareOptions& options) {
  std::string out;
  out += "bench comparison (noise threshold ";
  out += FormatDouble(options.noise_threshold * 100.0, 1);
  out += "%)\n";
  if (comparison.host_differs) {
    out += "warning: host/build configuration differs between snapshots\n";
  }
  if (!comparison.regressions.empty()) {
    out += "regressions:\n";
    for (const BenchDelta& d : comparison.regressions) {
      AppendDeltaLine(&out, d);
    }
  }
  if (!comparison.improvements.empty()) {
    out += "improvements:\n";
    for (const BenchDelta& d : comparison.improvements) {
      AppendDeltaLine(&out, d);
    }
  }
  out += "unchanged: ";
  out += std::to_string(comparison.unchanged.size());
  out += " benchmark(s) within threshold\n";
  for (const std::string& name : comparison.only_in_baseline) {
    out += "only in baseline: " + name + "\n";
  }
  for (const std::string& name : comparison.only_in_current) {
    out += "only in current: " + name + "\n";
  }
  for (const std::string& name : comparison.skipped) {
    out += "skipped (zero iterations/time): " + name + "\n";
  }
  out += comparison.HasRegressions() ? "verdict: REGRESSED\n" : "verdict: OK\n";
  return out;
}

std::string FormatComparisonJson(const BenchComparison& comparison,
                                 const BenchCompareOptions& options) {
  std::string out = "{";
  AppendKey(&out, "noise_threshold");
  out += JsonNumber(options.noise_threshold);
  out += ',';
  AppendKey(&out, "host_differs");
  out += comparison.host_differs ? "true" : "false";
  out += ',';
  AppendKey(&out, "regressed");
  out += comparison.HasRegressions() ? "true" : "false";
  out += ',';
  AppendKey(&out, "regressions");
  out += "[";
  for (size_t i = 0; i < comparison.regressions.size(); ++i) {
    if (i > 0) out += ',';
    AppendDeltaJson(&out, comparison.regressions[i]);
  }
  out += "],";
  AppendKey(&out, "improvements");
  out += "[";
  for (size_t i = 0; i < comparison.improvements.size(); ++i) {
    if (i > 0) out += ',';
    AppendDeltaJson(&out, comparison.improvements[i]);
  }
  out += "],";
  AppendKey(&out, "unchanged_count");
  out += std::to_string(comparison.unchanged.size());
  out += ',';
  AppendNameListJson(&out, "only_in_baseline", comparison.only_in_baseline);
  out += ',';
  AppendNameListJson(&out, "only_in_current", comparison.only_in_current);
  out += ',';
  AppendNameListJson(&out, "skipped", comparison.skipped);
  out += "}";
  return out;
}

}  // namespace eadrl::obs
