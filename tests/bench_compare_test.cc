#include "obs/bench_compare.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "chk/chk.h"
#include "common/json.h"

namespace eadrl::obs {
namespace {

BenchEntry MakeEntry(const std::string& name, double real_ns,
                     uint64_t iterations = 100) {
  BenchEntry entry;
  entry.name = name;
  entry.real_time_ns = real_ns;
  entry.cpu_time_ns = real_ns;
  entry.iterations = iterations;
  return entry;
}

BenchSnapshot MakeSnapshot(std::vector<BenchEntry> entries) {
  BenchSnapshot snapshot;
  snapshot.label = "test";
  snapshot.host.hardware_threads = 4;
  snapshot.host.build_type = "Release";
  snapshot.entries = std::move(entries);
  return snapshot;
}

TEST(ParseGoogleBenchmarkJson, ExtractsRowsAndSkipsAggregates) {
  const std::string text = R"({
    "context": {"num_cpus": 1},
    "benchmarks": [
      {"name": "BM_A/16", "real_time": 120.5, "cpu_time": 119.0,
       "iterations": 1000, "time_unit": "ns"},
      {"name": "BM_A/16_mean", "aggregate_name": "mean", "real_time": 121.0,
       "cpu_time": 119.5, "iterations": 3, "time_unit": "ns"},
      {"name": "BM_B", "real_time": 2.5, "cpu_time": 2.0,
       "iterations": 50, "time_unit": "ms"}
    ]})";
  auto entries = ParseGoogleBenchmarkJson(text, "micro/");
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[0].name, "micro/BM_A/16");
  EXPECT_DOUBLE_EQ((*entries)[0].real_time_ns, 120.5);
  EXPECT_EQ((*entries)[0].iterations, 1000u);
  // ms rows are normalized to ns.
  EXPECT_EQ((*entries)[1].name, "micro/BM_B");
  EXPECT_DOUBLE_EQ((*entries)[1].real_time_ns, 2.5e6);
  EXPECT_DOUBLE_EQ((*entries)[1].cpu_time_ns, 2.0e6);
}

TEST(ParseGoogleBenchmarkJson, RejectsDocumentsWithoutBenchmarks) {
  EXPECT_EQ(ParseGoogleBenchmarkJson(R"({"context": {}})", "").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(ParseGoogleBenchmarkJson("not json", "").ok());
  EXPECT_EQ(ParseGoogleBenchmarkJson(
                R"({"benchmarks": [{"real_time": 1.0, "cpu_time": 1.0}]})", "")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(BenchSnapshotJson, RoundTripsEveryField) {
  BenchSnapshot snapshot = MakeSnapshot(
      {MakeEntry("micro/BM_A", 100.0), MakeEntry("macro/suite", 5e9, 1)});
  snapshot.host.default_threads = 2;
  snapshot.host.sanitizer = "thread";
  snapshot.host.checks = true;
  snapshot.host.compiler = "g++ \"quoted\"";
  snapshot.host.forward_kernel = "avx2";
  snapshot.resources.peak_rss_bytes = 1u << 30;
  snapshot.resources.minor_faults = 42;
  snapshot.resources.user_cpu_seconds = 1.25;
  snapshot.allocs = {7, 8192};
  snapshot.spans.push_back({"critic_update", 10, 1.5, 1.0, 100, 4096});

  auto parsed = ParseBenchSnapshot(BenchSnapshotToJson(snapshot));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->schema_version, kBenchSchemaVersion);
  EXPECT_EQ(parsed->label, "test");
  EXPECT_EQ(parsed->host.hardware_threads, 4u);
  EXPECT_EQ(parsed->host.default_threads, 2u);
  EXPECT_EQ(parsed->host.build_type, "Release");
  EXPECT_EQ(parsed->host.sanitizer, "thread");
  EXPECT_TRUE(parsed->host.checks);
  EXPECT_EQ(parsed->host.compiler, "g++ \"quoted\"");
  EXPECT_EQ(parsed->host.forward_kernel, "avx2");
  ASSERT_EQ(parsed->entries.size(), 2u);
  EXPECT_EQ(parsed->entries[0].name, "micro/BM_A");
  EXPECT_DOUBLE_EQ(parsed->entries[1].real_time_ns, 5e9);
  EXPECT_EQ(parsed->resources.peak_rss_bytes, 1u << 30);
  EXPECT_EQ(parsed->resources.minor_faults, 42u);
  EXPECT_DOUBLE_EQ(parsed->resources.user_cpu_seconds, 1.25);
  EXPECT_EQ(parsed->allocs.count, 7u);
  EXPECT_EQ(parsed->allocs.bytes, 8192u);
  ASSERT_EQ(parsed->spans.size(), 1u);
  EXPECT_EQ(parsed->spans[0].name, "critic_update");
  EXPECT_EQ(parsed->spans[0].alloc_bytes, 4096u);
}

TEST(BenchSnapshotJson, RejectsWrongSchemaVersion) {
  BenchSnapshot snapshot = MakeSnapshot({MakeEntry("a", 1.0)});
  std::string json = BenchSnapshotToJson(snapshot);
  const std::string needle = "\"schema_version\":1";
  const size_t at = json.find(needle);
  ASSERT_NE(at, std::string::npos);
  json.replace(at, needle.size(), "\"schema_version\":999");
  auto parsed = ParseBenchSnapshot(json);
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(BenchSnapshotJson, MissingBaselineFileIsNotFound) {
  auto missing = LoadBenchSnapshot("/nonexistent/dir/BENCH_0.json");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(BenchSnapshotJson, WriteThenLoadRoundTrips) {
  BenchSnapshot snapshot = MakeSnapshot({MakeEntry("a", 10.0)});
  const std::string path =
      ::testing::TempDir() + "/bench_compare_test_snapshot.json";
  ASSERT_TRUE(WriteBenchSnapshot(snapshot, path).ok());
  auto loaded = LoadBenchSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->entries.size(), 1u);
  EXPECT_EQ(loaded->entries[0].name, "a");
  std::remove(path.c_str());
}

TEST(CompareBenchSnapshots, ClassifiesAroundTheNoiseThreshold) {
  // Threshold 0.5 so the boundary ratios are exact in binary floating point.
  BenchCompareOptions options;
  options.noise_threshold = 0.5;
  BenchSnapshot baseline = MakeSnapshot({
      MakeEntry("exact_boundary", 100.0),
      MakeEntry("regressed", 100.0),
      MakeEntry("improved", 100.0),
      MakeEntry("steady", 100.0),
  });
  BenchSnapshot current = MakeSnapshot({
      MakeEntry("exact_boundary", 150.0),  // ratio 1.5 == 1 + t: unchanged.
      MakeEntry("regressed", 151.0),       // just past the threshold.
      MakeEntry("improved", 49.0),         // ratio 0.49 < 1 - t.
      MakeEntry("steady", 100.0),
  });
  BenchComparison comparison =
      CompareBenchSnapshots(baseline, current, options);
  ASSERT_EQ(comparison.regressions.size(), 1u);
  EXPECT_EQ(comparison.regressions[0].name, "regressed");
  EXPECT_DOUBLE_EQ(comparison.regressions[0].ratio, 1.51);
  ASSERT_EQ(comparison.improvements.size(), 1u);
  EXPECT_EQ(comparison.improvements[0].name, "improved");
  EXPECT_EQ(comparison.unchanged.size(), 2u);
  EXPECT_TRUE(comparison.HasRegressions());
}

TEST(CompareBenchSnapshots, OneSidedBenchmarksAreReportedNotCompared) {
  BenchSnapshot baseline = MakeSnapshot(
      {MakeEntry("shared", 100.0), MakeEntry("removed_bench", 50.0)});
  BenchSnapshot current =
      MakeSnapshot({MakeEntry("shared", 100.0), MakeEntry("new_bench", 70.0)});
  BenchComparison comparison = CompareBenchSnapshots(baseline, current);
  ASSERT_EQ(comparison.only_in_baseline.size(), 1u);
  EXPECT_EQ(comparison.only_in_baseline[0], "removed_bench");
  ASSERT_EQ(comparison.only_in_current.size(), 1u);
  EXPECT_EQ(comparison.only_in_current[0], "new_bench");
  EXPECT_FALSE(comparison.HasRegressions());
}

TEST(CompareBenchSnapshots, ZeroIterationEntriesAreSkipped) {
  BenchSnapshot baseline = MakeSnapshot(
      {MakeEntry("no_iters", 100.0, 0), MakeEntry("zero_time", 0.0, 10)});
  BenchSnapshot current = MakeSnapshot(
      {MakeEntry("no_iters", 500.0, 100), MakeEntry("zero_time", 5.0, 10)});
  BenchComparison comparison = CompareBenchSnapshots(baseline, current);
  EXPECT_EQ(comparison.skipped.size(), 2u);
  EXPECT_TRUE(comparison.regressions.empty());
  EXPECT_TRUE(comparison.improvements.empty());
}

TEST(CompareBenchSnapshots, RegressionsSortWorstFirst) {
  BenchSnapshot baseline = MakeSnapshot(
      {MakeEntry("mild", 100.0), MakeEntry("severe", 100.0)});
  BenchSnapshot current = MakeSnapshot(
      {MakeEntry("mild", 130.0), MakeEntry("severe", 400.0)});
  BenchComparison comparison = CompareBenchSnapshots(baseline, current);
  ASSERT_EQ(comparison.regressions.size(), 2u);
  EXPECT_EQ(comparison.regressions[0].name, "severe");
  EXPECT_EQ(comparison.regressions[1].name, "mild");
}

TEST(CompareBenchSnapshots, FlagsDifferingHosts) {
  BenchSnapshot baseline = MakeSnapshot({MakeEntry("a", 1.0)});
  BenchSnapshot current = MakeSnapshot({MakeEntry("a", 1.0)});
  current.host.sanitizer = "address";
  EXPECT_TRUE(CompareBenchSnapshots(baseline, current).host_differs);
  current.host.sanitizer = baseline.host.sanitizer;
  EXPECT_FALSE(CompareBenchSnapshots(baseline, current).host_differs);
}

TEST(CompareBenchSnapshots, FlagsDifferingForwardKernels) {
  BenchSnapshot baseline = MakeSnapshot({MakeEntry("a", 1.0)});
  BenchSnapshot current = MakeSnapshot({MakeEntry("a", 1.0)});
  baseline.host.forward_kernel = "scalar";
  current.host.forward_kernel = "avx2";
  EXPECT_TRUE(CompareBenchSnapshots(baseline, current).host_differs);
  current.host.forward_kernel = "scalar";
  EXPECT_FALSE(CompareBenchSnapshots(baseline, current).host_differs);

  // A snapshot recorded before the field existed parses it as empty, and
  // an unknown kernel is not a difference.
  std::string old_json = BenchSnapshotToJson(baseline);
  const std::string field = ",\"forward_kernel\":\"scalar\"";
  const size_t at = old_json.find(field);
  ASSERT_NE(at, std::string::npos) << old_json;
  old_json.erase(at, field.size());
  auto old_snapshot = ParseBenchSnapshot(old_json);
  ASSERT_TRUE(old_snapshot.ok()) << old_snapshot.status().ToString();
  EXPECT_EQ(old_snapshot->host.forward_kernel, "");
  current.host.forward_kernel = "avx2";
  EXPECT_FALSE(CompareBenchSnapshots(*old_snapshot, current).host_differs);
}

#if EADRL_CHECKS

[[noreturn]] void ThrowHandler(const char* message) {
  throw std::runtime_error(message);
}

class BenchCompareContractTest : public ::testing::Test {
 protected:
  void SetUp() override { chk::SetFailureHandlerForTest(&ThrowHandler); }
  void TearDown() override { chk::SetFailureHandlerForTest(nullptr); }
};

TEST_F(BenchCompareContractTest, NanTimingViolatesTheContract) {
  BenchSnapshot baseline = MakeSnapshot(
      {MakeEntry("bad", std::numeric_limits<double>::quiet_NaN())});
  BenchSnapshot current = MakeSnapshot({MakeEntry("bad", 100.0)});
  EXPECT_THROW(CompareBenchSnapshots(baseline, current), std::runtime_error);
}

TEST_F(BenchCompareContractTest, NegativeTimingViolatesTheContract) {
  BenchSnapshot baseline = MakeSnapshot({MakeEntry("bad", 100.0)});
  BenchSnapshot current = MakeSnapshot({MakeEntry("bad", -1.0)});
  EXPECT_THROW(CompareBenchSnapshots(baseline, current), std::runtime_error);
}

TEST_F(BenchCompareContractTest, NegativeThresholdViolatesTheContract) {
  BenchCompareOptions options;
  options.noise_threshold = -0.1;
  BenchSnapshot snapshot = MakeSnapshot({MakeEntry("a", 1.0)});
  EXPECT_THROW(CompareBenchSnapshots(snapshot, snapshot, options),
               std::runtime_error);
}

#endif  // EADRL_CHECKS

TEST(FormatComparison, JsonOutputIsParseableAndCarriesTheVerdict) {
  BenchSnapshot baseline = MakeSnapshot({MakeEntry("a", 100.0)});
  BenchSnapshot current = MakeSnapshot({MakeEntry("a", 300.0)});
  BenchComparison comparison = CompareBenchSnapshots(baseline, current);
  auto doc = json::Parse(FormatComparisonJson(comparison));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::Value* regressed = doc->Find("regressed");
  ASSERT_NE(regressed, nullptr);
  EXPECT_TRUE(regressed->AsBool());
  const json::Value* regressions = doc->Find("regressions");
  ASSERT_NE(regressions, nullptr);
  ASSERT_EQ(regressions->AsArray().size(), 1u);

  const std::string human = FormatComparisonHuman(comparison);
  EXPECT_NE(human.find("verdict: REGRESSED"), std::string::npos);
  EXPECT_NE(human.find("a"), std::string::npos);
}

}  // namespace
}  // namespace eadrl::obs
