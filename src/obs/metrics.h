#ifndef EADRL_OBS_METRICS_H_
#define EADRL_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "chk/thread_annotations.h"

namespace eadrl::obs {

/// Monotonically increasing counter. Lock-free; safe to Inc from any thread.
class Counter {
 public:
  void Inc(double delta = 1.0) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }

  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// A value that can go up and down (last-write-wins). Lock-free.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }

  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }

  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Immutable view of a histogram's state at one point in time. Derived
/// statistics (mean, quantiles) are computed on the snapshot itself, so one
/// Snapshot() call yields a mutually consistent set of numbers — exporters
/// must not go back to the live histogram per statistic (each trip re-reads
/// racing atomics and costs another full bucket copy).
struct HistogramSnapshot {
  /// Raw-sample budget for the exact-quantile path: populations at or below
  /// this size keep every observation, so Quantile needs no bucket
  /// interpolation (which drifts badly on small windowed samples — a p99
  /// over 40 requests should be an order statistic, not a bucket midpoint).
  static constexpr size_t kExactQuantileSamples = 256;

  std::vector<double> bounds;    ///< upper bucket bounds (last = +inf).
  std::vector<uint64_t> counts;  ///< per-bucket counts, bounds.size() long.
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0.
  double max = 0.0;
  /// Every raw observation when count <= kExactQuantileSamples and the
  /// source could vouch for completeness (quiesced single-writer snapshots
  /// always can; a snapshot racing concurrent observers may fall back to
  /// empty). Unsorted; empty means "bucket interpolation only".
  std::vector<double> samples;

  double Mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  /// Quantile estimate, q in [0, 1] (clamped). Returns 0 when empty. When
  /// `samples` holds the complete population (samples.size() == count) the
  /// result is the exact linearly-interpolated order statistic; otherwise
  /// linear interpolation inside the bucket holding the requested rank, with
  /// the first/overflow buckets clamped to min/max so the open-ended bucket
  /// cannot produce infinities.
  double Quantile(double q) const;

  /// Accumulates `other` into this snapshot. Both must share one bucket
  /// layout (identical bounds) unless one side is default-constructed empty.
  /// Counts, sums and min/max merge exactly; `samples` stays exact while the
  /// merged population fits kExactQuantileSamples and both sides were exact,
  /// else it empties. Associative and commutative on every derived statistic
  /// (sample order differs across merge orders, but Quantile sorts).
  void MergeFrom(const HistogramSnapshot& other);
};

/// Fixed-bucket histogram. `Observe` is lock-free (atomic per-bucket counts;
/// CAS loops for sum/min/max) so concurrent observation from the serving hot
/// path is safe. Quantiles are estimated by linear interpolation inside the
/// bucket containing the requested rank.
class Histogram {
 public:
  /// `bounds` are strictly increasing upper bucket bounds; a final +inf
  /// bucket is appended automatically.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  HistogramSnapshot Snapshot() const;

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const;

  /// Convenience for one-off queries: Snapshot().Quantile(q). Callers that
  /// need several statistics should take one Snapshot and query that.
  double Quantile(double q) const;

  /// `count` bounds starting at `start`, each `factor` times the previous —
  /// the usual latency-histogram shape.
  static std::vector<double> ExponentialBounds(double start, double factor,
                                               size_t count);
  static std::vector<double> LinearBounds(double start, double width,
                                          size_t count);
  /// 1 us .. ~16 s in powers of 2: the default for wall-time histograms.
  static std::vector<double> DefaultLatencyBounds();

 private:
  std::vector<double> bounds_;  ///< finite upper bounds; overflow is implicit.
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;  ///< bounds_.size() + 1.
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // +-inf sentinels make min/max updates pure CAS races (no first-observation
  // seeding, which could overwrite a concurrent observer's tighter value);
  // Snapshot maps the sentinels back to 0 while empty.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  // First kExactQuantileSamples raw observations, for the exact-small
  // quantile path: observers claim a slot via sample_slots_ and flip the
  // slot's ready flag after the value store, so Snapshot never reads an
  // unwritten slot.
  std::unique_ptr<std::atomic<double>[]> samples_;
  std::unique_ptr<std::atomic<uint8_t>[]> sample_ready_;
  std::atomic<uint32_t> sample_slots_{0};
};

/// Key/value labels distinguishing metrics within a family, e.g.
/// {{"method", "EA-DRL"}}. Order-insensitive (sorted internally).
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Thread-safe registry of named metric families. Getters create on first
/// use and return stable pointers that remain valid for the registry's
/// lifetime, so hot paths can look a metric up once and cache the pointer.
/// A family's type and (for histograms) bucket layout are fixed by the first
/// registration; a later lookup with a conflicting type aborts.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  ~MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  /// `bounds` is used only when the (name, labels) pair is first created;
  /// empty bounds mean DefaultLatencyBounds().
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds = {},
                          const Labels& labels = {});

  /// Serializes every metric to a JSON object keyed by family name; each
  /// family maps the label signature ("k=v,k2=v2" or "" for no labels) to
  /// the metric state. Names, signatures and values are JSON-escaped. See
  /// DESIGN.md, "Observability".
  std::string ToJson() const;

  /// Flat CSV: name,labels,field,value — one row per scalar statistic.
  /// Fields containing commas, quotes or newlines are RFC-4180 quoted.
  std::string ToCsv() const;

  /// Prometheus text exposition (version 0.0.4): one `# TYPE` line per
  /// family, `name{labels} value` series, histograms expanded into
  /// cumulative `_bucket{le=...}` series plus `_sum`/`_count`. Metric
  /// names are sanitized to [a-zA-Z0-9_:]; label values are escaped per the
  /// exposition format.
  std::string ToPrometheus() const;

  /// Drops every registered metric (invalidates previously returned
  /// pointers); tests only.
  void Reset();

  /// Process-wide registry used by the built-in instrumentation.
  static MetricRegistry& Default();

 private:
  enum class Kind {
    kCounter,
    kGauge,
    kHistogram,
  };

  struct Entry {
    Kind kind;
    Labels labels;  ///< sorted; kept so ToPrometheus can render pairs.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(const std::string& name, const Labels& labels,
                      Kind kind, std::vector<double> bounds);

  mutable std::mutex mu_;
  // family name -> label signature -> metric.
  std::map<std::string, std::map<std::string, Entry>> families_
      EADRL_GUARDED_BY(mu_);
};

/// Wall-time scope timer on std::chrono::steady_clock. On Stop (or
/// destruction, whichever comes first) the elapsed seconds are written to
/// the optional `out` pointer and observed into the optional histogram —
/// one code path for both MethodRun::runtime_seconds-style results and
/// registry latency metrics.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram = nullptr, double* out = nullptr)
      : start_(std::chrono::steady_clock::now()),
        histogram_(histogram),
        out_(out) {}

  ~ScopedTimer() { Stop(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Seconds since construction without stopping the timer.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  /// Records and returns the elapsed seconds. Idempotent; later calls
  /// return the time recorded by the first.
  double Stop() {
    if (!stopped_) {
      stopped_ = true;
      elapsed_ = ElapsedSeconds();
      if (out_ != nullptr) *out_ = elapsed_;
      if (histogram_ != nullptr) histogram_->Observe(elapsed_);
    }
    return elapsed_;
  }

 private:
  std::chrono::steady_clock::time_point start_;
  Histogram* histogram_;
  double* out_;
  bool stopped_ = false;
  double elapsed_ = 0.0;
};

}  // namespace eadrl::obs

#endif  // EADRL_OBS_METRICS_H_
