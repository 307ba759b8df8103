#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "common/string_util.h"
#include "obs/atomic_double.h"

namespace eadrl::obs {
namespace {

std::string LabelSignature(const Labels& sorted) {
  std::string sig;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) sig += ",";
    sig += sorted[i].first + "=" + sorted[i].second;
  }
  return sig;
}

// Prometheus metric names allow [a-zA-Z_:][a-zA-Z0-9_:]*; anything else is
// mapped to '_' so an arbitrary registry name still exposes cleanly.
std::string PrometheusName(const std::string& name) {
  std::string out = name;
  for (size_t i = 0; i < out.size(); ++i) {
    char c = out[i];
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
              c == ':' || (i > 0 && c >= '0' && c <= '9');
    if (!ok) out[i] = '_';
  }
  return out.empty() ? "_" : out;
}

// Label values in the exposition format escape backslash, quote and newline.
std::string PrometheusLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string PrometheusLabels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += PrometheusName(labels[i].first) + "=\"" +
           PrometheusLabelValue(labels[i].second) + "\"";
  }
  out += "}";
  return out;
}

std::string PrometheusNumber(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendJsonNumber(std::ostringstream* out, double v) {
  if (std::isfinite(v)) {
    *out << v;
  } else {
    // JSON has no inf/nan literals; null keeps the document parseable.
    *out << "null";
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Histogram.
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)) {
  EADRL_CHECK(!bounds_.empty());
  for (size_t i = 1; i < bounds_.size(); ++i) {
    EADRL_CHECK_GT(bounds_[i], bounds_[i - 1]);
  }
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) counts_[i] = 0;
  samples_ = std::make_unique<std::atomic<double>[]>(
      HistogramSnapshot::kExactQuantileSamples);
  sample_ready_ = std::make_unique<std::atomic<uint8_t>[]>(
      HistogramSnapshot::kExactQuantileSamples);
  for (size_t i = 0; i < HistogramSnapshot::kExactQuantileSamples; ++i) {
    sample_ready_[i] = 0;
  }
}

void Histogram::Observe(double value) {
  // Inclusive upper bounds (Prometheus "le" semantics): bucket i counts
  // values in (bounds[i-1], bounds[i]].
  size_t idx = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&sum_, value);
  // Update min/max before publishing the new count: a reader that sees
  // count >= 1 then also sees finite (non-sentinel) min/max.
  AtomicMin(&min_, value);
  AtomicMax(&max_, value);
  // Raw-sample capture for the exact-small quantile path. The cheap relaxed
  // pre-check keeps the fetch_add off the hot path once the budget is spent
  // (so the counter cannot creep toward wraparound either).
  uint32_t slot = sample_slots_.load(std::memory_order_relaxed);
  if (slot < HistogramSnapshot::kExactQuantileSamples) {
    slot = sample_slots_.fetch_add(1, std::memory_order_relaxed);
    if (slot < HistogramSnapshot::kExactQuantileSamples) {
      samples_[slot].store(value, std::memory_order_relaxed);
      sample_ready_[slot].store(1, std::memory_order_release);
    }
  }
  count_.fetch_add(1, std::memory_order_release);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.bounds.push_back(std::numeric_limits<double>::infinity());
  snap.counts.resize(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    snap.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_acquire);
  snap.sum = sum_.load(std::memory_order_relaxed);
  if (snap.count == 0) {
    // Empty histogram: report 0/0 rather than the +-inf sentinels.
    snap.min = 0.0;
    snap.max = 0.0;
  } else {
    snap.min = min_.load(std::memory_order_relaxed);
    snap.max = max_.load(std::memory_order_relaxed);
  }
  if (snap.count > 0 &&
      snap.count <= HistogramSnapshot::kExactQuantileSamples) {
    // Collect the raw population for the exact quantile path. Slots are
    // consumed in claim order and only past their ready flag, so a snapshot
    // racing an observer mid-store just falls short and falls back to bucket
    // interpolation (samples cleared) instead of reading garbage.
    snap.samples.reserve(snap.count);
    for (uint32_t s = 0; s < HistogramSnapshot::kExactQuantileSamples &&
                         snap.samples.size() < snap.count;
         ++s) {
      if (sample_ready_[s].load(std::memory_order_acquire) == 0) break;
      snap.samples.push_back(samples_[s].load(std::memory_order_relaxed));
    }
    if (snap.samples.size() != snap.count) snap.samples.clear();
  }
  return snap;
}

double Histogram::Mean() const {
  uint64_t n = Count();
  return n == 0 ? 0.0 : Sum() / static_cast<double>(n);
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (!samples.empty() && samples.size() == count) {
    // Exact path: the complete population is at hand, so return the
    // linearly-interpolated order statistic (the sorted-vector reference
    // tests/window_test.cc checks parity against).
    std::vector<double> sorted(samples);
    std::sort(sorted.begin(), sorted.end());
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  }
  double rank = q * static_cast<double>(count);
  uint64_t seen = 0;
  // bounds' last element is the +inf overflow bound; that bucket clamps to
  // the observed max instead.
  const size_t overflow = counts.size() - 1;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    double lower = i == 0 ? min : bounds[i - 1];
    double upper = i < overflow ? bounds[i] : max;
    lower = std::max(lower, min);
    upper = std::min(upper, max);
    if (upper < lower) upper = lower;
    uint64_t next = seen + counts[i];
    if (rank <= static_cast<double>(next)) {
      double frac = (rank - static_cast<double>(seen)) /
                    static_cast<double>(counts[i]);
      return lower + frac * (upper - lower);
    }
    seen = next;
  }
  return max;
}

double Histogram::Quantile(double q) const { return Snapshot().Quantile(q); }

void HistogramSnapshot::MergeFrom(const HistogramSnapshot& other) {
  if (other.counts.empty() && other.count == 0) return;
  if (counts.empty() && count == 0) {
    *this = other;
    return;
  }
  EADRL_CHECK(bounds == other.bounds);
  // Exactness decided before the totals mutate.
  const uint64_t merged_count = count + other.count;
  const bool exact = merged_count <= kExactQuantileSamples &&
                     samples.size() == count &&
                     other.samples.size() == other.count;
  for (size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  sum += other.sum;
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else if (other.count > 0) {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  count = merged_count;
  if (exact) {
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
  } else {
    samples.clear();
  }
}

std::vector<double> Histogram::ExponentialBounds(double start, double factor,
                                                 size_t count) {
  EADRL_CHECK_GT(start, 0.0);
  EADRL_CHECK_GT(factor, 1.0);
  EADRL_CHECK_GT(count, 0u);
  std::vector<double> bounds(count);
  double v = start;
  for (size_t i = 0; i < count; ++i) {
    bounds[i] = v;
    v *= factor;
  }
  return bounds;
}

std::vector<double> Histogram::LinearBounds(double start, double width,
                                            size_t count) {
  EADRL_CHECK_GT(width, 0.0);
  EADRL_CHECK_GT(count, 0u);
  std::vector<double> bounds(count);
  for (size_t i = 0; i < count; ++i) {
    bounds[i] = start + width * static_cast<double>(i);
  }
  return bounds;
}

std::vector<double> Histogram::DefaultLatencyBounds() {
  return ExponentialBounds(1e-6, 2.0, 24);
}

// ---------------------------------------------------------------------------
// MetricRegistry.
// ---------------------------------------------------------------------------

MetricRegistry::Entry* MetricRegistry::FindOrCreate(
    const std::string& name, const Labels& labels, Kind kind,
    std::vector<double> bounds) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string sig = LabelSignature(sorted);
  std::lock_guard<std::mutex> lock(mu_);
  auto& family = families_[name];
  if (!family.empty()) {
    // The family's kind is fixed by its first member.
    EADRL_CHECK(family.begin()->second.kind == kind);
  }
  auto it = family.find(sig);
  if (it != family.end()) return &it->second;

  Entry entry;
  entry.kind = kind;
  entry.labels = std::move(sorted);
  switch (kind) {
    case Kind::kCounter:
      entry.counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      entry.gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      entry.histogram = std::make_unique<Histogram>(
          bounds.empty() ? Histogram::DefaultLatencyBounds()
                         : std::move(bounds));
      break;
  }
  return &family.emplace(sig, std::move(entry)).first->second;
}

Counter* MetricRegistry::GetCounter(const std::string& name,
                                    const Labels& labels) {
  return FindOrCreate(name, labels, Kind::kCounter, {})->counter.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name,
                                const Labels& labels) {
  return FindOrCreate(name, labels, Kind::kGauge, {})->gauge.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name,
                                        std::vector<double> bounds,
                                        const Labels& labels) {
  return FindOrCreate(name, labels, Kind::kHistogram, std::move(bounds))
      ->histogram.get();
}

std::string MetricRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{";
  bool first_family = true;
  for (const auto& [name, family] : families_) {
    if (!first_family) out << ",";
    first_family = false;
    out << "\"" << JsonEscaped(name) << "\":{";
    bool first_metric = true;
    for (const auto& [sig, entry] : family) {
      if (!first_metric) out << ",";
      first_metric = false;
      out << "\"" << JsonEscaped(sig) << "\":";
      switch (entry.kind) {
        case Kind::kCounter:
          out << "{\"type\":\"counter\",\"value\":";
          AppendJsonNumber(&out, entry.counter->Value());
          out << "}";
          break;
        case Kind::kGauge:
          out << "{\"type\":\"gauge\",\"value\":";
          AppendJsonNumber(&out, entry.gauge->Value());
          out << "}";
          break;
        case Kind::kHistogram: {
          HistogramSnapshot snap = entry.histogram->Snapshot();
          out << "{\"type\":\"histogram\",\"count\":" << snap.count
              << ",\"sum\":";
          AppendJsonNumber(&out, snap.sum);
          out << ",\"min\":";
          AppendJsonNumber(&out, snap.min);
          out << ",\"max\":";
          AppendJsonNumber(&out, snap.max);
          out << ",\"mean\":";
          AppendJsonNumber(&out, snap.Mean());
          out << ",\"p50\":";
          AppendJsonNumber(&out, snap.Quantile(0.5));
          out << ",\"p90\":";
          AppendJsonNumber(&out, snap.Quantile(0.9));
          out << ",\"p99\":";
          AppendJsonNumber(&out, snap.Quantile(0.99));
          out << "}";
          break;
        }
      }
    }
    out << "}";
  }
  out << "}";
  return out.str();
}

std::string MetricRegistry::ToCsv() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "name,labels,field,value\n";
  for (const auto& [name, family] : families_) {
    for (const auto& [sig, entry] : family) {
      auto row = [&](const char* field, double value) {
        out << CsvField(name) << "," << CsvField(sig) << "," << field << ","
            << value << "\n";
      };
      switch (entry.kind) {
        case Kind::kCounter:
          row("value", entry.counter->Value());
          break;
        case Kind::kGauge:
          row("value", entry.gauge->Value());
          break;
        case Kind::kHistogram: {
          HistogramSnapshot snap = entry.histogram->Snapshot();
          row("count", static_cast<double>(snap.count));
          row("sum", snap.sum);
          row("min", snap.min);
          row("max", snap.max);
          row("mean", snap.Mean());
          row("p50", snap.Quantile(0.5));
          row("p90", snap.Quantile(0.9));
          row("p99", snap.Quantile(0.99));
          break;
        }
      }
    }
  }
  return out.str();
}

std::string MetricRegistry::ToPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, family] : families_) {
    if (family.empty()) continue;
    const std::string prom = PrometheusName(name);
    const char* type = "untyped";
    switch (family.begin()->second.kind) {
      case Kind::kCounter:
        type = "counter";
        break;
      case Kind::kGauge:
        type = "gauge";
        break;
      case Kind::kHistogram:
        type = "histogram";
        break;
    }
    out += "# TYPE " + prom + " " + type + "\n";
    for (const auto& [sig, entry] : family) {
      static_cast<void>(sig);
      switch (entry.kind) {
        case Kind::kCounter:
          out += prom + PrometheusLabels(entry.labels) + " " +
                 PrometheusNumber(entry.counter->Value()) + "\n";
          break;
        case Kind::kGauge:
          out += prom + PrometheusLabels(entry.labels) + " " +
                 PrometheusNumber(entry.gauge->Value()) + "\n";
          break;
        case Kind::kHistogram: {
          const HistogramSnapshot snap = entry.histogram->Snapshot();
          uint64_t cumulative = 0;
          for (size_t i = 0; i < snap.bounds.size(); ++i) {
            cumulative += snap.counts[i];
            Labels with_le = entry.labels;
            with_le.emplace_back("le", PrometheusNumber(snap.bounds[i]));
            out += prom + "_bucket" + PrometheusLabels(with_le) + " " +
                   std::to_string(cumulative) + "\n";
          }
          out += prom + "_sum" + PrometheusLabels(entry.labels) + " " +
                 PrometheusNumber(snap.sum) + "\n";
          out += prom + "_count" + PrometheusLabels(entry.labels) + " " +
                 std::to_string(snap.count) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

void MetricRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  families_.clear();
}

MetricRegistry& MetricRegistry::Default() {
  static MetricRegistry* registry =
      new MetricRegistry();  // NOLINT(naked-new): leaked on purpose so
                             // late-exiting threads can still record
  return *registry;
}

}  // namespace eadrl::obs
