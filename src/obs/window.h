#ifndef EADRL_OBS_WINDOW_H_
#define EADRL_OBS_WINDOW_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "chk/lockdep.h"
#include "chk/thread_annotations.h"
#include "obs/metrics.h"

// Sliding-window metrics (see DESIGN.md, "Live serving observability").
// Cumulative counters answer "since process start"; operations questions are
// about the last N seconds — current QPS, windowed p99, shed rate right now.
// WindowedCounter / WindowedHistogram keep a ring of `buckets` sub-window
// slots, each covering one `tick_seconds` span of the monotonic clock; an
// observation lands in the slot for its epoch (monotonic time / tick) with a
// single atomic add, and a slot is zeroed for reuse when the window slides
// past it. Snapshots merge the resident slots into one consistent view with
// a windowed rate and (for histograms) quantiles.
//
// Concurrency model: the hot path is lock-free — observers read the current
// epoch, atomically add into the matching slot, and only the observer that
// first lands in a NEW epoch takes `window_mu_` to rotate. An observation
// racing a rotation can land in the slot that was just retired or recycled;
// the skew is bounded by one observation per rotation and the cumulative
// totals are exact (they bypass the ring), which is the right trade for a
// metrics plane — see bench/window_bench.cc for the per-observation cost.

namespace eadrl::obs {

/// Monotonic nanoseconds (std::chrono::steady_clock). The default clock for
/// windowed metrics; tests inject a fake via WindowOptions::now_ns.
uint64_t MonotonicNowNs();

/// Sub-window layout + clock for a windowed metric. The covered span is
/// buckets * tick_seconds (default 10 x 1 s); resolution is one tick.
struct WindowOptions {
  size_t buckets = 10;
  double tick_seconds = 1.0;
  /// Clock injection seam: nullptr = MonotonicNowNs. A plain function
  /// pointer (not std::function) so the hot path pays no indirection-heavy
  /// call and the options stay trivially copyable.
  uint64_t (*now_ns)() = nullptr;
};

/// One WindowedCounter view: the windowed total, the exact cumulative total
/// and the time the resident sub-windows actually cover: from creation or
/// the oldest resident tick's start, whichever is later, to the snapshot, so
/// neither a young window nor the current partial tick dilutes the rate.
struct WindowedCounterSnapshot {
  double total = 0.0;       ///< sum over the resident sub-windows.
  double cumulative = 0.0;  ///< exact since-construction total.
  double window_seconds = 0.0;

  double Rate() const { return window_seconds > 0.0 ? total / window_seconds : 0.0; }
};

/// Sliding-window counter. Inc is lock-free off the rotation path; Snapshot
/// rotates (so stale sub-windows expire even without traffic) and sums.
class WindowedCounter {
 public:
  explicit WindowedCounter(const WindowOptions& options);

  void Inc(double delta = 1.0);
  /// Inc with a caller-provided reading of THIS window's clock (NowNs()) —
  /// batch completion paths read the clock once and fan it out to every
  /// windowed metric sharing the clock instead of paying one clock read per
  /// observation (see ForecastService::ProcessBatch).
  void IncAt(uint64_t now_ns, double delta = 1.0);

  /// Current reading of the window's clock (injected or monotonic).
  uint64_t NowNs() const {
    return opt_.now_ns != nullptr ? opt_.now_ns() : MonotonicNowNs();
  }

  WindowedCounterSnapshot Snapshot() const;

  /// Exact since-construction total (does not depend on the window).
  double Cumulative() const {
    return cumulative_.load(std::memory_order_relaxed);
  }

  const WindowOptions& options() const { return opt_; }

 private:
  struct Slot {
    std::atomic<double> value{0.0};
  };

  /// Advances the ring to `epoch`, zeroing every slot the window slid past.
  /// Caller holds window_mu_.
  void RotateTo(uint64_t epoch) const EADRL_REQUIRES(window_mu_);

  WindowOptions opt_;
  uint64_t tick_ns_;
  uint64_t start_ns_;  ///< clock reading at construction.

  /// Serializes rotation only — never held while observing.
  mutable chk::OrderedMutex window_mu_{EADRL_LOCK_RANK(obs_window),
                                       "obs::WindowedCounter::window_mu_"};
  /// Slot values are atomics written lock-free by observers; rotation
  /// (zeroing) is serialized by window_mu_.
  mutable std::vector<Slot> ring_ EADRL_UNGUARDED;
  mutable std::atomic<uint64_t> cur_epoch_{0};
  std::atomic<double> cumulative_{0.0};
};

/// One WindowedHistogram view: a mergeable HistogramSnapshot over the
/// resident sub-windows (its `samples` are populated when the windowed count
/// fits the exact-quantile budget) plus the effective window span.
struct WindowedHistogramSnapshot {
  HistogramSnapshot values;
  double window_seconds = 0.0;

  double Rate() const {
    return window_seconds > 0.0
               ? static_cast<double>(values.count) / window_seconds
               : 0.0;
  }
};

/// Sliding-window histogram: per-sub-window atomic bucket counts plus up to
/// HistogramSnapshot::kExactQuantileSamples raw samples per slot, so small
/// windowed populations get exact quantiles (satellite of the serving p99
/// path; see HistogramSnapshot::Quantile).
class WindowedHistogram {
 public:
  /// `bounds` as Histogram: strictly increasing finite upper bounds, +inf
  /// overflow implicit; empty = Histogram::DefaultLatencyBounds().
  WindowedHistogram(const WindowOptions& options, std::vector<double> bounds);

  void Observe(double value);
  /// Observe with a caller-provided reading of this window's clock — see
  /// WindowedCounter::IncAt for the batch-amortization contract.
  void ObserveAt(uint64_t now_ns, double value);

  /// Current reading of the window's clock (injected or monotonic).
  uint64_t NowNs() const {
    return opt_.now_ns != nullptr ? opt_.now_ns() : MonotonicNowNs();
  }

  WindowedHistogramSnapshot Snapshot() const;

  /// Exact since-construction observation count.
  uint64_t CumulativeCount() const {
    return cumulative_count_.load(std::memory_order_relaxed);
  }

  const WindowOptions& options() const { return opt_; }

 private:
  struct Slot {
    std::unique_ptr<std::atomic<uint64_t>[]> counts;  ///< bounds.size() + 1.
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{0.0};  ///< +inf sentinel, set in ctor/rotation.
    std::atomic<double> max{0.0};  ///< -inf sentinel.
    /// Raw-sample slots claimed (may exceed the stored capacity; stores are
    /// dropped past it). sample_ready[i] flips to 1 after samples[i] is
    /// written, so a reader never consumes an unwritten slot.
    std::atomic<uint32_t> sample_slots{0};
    std::unique_ptr<std::atomic<double>[]> samples;
    std::unique_ptr<std::atomic<uint8_t>[]> sample_ready;
  };

  void ResetSlot(Slot* slot) const;
  void RotateTo(uint64_t epoch) const EADRL_REQUIRES(window_mu_);

  WindowOptions opt_;
  /// Const after construction.
  std::vector<double> bounds_ EADRL_UNGUARDED;
  uint64_t tick_ns_;
  uint64_t start_ns_;  ///< clock reading at construction.

  mutable chk::OrderedMutex window_mu_{EADRL_LOCK_RANK(obs_window),
                                       "obs::WindowedHistogram::window_mu_"};
  /// Same discipline as WindowedCounter::ring_: lock-free atomic writes,
  /// rotation under window_mu_.
  mutable std::vector<Slot> ring_ EADRL_UNGUARDED;
  mutable std::atomic<uint64_t> cur_epoch_{0};
  std::atomic<uint64_t> cumulative_count_{0};
};

}  // namespace eadrl::obs

#endif  // EADRL_OBS_WINDOW_H_
