#include "obs/window.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "obs/atomic_double.h"

namespace eadrl::obs {
namespace {

constexpr size_t kSlotSampleCap = HistogramSnapshot::kExactQuantileSamples;

uint64_t TickNanos(double tick_seconds) {
  EADRL_CHECK_GT(tick_seconds, 0.0);
  const double ns = tick_seconds * 1e9;
  return ns < 1.0 ? 1 : static_cast<uint64_t>(std::llround(ns));
}

// The time the resident sub-windows cover at `now_ns`: from the later of
// the window's creation and the start of its oldest resident tick, up to
// now, so the current tick counts only for the part of it that has elapsed.
double CoveredWindowSeconds(uint64_t now_ns, uint64_t cur_epoch,
                            uint64_t start_ns, size_t buckets,
                            uint64_t tick_ns) {
  const uint64_t oldest = cur_epoch + 1 >= buckets ? cur_epoch + 1 - buckets : 0;
  const uint64_t begin = std::max(start_ns, oldest * tick_ns);
  // A concurrent IncAt may have rotated past this snapshot's clock reading.
  const uint64_t end = std::max({now_ns, cur_epoch * tick_ns, begin});
  return static_cast<double>(end - begin) * 1e-9;
}

}  // namespace

uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// WindowedCounter.
// ---------------------------------------------------------------------------

WindowedCounter::WindowedCounter(const WindowOptions& options)
    : opt_(options), tick_ns_(TickNanos(options.tick_seconds)) {
  EADRL_CHECK_GT(opt_.buckets, 0u);
  ring_ = std::vector<Slot>(opt_.buckets);
  start_ns_ = NowNs();
  cur_epoch_.store(start_ns_ / tick_ns_, std::memory_order_relaxed);
}

void WindowedCounter::RotateTo(uint64_t epoch) const {
  uint64_t cur = cur_epoch_.load(std::memory_order_relaxed);
  if (epoch <= cur) return;
  const size_t n = ring_.size();
  if (epoch - cur >= n) {
    // The whole window slid past: every slot is stale.
    for (Slot& slot : ring_) {
      slot.value.store(0.0, std::memory_order_relaxed);
    }
  } else {
    while (cur < epoch) {
      ++cur;
      ring_[cur % n].value.store(0.0, std::memory_order_relaxed);
    }
  }
  cur_epoch_.store(epoch, std::memory_order_release);
}

void WindowedCounter::Inc(double delta) { IncAt(NowNs(), delta); }

void WindowedCounter::IncAt(uint64_t now_ns, double delta) {
  AtomicAdd(&cumulative_, delta);
  const uint64_t epoch = now_ns / tick_ns_;
  if (epoch != cur_epoch_.load(std::memory_order_acquire)) {
    std::lock_guard<chk::OrderedMutex> lock(window_mu_);
    RotateTo(epoch);
  }
  AtomicAdd(&ring_[epoch % ring_.size()].value, delta);
}

WindowedCounterSnapshot WindowedCounter::Snapshot() const {
  WindowedCounterSnapshot snap;
  std::lock_guard<chk::OrderedMutex> lock(window_mu_);
  // Rotating here expires idle sub-windows even when no observation has
  // arrived since they went stale — a snapshot after a quiet spell reads 0,
  // not the last burst.
  const uint64_t now = NowNs();
  RotateTo(now / tick_ns_);
  for (const Slot& slot : ring_) {
    snap.total += slot.value.load(std::memory_order_relaxed);
  }
  snap.cumulative = cumulative_.load(std::memory_order_relaxed);
  snap.window_seconds =
      CoveredWindowSeconds(now, cur_epoch_.load(std::memory_order_relaxed),
                           start_ns_, ring_.size(), tick_ns_);
  return snap;
}

// ---------------------------------------------------------------------------
// WindowedHistogram.
// ---------------------------------------------------------------------------

WindowedHistogram::WindowedHistogram(const WindowOptions& options,
                                     std::vector<double> bounds)
    : opt_(options),
      bounds_(bounds.empty() ? Histogram::DefaultLatencyBounds()
                             : std::move(bounds)),
      tick_ns_(TickNanos(options.tick_seconds)) {
  EADRL_CHECK_GT(opt_.buckets, 0u);
  for (size_t i = 1; i < bounds_.size(); ++i) {
    EADRL_CHECK_GT(bounds_[i], bounds_[i - 1]);
  }
  ring_ = std::vector<Slot>(opt_.buckets);
  for (Slot& slot : ring_) {
    slot.counts = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
    slot.samples = std::make_unique<std::atomic<double>[]>(kSlotSampleCap);
    slot.sample_ready =
        std::make_unique<std::atomic<uint8_t>[]>(kSlotSampleCap);
    ResetSlot(&slot);
  }
  start_ns_ = NowNs();
  cur_epoch_.store(start_ns_ / tick_ns_, std::memory_order_relaxed);
}

void WindowedHistogram::ResetSlot(Slot* slot) const {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    slot->counts[i].store(0, std::memory_order_relaxed);
  }
  for (size_t s = 0; s < kSlotSampleCap; ++s) {
    slot->sample_ready[s].store(0, std::memory_order_relaxed);
  }
  slot->sample_slots.store(0, std::memory_order_relaxed);
  slot->sum.store(0.0, std::memory_order_relaxed);
  slot->min.store(std::numeric_limits<double>::infinity(),
                  std::memory_order_relaxed);
  slot->max.store(-std::numeric_limits<double>::infinity(),
                  std::memory_order_relaxed);
  slot->count.store(0, std::memory_order_relaxed);
}

void WindowedHistogram::RotateTo(uint64_t epoch) const {
  uint64_t cur = cur_epoch_.load(std::memory_order_relaxed);
  if (epoch <= cur) return;
  const size_t n = ring_.size();
  if (epoch - cur >= n) {
    for (Slot& slot : ring_) ResetSlot(&slot);
  } else {
    while (cur < epoch) {
      ++cur;
      ResetSlot(&ring_[cur % n]);
    }
  }
  cur_epoch_.store(epoch, std::memory_order_release);
}

void WindowedHistogram::Observe(double value) { ObserveAt(NowNs(), value); }

void WindowedHistogram::ObserveAt(uint64_t now_ns, double value) {
  cumulative_count_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t epoch = now_ns / tick_ns_;
  if (epoch != cur_epoch_.load(std::memory_order_acquire)) {
    std::lock_guard<chk::OrderedMutex> lock(window_mu_);
    RotateTo(epoch);
  }
  Slot& slot = ring_[epoch % ring_.size()];
  const size_t idx = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  slot.counts[idx].fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&slot.sum, value);
  AtomicMin(&slot.min, value);
  AtomicMax(&slot.max, value);
  uint32_t s = slot.sample_slots.load(std::memory_order_relaxed);
  if (s < kSlotSampleCap) {
    s = slot.sample_slots.fetch_add(1, std::memory_order_relaxed);
    if (s < kSlotSampleCap) {
      slot.samples[s].store(value, std::memory_order_relaxed);
      slot.sample_ready[s].store(1, std::memory_order_release);
    }
  }
  slot.count.fetch_add(1, std::memory_order_release);
}

WindowedHistogramSnapshot WindowedHistogram::Snapshot() const {
  WindowedHistogramSnapshot snap;
  snap.values.bounds = bounds_;
  snap.values.bounds.push_back(std::numeric_limits<double>::infinity());
  snap.values.counts.assign(bounds_.size() + 1, 0);

  std::lock_guard<chk::OrderedMutex> lock(window_mu_);
  const uint64_t now = NowNs();
  RotateTo(now / tick_ns_);

  std::vector<uint64_t> slot_counts(ring_.size(), 0);
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  for (size_t k = 0; k < ring_.size(); ++k) {
    const Slot& slot = ring_[k];
    const uint64_t c = slot.count.load(std::memory_order_acquire);
    if (c == 0) continue;
    slot_counts[k] = c;
    snap.values.count += c;
    snap.values.sum += slot.sum.load(std::memory_order_relaxed);
    mn = std::min(mn, slot.min.load(std::memory_order_relaxed));
    mx = std::max(mx, slot.max.load(std::memory_order_relaxed));
    for (size_t i = 0; i <= bounds_.size(); ++i) {
      snap.values.counts[i] += slot.counts[i].load(std::memory_order_relaxed);
    }
  }
  if (snap.values.count > 0) {
    snap.values.min = mn;
    snap.values.max = mx;
  }

  // Exact raw samples when the windowed population fits the budget and every
  // slot's stored samples cover its count (always true once concurrent
  // observers quiesce; a mid-observation race just degrades this snapshot to
  // bucket interpolation).
  if (snap.values.count > 0 &&
      snap.values.count <= HistogramSnapshot::kExactQuantileSamples) {
    std::vector<double> samples;
    samples.reserve(snap.values.count);
    bool complete = true;
    for (size_t k = 0; k < ring_.size() && complete; ++k) {
      uint64_t need = slot_counts[k];
      if (need == 0) continue;
      if (need > kSlotSampleCap) {
        complete = false;
        break;
      }
      uint64_t got = 0;
      for (uint32_t s = 0; s < kSlotSampleCap && got < need; ++s) {
        if (ring_[k].sample_ready[s].load(std::memory_order_acquire) == 0) {
          break;
        }
        samples.push_back(ring_[k].samples[s].load(std::memory_order_relaxed));
        ++got;
      }
      if (got != need) complete = false;
    }
    if (complete) snap.values.samples = std::move(samples);
  }

  snap.window_seconds =
      CoveredWindowSeconds(now, cur_epoch_.load(std::memory_order_relaxed),
                           start_ns_, ring_.size(), tick_ns_);
  return snap;
}

}  // namespace eadrl::obs
