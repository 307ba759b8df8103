#ifndef EADRL_CHK_LOCKDEP_H_
#define EADRL_CHK_LOCKDEP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "chk/chk.h"
#include "chk/thread_annotations.h"

// Runtime lock-order checking (see DESIGN.md, "Correctness tooling"). The
// static half of lock discipline is eadrl_lint's lock-order rule over
// src/chk/lock_order.def; this header is the dynamic half, in the style of
// the kernel's lockdep: chk::OrderedMutex is a std::mutex that carries a
// LockRank, and chk::LockTracker maintains a per-thread held-lock stack plus
// a process-wide acquired-after edge graph over ranks. The first acquisition
// that would close a cycle in that graph — a real deadlock candidate, even
// if no two threads have interleaved badly yet — fails a contract naming
// both lock sites and the edge observed earlier. Same-rank nesting (two
// table stripes, two sessions in a wave) is legal only in ascending address
// order, which is the discipline ProcessWave's address sort implements.
//
// Cost model: tracking follows the library-wide EADRL_CHECKS setting (the
// same PUBLIC compile definition that gates EADRL_CHK). With checks off,
// OrderedMutex::lock() inlines to exactly std::mutex::lock() — the rank is
// still stored (layout never changes across build modes; the per-TU
// EADRL_CHK_FORCE_ON/OFF overrides deliberately do NOT apply here, because a
// class layout or inline body that varied per-TU would be an ODR violation)
// but no hook runs and no thread-local state exists.
// tests/lock_order_test.cc holds both claims: cycle detection fires when
// compiled in, and a checks-off binary performs zero tracked acquisitions.
//
// With checks compiled in, tracking defaults ON and can be disabled for a
// process with EADRL_LOCKDEP=0 (check.sh forces it on for the TSan stage
// with EADRL_LOCKDEP=1); tests toggle it via LockTracker::SetEnabledForTest.

// Library-wide gate: EADRL_CHECKS, else assert()'s convention. Unlike
// EADRL_CHK_ENABLED this ignores EADRL_CHK_FORCE_ON/OFF — see above.
#if defined(EADRL_CHECKS)
#define EADRL_LOCKDEP_COMPILED EADRL_CHECKS
#elif defined(NDEBUG)
#define EADRL_LOCKDEP_COMPILED 0
#else
#define EADRL_LOCKDEP_COMPILED 1
#endif

namespace eadrl::chk {

/// One rank per entry of src/chk/lock_order.def, in file (= allowed
/// acquisition) order. Rank values are comparable: a thread holding rank R
/// may only acquire ranks >= R (equal ranks in ascending address order).
enum class LockRank : int {
#define EADRL_LOCK(name, description) k_##name,
#include "chk/lock_order.def"
#undef EADRL_LOCK
  kCount,
};

inline constexpr size_t kLockRankCount =
    static_cast<size_t>(LockRank::kCount);

/// Registry name / description for a rank (lock_order.def order).
const char* LockRankName(LockRank rank);
const char* LockRankDescription(LockRank rank);

/// Names a rank at an OrderedMutex construction site. eadrl_lint's
/// lock-order rule reads these bindings textually, so always construct with
/// the macro (never a bare LockRank value): the macro is what associates the
/// member name with its rank for the static analysis.
#define EADRL_LOCK_RANK(name) ::eadrl::chk::LockRank::k_##name

/// True when this build carries the lock tracker (EADRL_CHECKS at library
/// build time). The runtime toggle below is only meaningful when true.
bool LockdepCompiled();

namespace internal_lockdep {
void OnAcquire(LockRank rank, const void* mutex, const char* site,
               bool blocking);
void OnRelease(LockRank rank, const void* mutex);
}  // namespace internal_lockdep

/// A std::mutex with a declared rank. Drop-in for the std lock helpers
/// (std::lock_guard<chk::OrderedMutex>, std::unique_lock<...>,
/// std::scoped_lock); condition variables need std::condition_variable_any.
class EADRL_CAPABILITY("mutex") OrderedMutex {
 public:
  /// `site` names the member for failure reports ("serve::Session::
  /// session_mu"); it must be a string literal (stored by pointer).
  OrderedMutex(LockRank rank, const char* site) : rank_(rank), site_(site) {}

  OrderedMutex(const OrderedMutex&) = delete;
  OrderedMutex& operator=(const OrderedMutex&) = delete;

  void lock() EADRL_ACQUIRE() {
#if EADRL_LOCKDEP_COMPILED
    // Hook BEFORE the blocking acquire: a would-deadlock cycle must be
    // reported while this thread can still make progress.
    internal_lockdep::OnAcquire(rank_, this, site_, /*blocking=*/true);
#endif
    mu_.lock();
  }

  void unlock() EADRL_RELEASE() {
#if EADRL_LOCKDEP_COMPILED
    // Read before the release: once mu_ is unlocked a waiter may destroy
    // this mutex (BatchingQueue::Flush returning into a destructor), so no
    // member may be touched after it.
    const LockRank rank = rank_;
    mu_.unlock();
    internal_lockdep::OnRelease(rank, this);
#else
    mu_.unlock();
#endif
  }

  bool try_lock() EADRL_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
#if EADRL_LOCKDEP_COMPILED
    // A successful try_lock cannot deadlock, so it contributes no
    // acquired-after edges — it only joins the held stack (lockdep's
    // trylock convention).
    internal_lockdep::OnAcquire(rank_, this, site_, /*blocking=*/false);
#endif
    return true;
  }

  LockRank rank() const { return rank_; }
  const char* site() const { return site_; }

 private:
  std::mutex mu_;
  const LockRank rank_;
  const char* const site_;
};

/// Process-wide acquisition tracker. Library code never calls this directly
/// (OrderedMutex does); tests inspect and reset it.
class LockTracker {
 public:
  static LockTracker& Instance();

  struct Stats {
    uint64_t tracked_acquisitions = 0;  ///< hooks that ran with tracking on.
    uint64_t edges_recorded = 0;        ///< distinct acquired-after edges.
    size_t held_on_this_thread = 0;     ///< calling thread's stack depth.
  };
  Stats GetStats() const;

  /// Runtime toggle. Compiled-in builds start enabled unless the
  /// EADRL_LOCKDEP environment variable is "0" at first use.
  bool enabled() const;
  void SetEnabledForTest(bool enabled);

  /// Clears the edge graph and counters (NOT other threads' held stacks).
  /// Call from tests with no tracked locks held.
  void ResetForTest();

  // Hooks (via internal_lockdep; public so the out-of-line shims can reach
  // them without a friend maze).
  void OnAcquire(LockRank rank, const void* mutex, const char* site,
                 bool blocking);
  void OnRelease(LockRank rank, const void* mutex);

 private:
  LockTracker();

  /// One acquired-after edge. `present` is checked lock-free on the hot
  /// path (an edge seen before cannot create a new cycle, so re-observing
  /// it costs one relaxed load); graph_mu_ serializes first insertions and
  /// guards the site strings. The tracker deliberately adds NO
  /// synchronization between acquisitions beyond this — a global lock on
  /// every acquire would manufacture happens-before edges and hide real
  /// races from the TSan stage that runs with lockdep forced on.
  struct Edge {
    std::atomic<bool> present{false};
    // First observation of this edge, for the cycle report. Written under
    // graph_mu_ before `present` is released; read under graph_mu_.
    const char* held_site = "";
    const char* acquired_site = "";
  };

  /// True when `to` is reachable from `from` in the edge graph. Caller
  /// holds graph_mu_ (insertions are serialized; `present` loads race only
  /// with other readers).
  bool Reachable(size_t from, size_t to) const EADRL_REQUIRES(graph_mu_);

  /// Serializes edge insertion; deliberately a plain (untracked) std::mutex
  /// — the tracker cannot track itself. Always innermost: nothing is
  /// acquired while it is held.
  mutable std::mutex graph_mu_;
  Edge edges_[kLockRankCount][kLockRankCount];
  uint64_t edge_count_ EADRL_GUARDED_BY(graph_mu_) = 0;
  std::atomic<uint64_t> acquisitions_{0};
  std::atomic<bool> enabled_{true};
};

}  // namespace eadrl::chk

#endif  // EADRL_CHK_LOCKDEP_H_
