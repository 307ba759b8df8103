#ifndef EADRL_OBS_ATOMIC_DOUBLE_H_
#define EADRL_OBS_ATOMIC_DOUBLE_H_

#include <atomic>

// Lock-free accumulate/min/max on std::atomic<double>, shared by the obs
// backends (metrics.cc, window.cc, trace.cc). Internal to src/obs: include
// it from .cc files only. A CAS loop rather than
// std::atomic<double>::fetch_add, which is C++20 and not universally
// lock-free; the loop compiles to the same code where it is. All orders are
// relaxed: callers only need each value to be updated atomically.

namespace eadrl::obs {

inline void AtomicAdd(std::atomic<double>* target, double delta) {
  double cur = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(cur, cur + delta,
                                        std::memory_order_relaxed)) {
  }
}

inline void AtomicMin(std::atomic<double>* target, double value) {
  double cur = target->load(std::memory_order_relaxed);
  while (value < cur && !target->compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

inline void AtomicMax(std::atomic<double>* target, double value) {
  double cur = target->load(std::memory_order_relaxed);
  while (value > cur && !target->compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace eadrl::obs

#endif  // EADRL_OBS_ATOMIC_DOUBLE_H_
