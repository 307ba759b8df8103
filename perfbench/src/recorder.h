#ifndef PERFBENCH_RECORDER_H_
#define PERFBENCH_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds (steady_clock).
int64_t NowNs();

/// The benchmark's own span recorder. Spans are timed around public calls
/// into the library (or rebuilt afterwards from timestamps taken around
/// them), kept in memory, and written once at exit as Chrome trace-event
/// JSON.
///
/// Span names must be ones src/obs/spans.def registers, because the file
/// is validated with eadrl_trace_check; the benchmark's own layer name
/// (e.g. "serve.admit") goes in the `layer` arg. Per-layer metrics are
/// computed from the recorded spans by layer name.
class SpanRecorder {
 public:
  struct Span {
    const char* name = "";   ///< registered span name.
    std::string layer;       ///< benchmark layer, e.g. "serve.admit".
    uint64_t id = 0;
    uint64_t parent = 0;     ///< 0 = trace root.
    uint64_t trace = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint32_t tid = 0;
  };

  /// Spans beyond `capacity` are counted but not kept.
  explicit SpanRecorder(size_t capacity) : capacity_(capacity) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Reserves a span id (for parents recorded after their children); the
  /// span joins its parent's trace, or starts one when `parent` is 0.
  uint64_t NewId(uint64_t parent = 0);

  /// Records a finished span and returns its id (`id` 0 allocates one).
  /// A `trace` of 0 means the parent's trace (a new one for roots).
  /// Thread-safe.
  uint64_t Record(const char* name, const std::string& layer, int64_t start_ns,
                  int64_t end_ns, uint64_t parent = 0, uint64_t trace = 0,
                  uint32_t tid = 0, uint64_t id = 0);

  /// Durations (ns) of every kept span of `layer`.
  std::vector<double> DurationsNs(const std::string& layer) const;

  size_t size() const;
  uint64_t dropped() const;

  /// Writes {"traceEvents":[...]} with one "X" event per kept span; false on
  /// an I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
  std::unordered_map<uint64_t, uint64_t> trace_of_;
  uint64_t dropped_ = 0;
};

/// Wall-clock span around a scope, recorded when it ends. A null recorder
/// makes it a no-op, so untraced runs pay nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::string layer,
             uint64_t parent = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Id children should use as parent (0 when not recording).
  uint64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  const char* name_;
  std::string layer_;
  uint64_t parent_;
  uint64_t id_ = 0;
  int64_t start_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_RECORDER_H_
