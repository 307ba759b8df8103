#include "recorder.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SpanRecorder::NewId(uint64_t parent) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  const auto it = trace_of_.find(parent);
  trace_of_[id] = parent == 0 ? id : (it != trace_of_.end() ? it->second : parent);
  return id;
}

uint64_t SpanRecorder::Record(const char* name, const std::string& layer,
                              int64_t start_ns, int64_t end_ns,
                              uint64_t parent, uint64_t trace, uint32_t tid,
                              uint64_t id) {
  if (id == 0) id = NewId(parent);
  std::lock_guard<std::mutex> lock(mu_);
  if (trace == 0) trace = trace_of_[id];
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return id;
  }
  Span s;
  s.name = name;
  s.layer = layer;
  s.id = id;
  s.parent = parent;
  s.trace = trace;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.tid = tid;
  spans_.push_back(std::move(s));
  return id;
}

std::vector<double> SpanRecorder::DurationsNs(const std::string& layer) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.layer == layer) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

uint64_t SpanRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = 0;
  for (const Span& s : spans_) {
    if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
  }
  // A parent dropped by the capacity cap would dangle; such spans are
  // exported as roots.
  std::unordered_map<uint64_t, bool> kept;
  for (const Span& s : spans_) kept[s.id] = true;
  std::fprintf(f, "{\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"perfbench\"}}");
  for (const Span& s : spans_) {
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":1,\"tid\":%u,\"args\":{\"layer\":\"%s\","
                 "\"span_id\":%llu,\"trace_id\":%llu",
                 s.name, static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
                 s.layer.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.trace));
    if (s.parent != 0 && kept.count(s.parent) != 0) {
      std::fprintf(f, ",\"parent_id\":%llu",
                   static_cast<unsigned long long>(s.parent));
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const char* name,
                       std::string layer, uint64_t parent)
    : recorder_(recorder), name_(name), layer_(std::move(layer)),
      parent_(parent) {
  if (recorder_ == nullptr) return;
  id_ = recorder_->NewId(parent_);
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  recorder_->Record(name_, layer_, start_ns_, NowNs(), parent_, 0, 0, id_);
}

}  // namespace perfbench
