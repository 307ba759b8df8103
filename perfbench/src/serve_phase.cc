// Serving phase: open-loop traffic from the benchmark's own one-thread
// generator against serve::ForecastService (ServeConfig defaults on an
// nproc-1 worker pool). Every predict is stamped with its scheduled send
// time and its latency runs from that stamp to the completion callback, so
// a stall in the service or in the generator shows as latency of every
// request it delayed (no coordinated omission). The service's capacity
// (max_qps) comes from closed-loop probes interleaved with the fixed rates.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "core/eadrl.h"
#include "exp/experiment.h"
#include "par/thread_pool.h"
#include "schedule.h"
#include "serve/service.h"
#include "stats.h"
#include "ts/datasets.h"
#include "ts/scaler.h"

namespace perfbench {

// Standalone probes of the layers under the serving path (layer_probes.cc).
void RunLayerProbes(eadrl::core::EadrlCombiner* served,
                    eadrl::core::EadrlCombiner* reference,
                    const eadrl::math::Matrix& member_preds, size_t tenants,
                    uint64_t seed, SpanRecorder* rec, RunResult* result);

namespace {

namespace core = eadrl::core;
namespace exp = eadrl::exp;
namespace par = eadrl::par;
namespace serve = eadrl::serve;
namespace ts = eadrl::ts;
using eadrl::Status;
using eadrl::StatusCode;
using eadrl::StatusOr;

struct ServeWorkload {
  size_t tenants = 0;
  bool observe = false;   ///< send an observe from each predict's callback.
  double low_rate = 0.0;  ///< predicts/s.
  double high_rate = 0.0;
  double burst_factor = 1.0;
  double burst_s = 0.0;
  double period_s = 0.0;
};

ServeWorkload WorkloadFor(const std::string& name) {
  ServeWorkload w;
  if (name == "serve_steady") {
    // Few tenants (sessions fit in L2), Poisson, predict + observe 1:1:
    // admission, queue handoff, the drainer, session locks and the observe
    // write path dominate; waves carry only a few rows.
    w.tenants = 1000;
    w.observe = true;
    w.low_rate = 15000.0;
    w.high_rate = 30000.0;
  } else {
    // Many tenants (tens of MB of sessions), predict-only, 4x bursts for
    // 25 ms of every 100 ms: waves fill to max_batch, so the batched actor
    // pass dominates.
    w.tenants = 50000;
    w.observe = false;
    w.low_rate = 20000.0;
    w.high_rate = 30000.0;
    w.burst_factor = 4.0;
    w.burst_s = 0.025;
    w.period_s = 0.1;
  }
  return w;
}

// The served policy: EA-DRL over the full 43-model pool on one synthetic
// Table-I series; its test-segment member forecasts are every tenant's
// stream.
constexpr int kPolicyDataset = 2;
constexpr size_t kPolicyLength = 400;
constexpr size_t kSetupRepeats = 3;
// Each fixed rate is measured in this many segments, alternating low and
// high with a capacity probe after each pair, so a slow stretch of the
// host weighs on every metric alike.
constexpr size_t kSegments = 16;
// Segments are cut into windows of this much scheduled time; a rate's p50 and
// p99 are the medians of the per-window values.
constexpr double kWindowS = 0.1;
constexpr int64_t kDepthSampleNs = 1000000;  // queue depth sampled each 1 ms.
// Requests a capacity probe keeps outstanding. A predict stays outstanding
// until its observe (serve_steady) or itself (serve_burst) completes, so
// the queue never holds more than this and nothing sheds (max_queue 4096).
// The backlog keeps the drainer busy through a ~15 ms stall of the
// generator's CPU.
constexpr uint64_t kProbeWindow = 3072;
// A probe's rate is counted after this share of it, once the window filled.
constexpr double kProbeRampShare = 0.1;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

struct Trained {
  std::unique_ptr<core::EadrlCombiner> combiner;
  double initialize_s = 0.0;  ///< EadrlCombiner::Initialize alone.
};

Trained TrainPolicy(uint64_t seed, exp::PoolRun* pool_out) {
  auto series = ts::MakeDataset(kPolicyDataset, seed, kPolicyLength);
  if (!series.ok()) {
    std::fprintf(stderr, "policy dataset: %s\n",
                 series.status().ToString().c_str());
    std::exit(2);
  }
  exp::ExperimentOptions opt;
  opt.seed = seed;
  opt.pool.fast_mode = false;  // 43 members: the 10->64->64->43 actor.
  opt.pool.nn_epochs = 2;
  opt.eadrl.max_episodes = 4;
  opt.eadrl.seed = seed;
  exp::PoolRun pool = exp::PreparePool(*series, opt);
  Trained out;
  out.combiner = std::make_unique<core::EadrlCombiner>(opt.eadrl);
  const int64_t t1 = NowNs();
  const Status st = out.combiner->Initialize(pool.val_preds, pool.val_actuals);
  const int64_t t2 = NowNs();
  if (!st.ok()) {
    std::fprintf(stderr, "policy training: %s\n", st.ToString().c_str());
    std::exit(2);
  }
  out.initialize_s = SecondsBetween(t1, t2);
  *pool_out = std::move(pool);
  return out;
}

/// Bit pattern of a few greedy actions: equal across identically trained
/// policies.
uint64_t PolicyFingerprint(core::EadrlCombiner* combiner, uint64_t seed) {
  eadrl::Rng rng(seed ^ 0x5eedULL);
  const size_t dim = combiner->config().omega;
  eadrl::math::Matrix states(8, dim);
  for (size_t r = 0; r < states.rows(); ++r) {
    for (size_t c = 0; c < dim; ++c) states(r, c) = rng.Normal();
  }
  const eadrl::math::Matrix actions = combiner->agent()->ActBatch(states);
  Digest d;
  for (size_t r = 0; r < actions.rows(); ++r) {
    for (size_t c = 0; c < actions.cols(); ++c) d.Add(actions(r, c));
  }
  return d.value();
}

/// Tenant identities and the per-tenant stream positions.
struct Tenants {
  std::vector<std::string> names;
  std::vector<ts::StandardScaler> scalers;
  std::vector<uint32_t> next_step;  ///< generator-owned.
  uint64_t wraps = 0;               ///< stream restarts (step % rows == 0).
};

Tenants MakeTenants(size_t n, uint64_t seed) {
  Tenants t;
  eadrl::Rng rng(seed ^ 0x7e4a47ULL);
  t.names.reserve(n);
  t.scalers.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    t.names.push_back(std::string("tenant-").append(std::to_string(i)));
    t.scalers.push_back(ts::StandardScaler::FromMoments(
        rng.Uniform(-10.0, 10.0), rng.Uniform(0.5, 2.0)));
  }
  t.next_step.assign(n, 0);
  return t;
}

/// Order-sensitive digest of each tenant's served forecasts. Only the
/// drainer writes it, and a session's callbacks run one after another in
/// step order, so no two threads touch one tenant's entry at once.
struct ServedLog {
  std::vector<Digest> digest;
  std::vector<uint32_t> count;
  explicit ServedLog(size_t tenants) : digest(tenants), count(tenants, 0) {}
  void Add(uint32_t tenant, double value) {
    digest[tenant].Add(value);
    ++count[tenant];
  }
};

enum SlotState : uint8_t { kPending = 0, kOk, kError, kShed };

/// One scheduled predict.
struct Slot {
  int64_t sched_ns = 0;
  int64_t send_ns = 0;   ///< generator clock right before PredictAsync.
  /// PredictAsync returned. The callback may run before that, so it reads
  /// this through std::atomic_ref.
  int64_t admit_ns = 0;
  int64_t done_ns = 0;   ///< completion callback ran.
  uint64_t span = 0;     ///< the request's span id when traced, else 0.
  uint32_t tenant = 0;
  uint32_t step = 0;
  uint8_t state = kPending;
};

/// Member vectors the generator allocates ahead, while it waits between
/// sends: each predict hands one to the service, and an allocation in the
/// send path would make the generator late in a burst or slow a capacity
/// probe. A burst at serve_burst's high rate carries about 3,000 predicts.
constexpr size_t kSpareMembers = 8192;

/// Per-request buffers reused by every segment and probe. They are sized
/// for the largest segment before any traffic, so peak memory holds no
/// growth of the benchmark's own bookkeeping.
struct TrafficBuffers {
  std::vector<Slot> slots;
  std::vector<Arrival> arrivals;
  std::vector<eadrl::math::Vec> spare;  ///< allocated member vectors.

  void Reserve(size_t requests, size_t members) {
    slots.resize(requests);
    arrivals.resize(requests);  // touched now, so resident from here on.
    arrivals.clear();
    spare.reserve(kSpareMembers);
    while (spare.size() < kSpareMembers) spare.emplace_back(members);
  }
};

/// A running service plus what its callbacks need.
struct Target {
  serve::ForecastService* service = nullptr;
  const Tenants* tenants = nullptr;
  const exp::PoolRun* stream = nullptr;
  ServedLog* log = nullptr;
  bool observe = false;
  Slot* slots = nullptr;
  /// When set, every `span_stride`-th predict is traced live: its admission
  /// span by the generator, its residence span by the callback, both
  /// children of `rung_span`.
  SpanRecorder* rec = nullptr;
  uint64_t rung_span = 0;
  size_t span_stride = 4;
  std::atomic<uint64_t> observe_attempted{0};
  std::atomic<uint64_t> observe_shed{0};
  std::atomic<uint64_t> observe_failed{0};
  /// Capacity probes: predict callbacks run, predicts that failed, and
  /// requests whose last part (the observe, when there is one) completed
  /// or failed.
  std::atomic<uint64_t> predicted{0};
  std::atomic<uint64_t> predict_failed{0};
  std::atomic<uint64_t> released{0};

  double Actual(uint32_t tenant, uint32_t step) const {
    const size_t row = step % stream->test_actuals.size();
    return tenants->scalers[tenant].Inverse(stream->test_actuals[row]);
  }
};

/// What one fixed-rate segment measured.
struct RungResult {
  std::string label;
  double rate = 0.0;
  double duration_s = 0.0;
  size_t scheduled = 0;
  uint64_t ok = 0;
  uint64_t predict_shed = 0;
  uint64_t predict_failed = 0;
  uint64_t observe_attempted = 0;
  uint64_t observe_shed = 0;
  uint64_t observe_failed = 0;
  /// Latency of ok predicts from scheduled send: the median over the
  /// segment's windows of each window's p50 (p99).
  double p50_us = 0.0;
  Quantile p99_us;
  double lag_p99_us = 0.0;  ///< generator lateness behind the schedule.
  std::vector<std::vector<double>> windows;  ///< ok latencies (us) by window.
  double depth_max = 0.0;   ///< largest sampled queue depth.
  double flush_ms = 0.0;
  double service_cpu_s = 0.0;
  serve::ServeStats before;
  serve::ServeStats after;

  uint64_t failures() const {
    return predict_shed + predict_failed + observe_shed + observe_failed;
  }
  uint64_t attempted() const { return scheduled + observe_attempted; }
};

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Predicts plus observes per wave between two Stats() readings.
double RequestsPerWave(const serve::ServeStats& before,
                       const serve::ServeStats& after) {
  return Ratio((after.predicts - before.predicts) +
                   (after.observes - before.observes),
               after.batches - before.batches);
}

/// Rows per batched actor pass between two Stats() readings.
double RowsPerActorPass(const serve::ServeStats& before,
                        const serve::ServeStats& after) {
  return Ratio(after.act_batch_rows - before.act_batch_rows,
               after.act_batches - before.act_batches);
}

/// One fixed rate measured over several segments.
struct FixedRate {
  std::vector<std::vector<double>> windows;
  uint64_t ok = 0;
  uint64_t attempted = 0;
  uint64_t failures = 0;
  uint64_t shed = 0;
  double service_cpu_s = 0.0;
  double depth_max = 0.0;
  std::vector<double> flush_ms;
  std::vector<double> lag_p99_us;
  uint64_t waves = 0;
  uint64_t requests = 0;
  uint64_t passes = 0;
  uint64_t rows = 0;
  uint64_t drift_events = 0;

  void Add(RungResult* r) {
    for (std::vector<double>& w : r->windows) windows.push_back(std::move(w));
    ok += r->ok;
    attempted += r->attempted();
    failures += r->failures();
    shed += r->predict_shed + r->observe_shed;
    service_cpu_s += r->service_cpu_s;
    depth_max = std::max(depth_max, r->depth_max);
    flush_ms.push_back(r->flush_ms);
    lag_p99_us.push_back(r->lag_p99_us);
    const serve::ServeStats& a = r->after;
    const serve::ServeStats& b = r->before;
    waves += a.batches - b.batches;
    requests += (a.predicts - b.predicts) + (a.observes - b.observes);
    passes += a.act_batches - b.act_batches;
    rows += a.act_batch_rows - b.act_batch_rows;
    drift_events += a.drift_events - b.drift_events;
  }
  Quantile P(double q) const { return WindowedQuantile(windows, q); }
  double RequestsPerWave() const { return Ratio(requests, waves); }
  double RowsPerActorPass() const { return Ratio(rows, passes); }
  double CpuUsPerReq() const {
    return ok == 0 ? 0.0 : service_cpu_s * 1e6 / static_cast<double>(ok);
  }
};

/// The open-loop generator: drives one schedule through `target` from the
/// calling thread and waits for the tail to drain.
RungResult RunRung(Target* target, Tenants* tenants, const ServeWorkload& w,
                   const std::string& label, double rate, double duration_s,
                   uint64_t seed, TrafficBuffers* buffers) {
  RungResult r;
  r.label = label;
  r.rate = rate;
  r.duration_s = duration_s;
  ScheduleSpec spec;
  spec.mean_rate = rate;
  spec.duration_s = duration_s;
  spec.tenants = w.tenants;
  spec.burst_factor = w.burst_factor;
  spec.burst_s = w.burst_s;
  spec.period_s = w.period_s;
  spec.seed = seed;
  MakeSchedule(spec, &buffers->arrivals);
  const std::vector<Arrival>& arrivals = buffers->arrivals;
  std::vector<Slot>* slots = &buffers->slots;
  r.scheduled = arrivals.size();
  if (slots->size() < arrivals.size()) slots->resize(arrivals.size());
  target->slots = slots->data();
  SpanRecorder* const rec = target->rung_span != 0 ? target->rec : nullptr;
  target->observe_attempted = 0;
  target->observe_shed = 0;
  target->observe_failed = 0;

  serve::ForecastService* service = target->service;
  const eadrl::math::Matrix& preds = target->stream->test_preds;
  const uint32_t rows = static_cast<uint32_t>(preds.rows());
  std::vector<eadrl::math::Vec>& spare = buffers->spare;
  r.before = service->Stats();
  const double cpu0 = ProcessCpuSeconds();
  const double gen_cpu0 = ThreadCpuSeconds();
  int64_t admit_total_ns = 0;

  // Windows of scheduled time, each one burst period.
  const size_t nwin = std::max<size_t>(
      1, static_cast<size_t>(std::lround(duration_s / kWindowS)));
  const double window_ns = duration_s * 1e9 / static_cast<double>(nwin);
  const int64_t start = NowNs() + 2000000;  // 2 ms to settle.
  auto window_of = [&](int64_t t) {
    return std::min(nwin - 1, static_cast<size_t>(
                                  static_cast<double>(t - start) / window_ns));
  };
  auto sample_depth = [&] {
    r.depth_max = std::max(r.depth_max,
                           static_cast<double>(service->Stats().queue_depth));
  };
  int64_t next_sample = start;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    Slot& s = (*slots)[i];
    s = Slot();
    s.sched_ns = start + static_cast<int64_t>(arrivals[i].t * 1e9);
    int64_t now = NowNs();
    while (now < s.sched_ns) {
      if (now >= next_sample) {
        sample_depth();
        next_sample += kDepthSampleNs;
      } else if (spare.size() < kSpareMembers && s.sched_ns - now > 5000) {
        spare.emplace_back(preds.cols());
      }
      CpuRelax();
      now = NowNs();
    }
    if (now >= next_sample) {
      sample_depth();
      while (next_sample <= now) next_sample += kDepthSampleNs;
    }
    const uint32_t tenant = arrivals[i].tenant;
    const uint32_t step = tenants->next_step[tenant];
    s.tenant = tenant;
    s.step = step;
    eadrl::math::Vec member;
    if (spare.empty()) {
      member.resize(preds.cols());
    } else {
      member = std::move(spare.back());
      spare.pop_back();
    }
    // The member forecasts in the tenant's units, as
    // StandardScaler::Inverse(preds.Row(row)) gives them.
    const ts::StandardScaler& scaler = tenants->scalers[tenant];
    const size_t row = step % rows;
    for (size_t c = 0; c < member.size(); ++c) {
      member[c] = scaler.Inverse(preds(row, c));
    }
    if (rec != nullptr && i % target->span_stride == 0) {
      s.span = rec->NewId(target->rung_span);
    }
    s.send_ns = NowNs();
    const uint32_t id = static_cast<uint32_t>(i);
    Status admitted = service->PredictAsync(
        tenants->names[tenant], std::move(member),
        [target, id](StatusOr<double> result) {
          Slot& slot = target->slots[id];
          slot.done_ns = NowNs();
          if (!result.ok()) {
            slot.state = kError;
            return;
          }
          slot.state = kOk;
          target->log->Add(slot.tenant, *result);
          if (slot.span != 0) {
            // Residence: admission return to callback (empty when the
            // callback ran before PredictAsync returned).
            const int64_t admit = std::atomic_ref<int64_t>(slot.admit_ns)
                                      .load(std::memory_order_acquire);
            const int64_t begin =
                admit == 0 ? slot.done_ns : std::min(admit, slot.done_ns);
            target->rec->Record("serve_request", "serve.residence", begin,
                                slot.done_ns, target->rung_span, slot.span, 2);
          }
          if (!target->observe) return;
          target->observe_attempted.fetch_add(1, std::memory_order_relaxed);
          const Status st = target->service->ObserveActualAsync(
              target->tenants->names[slot.tenant],
              target->Actual(slot.tenant, slot.step), [target](Status done) {
                if (!done.ok()) {
                  target->observe_failed.fetch_add(1,
                                                   std::memory_order_relaxed);
                }
              });
          if (st.code() == StatusCode::kResourceExhausted) {
            target->observe_shed.fetch_add(1, std::memory_order_relaxed);
          } else if (!st.ok()) {
            target->observe_failed.fetch_add(1, std::memory_order_relaxed);
          }
        });
    const int64_t admit_ns = NowNs();
    std::atomic_ref<int64_t>(s.admit_ns).store(admit_ns,
                                               std::memory_order_release);
    admit_total_ns += admit_ns - s.send_ns;
    if (admitted.ok() && s.span != 0) {
      rec->Record("serve_admission", "serve.admit", s.send_ns, admit_ns,
                  target->rung_span, s.span, 1, s.span);
    }
    if (admitted.ok()) {
      // The stream advances only on admission, so each tenant's served
      // steps stay contiguous for the reference check.
      if (step > 0 && step % rows == 0) ++tenants->wraps;
      tenants->next_step[tenant] = step + 1;
    } else {
      s.state = admitted.code() == StatusCode::kResourceExhausted ? kShed
                                                                   : kError;
    }
  }
  const int64_t last_send = NowNs();
  service->Flush();
  const int64_t flushed = NowNs();
  r.flush_ms = static_cast<double>(flushed - last_send) * 1e-6;
  // Service CPU: the whole process minus the generator thread, plus the
  // generator's time inside the admission calls (service code it runs).
  r.service_cpu_s = (ProcessCpuSeconds() - cpu0) -
                    (ThreadCpuSeconds() - gen_cpu0) +
                    static_cast<double>(admit_total_ns) * 1e-9;
  r.after = service->Stats();

  // Latencies by window of scheduled time.
  r.windows.resize(nwin);
  std::vector<double> lag_us;
  lag_us.reserve(arrivals.size());
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const Slot& s = (*slots)[i];
    lag_us.push_back(static_cast<double>(s.send_ns - s.sched_ns) * 1e-3);
    switch (s.state) {
      case kOk: {
        ++r.ok;
        const double us = static_cast<double>(s.done_ns - s.sched_ns) * 1e-3;
        r.windows[window_of(s.sched_ns)].push_back(us);
        break;
      }
      case kShed:
        ++r.predict_shed;
        break;
      default:
        ++r.predict_failed;
        break;
    }
  }
  r.lag_p99_us = TailQuantile(&lag_us, 0.99).value;
  r.observe_attempted = target->observe_attempted.load();
  r.observe_shed = target->observe_shed.load();
  r.observe_failed = target->observe_failed.load();
  r.p50_us = WindowedQuantile(r.windows, 0.5).value;
  r.p99_us = WindowedQuantile(r.windows, 0.99);
  return r;
}

/// What one capacity probe measured.
struct ProbeResult {
  double duration_s = 0.0;
  uint64_t predicts = 0;  ///< sent.
  uint64_t observes = 0;  ///< sent from predict callbacks.
  uint64_t failures = 0;  ///< sheds and errors; a probe expects none.
  /// Predicts completed per second after the ramp (kProbeRampShare), of
  /// the time the hypervisor did not steal (`steal_share`).
  double qps = 0.0;
  double wall_qps = 0.0;  ///< the same per second of wall time.
  /// Share of the probe the generator waited on a full window: near 1
  /// when the service, not the generator, sets the pace.
  double window_full_share = 0.0;
  double steal_share = 0.0;
  serve::ServeStats before;
  serve::ServeStats after;
};

/// Closed-loop capacity probe: the generator keeps kProbeWindow requests
/// outstanding for `duration_s` and sends the next one as soon as one
/// completes, so the service runs as fast as it can with full waves and
/// without shedding. Tenants are drawn uniformly from `seed`.
ProbeResult RunProbe(Target* target, Tenants* tenants, const ServeWorkload& w,
                     double duration_s, uint64_t seed,
                     TrafficBuffers* buffers) {
  ProbeResult p;
  p.duration_s = duration_s;
  std::mt19937_64 engine(seed);
  std::uniform_int_distribution<uint32_t> pick(
      0, static_cast<uint32_t>(w.tenants - 1));
  target->observe_attempted = 0;
  target->observe_shed = 0;
  target->observe_failed = 0;
  target->predicted = 0;
  target->predict_failed = 0;
  target->released = 0;
  std::atomic<uint64_t>* released = &target->released;

  serve::ForecastService* service = target->service;
  const eadrl::math::Matrix& preds = target->stream->test_preds;
  const uint32_t rows = static_cast<uint32_t>(preds.rows());
  std::vector<eadrl::math::Vec>& spare = buffers->spare;
  uint64_t failed_admissions = 0;
  p.before = service->Stats();
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(duration_s * 1e9);
  const int64_t ramp_end =
      start + static_cast<int64_t>(kProbeRampShare * duration_s * 1e9);
  // Where counting starts: the end of the ramp, or the start when a stall
  // skipped past it.
  int64_t mark_ns = start;
  uint64_t mark_done = 0;
  HostCpu host0 = ReadHostCpu();
  bool ramped = false;
  int64_t waited_ns = 0;
  int64_t now = start;
  while (now < end) {
    if (!ramped && now >= ramp_end) {
      mark_done = target->predicted.load(std::memory_order_relaxed);
      host0 = ReadHostCpu();
      mark_ns = now;
      ramped = true;
    }
    if (p.predicts - released->load(std::memory_order_acquire) >=
        kProbeWindow) {
      if (spare.size() < kSpareMembers) spare.emplace_back(preds.cols());
      const int64_t later = NowNs();
      waited_ns += later - now;
      now = later;
      continue;
    }
    const uint32_t tenant = pick(engine);
    const uint32_t step = tenants->next_step[tenant];
    eadrl::math::Vec member;
    if (spare.empty()) {
      member.resize(preds.cols());
    } else {
      member = std::move(spare.back());
      spare.pop_back();
    }
    const ts::StandardScaler& scaler = tenants->scalers[tenant];
    const size_t row = step % rows;
    for (size_t c = 0; c < member.size(); ++c) {
      member[c] = scaler.Inverse(preds(row, c));
    }
    ++p.predicts;
    const Status admitted = service->PredictAsync(
        tenants->names[tenant], std::move(member),
        [target, tenant, step](StatusOr<double> result) {
          target->predicted.fetch_add(1, std::memory_order_relaxed);
          if (!result.ok()) {
            target->predict_failed.fetch_add(1, std::memory_order_relaxed);
            target->released.fetch_add(1, std::memory_order_release);
            return;
          }
          target->log->Add(tenant, *result);
          if (!target->observe) {
            target->released.fetch_add(1, std::memory_order_release);
            return;
          }
          target->observe_attempted.fetch_add(1, std::memory_order_relaxed);
          const Status st = target->service->ObserveActualAsync(
              target->tenants->names[tenant], target->Actual(tenant, step),
              [target](Status done) {
                if (!done.ok()) {
                  target->observe_failed.fetch_add(1,
                                                   std::memory_order_relaxed);
                }
                target->released.fetch_add(1, std::memory_order_release);
              });
          if (!st.ok()) {  // shed or refused: counted as a failure.
            target->observe_failed.fetch_add(1, std::memory_order_relaxed);
            target->released.fetch_add(1, std::memory_order_release);
          }
        });
    if (admitted.ok()) {
      if (step > 0 && step % rows == 0) ++tenants->wraps;
      tenants->next_step[tenant] = step + 1;
    } else {
      ++failed_admissions;
      released->fetch_add(1, std::memory_order_release);
    }
    now = NowNs();
  }
  const uint64_t done = target->predicted.load(std::memory_order_relaxed);
  p.steal_share = StealShare(host0, ReadHostCpu());
  p.wall_qps =
      static_cast<double>(done - mark_done) / SecondsBetween(mark_ns, now);
  p.qps = p.wall_qps / (1.0 - p.steal_share);
  p.window_full_share =
      static_cast<double>(waited_ns) / static_cast<double>(now - start);
  service->Flush();
  p.after = service->Stats();
  p.observes = target->observe_attempted.load();
  p.failures = failed_admissions + target->predict_failed.load() +
               target->observe_failed.load();
  return p;
}

/// Recomputes every tenant's served sequence on a serial manual-drain
/// service (one request per wave) and counts tenants whose sequence
/// differs bit for bit from `served`.
uint64_t ReferenceCheck(serve::ForecastService* reference, bool reset,
                        const Tenants& tenants, const exp::PoolRun& stream,
                        const ServedLog& served, const char* what) {
  const eadrl::math::Matrix& preds = stream.test_preds;
  const size_t rows = preds.rows();
  uint64_t mismatched = 0;
  uint64_t checked = 0;
  for (size_t t = 0; t < tenants.names.size(); ++t) {
    if (reset && !reference->ResetSession(tenants.names[t]).ok()) {
      std::exit(2);
    }
    Digest digest;
    uint32_t count = 0;
    bool failed = false;
    for (uint32_t step = 0; step < served.count[t]; ++step) {
      const Status st = reference->PredictAsync(
          tenants.names[t], tenants.scalers[t].Inverse(preds.Row(step % rows)),
          [&](StatusOr<double> r) {
            if (r.ok()) {
              digest.Add(*r);
              ++count;
            } else {
              failed = true;
            }
          });
      if (!st.ok()) failed = true;
      while (reference->DrainOnce()) {
      }
    }
    checked += served.count[t];
    if (failed || count != served.count[t] ||
        digest.value() != served.digest[t].value()) {
      ++mismatched;
      if (mismatched <= 5) {
        std::printf("MISMATCH %s: tenant %s served %u forecasts that differ "
                    "from the serial reference\n",
                    what, tenants.names[t].c_str(), served.count[t]);
      }
    }
  }
  std::printf("reference check (%s): %llu forecasts over %zu tenants, %llu "
              "tenant sequences differ\n",
              what, static_cast<unsigned long long>(checked),
              tenants.names.size(), static_cast<unsigned long long>(mismatched));
  return mismatched;
}

std::string RungJson(const RungResult& r) {
  char buf[768];
  const double drift =
      static_cast<double>(r.after.drift_events - r.before.drift_events);
  std::snprintf(
      buf, sizeof(buf),
      "{\"label\":\"%s\",\"rate\":%.1f,\"duration_s\":%.3f,\"scheduled\":%zu,"
      "\"ok\":%llu,\"predict_shed\":%llu,\"predict_failed\":%llu,"
      "\"observe_attempted\":%llu,\"observe_shed\":%llu,"
      "\"observe_failed\":%llu,\"p50_us\":%.3f,\"p99_us\":%.3f,"
      "\"p99_supported\":%s,\"samples\":%zu,\"depth_max\":%.0f,"
      "\"drift_events\":%.0f,\"flush_ms\":%.3f,\"requests_per_wave\":%.3f,"
      "\"rows_per_actor_pass\":%.3f}",
      r.label.c_str(), r.rate, r.duration_s, r.scheduled,
      static_cast<unsigned long long>(r.ok),
      static_cast<unsigned long long>(r.predict_shed),
      static_cast<unsigned long long>(r.predict_failed),
      static_cast<unsigned long long>(r.observe_attempted),
      static_cast<unsigned long long>(r.observe_shed),
      static_cast<unsigned long long>(r.observe_failed), r.p50_us,
      r.p99_us.value, r.p99_us.supported ? "true" : "false", r.p99_us.samples,
      r.depth_max, drift, r.flush_ms, RequestsPerWave(r.before, r.after),
      RowsPerActorPass(r.before, r.after));
  return buf;
}

std::string ProbeJson(const ProbeResult& p) {
  char buf[384];
  std::snprintf(
      buf, sizeof(buf),
      "{\"duration_s\":%.3f,\"predicts\":%llu,\"observes\":%llu,"
      "\"failures\":%llu,\"qps\":%.1f,\"wall_qps\":%.1f,"
      "\"window_full_share\":%.3f,"
      "\"steal_share\":%.4f,"
      "\"drift_events\":%llu,"
      "\"requests_per_wave\":%.3f,\"rows_per_actor_pass\":%.3f}",
      p.duration_s, static_cast<unsigned long long>(p.predicts),
      static_cast<unsigned long long>(p.observes),
      static_cast<unsigned long long>(p.failures), p.qps, p.wall_qps,
      p.window_full_share,
      p.steal_share,
      static_cast<unsigned long long>(p.after.drift_events -
                                      p.before.drift_events),
      RequestsPerWave(p.before, p.after), RowsPerActorPass(p.before, p.after));
  return buf;
}

void PrintRung(const RungResult& r) {
  std::printf(
      "rung %-11s %7.0f/s %5.2fs: n=%zu ok=%llu shed=%llu fail=%llu "
      "p50=%.1fus p99=%.1fus lag_p99=%.1fus depth_max=%.0f drift=%llu\n",
      r.label.c_str(), r.rate, r.duration_s, r.scheduled,
      static_cast<unsigned long long>(r.ok),
      static_cast<unsigned long long>(r.predict_shed + r.observe_shed),
      static_cast<unsigned long long>(r.predict_failed + r.observe_failed),
      r.p50_us, r.p99_us.value, r.lag_p99_us, r.depth_max,
      static_cast<unsigned long long>(r.after.drift_events -
                                      r.before.drift_events));
}

void PrintProbe(const ProbeResult& p) {
  std::printf(
      "probe %5.2fs: %8.0f predicts/s, n=%llu observes=%llu fail=%llu "
      "window full %.0f%%, steal %.1f%%, %.2f requests/wave, %.2f rows/actor pass\n",
      p.duration_s, p.qps, static_cast<unsigned long long>(p.predicts),
      static_cast<unsigned long long>(p.observes),
      static_cast<unsigned long long>(p.failures), 100.0 * p.window_full_share,
      100.0 * p.steal_share,
      RequestsPerWave(p.before, p.after), RowsPerActorPass(p.before, p.after));
}

std::unique_ptr<serve::ForecastService> NewService(par::ThreadPool* pool,
                                                   bool manual) {
  serve::ServeConfig config;  // defaults: no linger, max_queue 4096.
  config.pool = pool;
  config.manual_drain = manual;
  return std::make_unique<serve::ForecastService>(config);
}

/// Creates every tenant's session; returns the per-call times (us).
std::vector<double> CreateSessions(serve::ForecastService* service,
                                   size_t policy, const Tenants& tenants) {
  std::vector<double> us;
  us.reserve(tenants.names.size());
  for (size_t t = 0; t < tenants.names.size(); ++t) {
    const int64_t t0 = NowNs();
    const Status st =
        service->CreateSession(tenants.names[t], policy, &tenants.scalers[t]);
    us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    if (!st.ok()) {
      std::fprintf(stderr, "CreateSession: %s\n", st.ToString().c_str());
      std::exit(2);
    }
  }
  return us;
}

}  // namespace

void RunServePhase(const RunContext& ctx, RunResult* result) {
  const ServeWorkload w = WorkloadFor(ctx.workload);
  SpanRecorder* rec = ctx.recorder;
  const size_t workers = ctx.nproc > 1 ? ctx.nproc - 1 : 1;
  par::ThreadPool pool(workers);
  const size_t busy = pool.num_workers() + 1;  // + the generator.
  result->info["serve_pool_threads"] = std::to_string(pool.num_workers());
  result->info.emplace("generator_threads", "1");
  result->info["busy_threads"] = std::to_string(busy);
  result->info.emplace("comparable", busy <= ctx.nproc ? "true" : "false");
  result->info["tenants"] = std::to_string(w.tenants);

  // Set-up, repeated: policy training, then a fresh service holding every
  // tenant's session. The last repeat's service is the one measured.
  exp::PoolRun stream;
  std::vector<double> setup_s;
  std::vector<double> initialize_s;
  std::vector<double> create_us;
  std::unique_ptr<serve::ForecastService> service;
  size_t policy = 0;
  uint64_t fingerprint = 0;
  auto check_policy = [&](core::EadrlCombiner* combiner, const char* what) {
    const uint64_t fp = PolicyFingerprint(combiner, ctx.seed);
    if (fingerprint == 0) fingerprint = fp;
    if (fp != fingerprint) {
      ++result->mismatches;
      std::printf("MISMATCH: %s trained a different policy\n", what);
    }
  };
  Tenants tenants = MakeTenants(w.tenants, ctx.seed);
  const HostCpu setup_host0 = ReadHostCpu();
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    ScopedSpan span(rec, "train", "serve.setup");
    service.reset();
    const int64_t t0 = NowNs();
    Trained trained = TrainPolicy(ctx.seed, &stream);
    service = NewService(&pool, false);
    policy = service->RegisterPolicy(std::move(trained.combiner));
    std::vector<double> us = CreateSessions(service.get(), policy, tenants);
    setup_s.push_back(SecondsBetween(t0, NowNs()));
    initialize_s.push_back(trained.initialize_s);
    create_us.insert(create_us.end(), us.begin(), us.end());
    check_policy(service->policy_combiner(policy), "a set-up repeat");
  }
  // The repeats are too short for /proc/stat's 10 ms ticks one by one, so
  // the steal share is taken over all of them.
  const double setup_steal = StealShare(setup_host0, ReadHostCpu());
  result->setup_s += Median(setup_s) * (1.0 - setup_steal);
  result->info["serve_setup_steal_share"] = std::to_string(setup_steal);
  std::printf("serve set-up: %.3f s median of %zu (policy training + %zu "
              "sessions), %.1f%% stolen\n",
              Median(setup_s), kSetupRepeats, w.tenants, 100.0 * setup_steal);

  ServedLog served(w.tenants);
  TrafficBuffers buffers;
  Target target;
  target.rec = rec;
  target.service = service.get();
  target.tenants = &tenants;
  target.stream = &stream;
  target.log = &served;
  target.observe = w.observe;

  // 40% of the budget goes to the fixed rates (split evenly), the rest to
  // the capacity probes, one after each pair of fixed-rate segments.
  const double fixed_s = 0.2 * ctx.seconds;
  const double segment_s = fixed_s / static_cast<double>(kSegments);
  const double probe_s = 0.6 * ctx.seconds / static_cast<double>(kSegments);
  constexpr double kWarmupS = 0.25;
  std::vector<RungResult> rungs;
  uint64_t seed = ctx.seed * 1000003ULL;
  auto run = [&](const std::string& label, double rate, double seconds) {
    const int64_t t0 = NowNs();
    rungs.push_back(RunRung(&target, &tenants, w, label, rate, seconds, ++seed,
                            &buffers));
    PrintRung(rungs.back());
    return std::make_pair(t0, NowNs());
  };
  {
    // Room for the largest segment, with MakeSchedule's own headroom.
    auto requests = [](double rate, double seconds) {
      return static_cast<size_t>(rate * seconds * 1.1) + 16;
    };
    buffers.Reserve(std::max(requests(w.low_rate, kWarmupS),
                             requests(w.high_rate, segment_s)),
                    stream.test_preds.cols());
  }

  // Warm-up: lazy set-up (workspaces, allocator arenas) finishes here.
  run("warmup", w.low_rate, kWarmupS);

  // The two fixed rates, in alternating segments spread over the whole
  // run with a capacity probe after each pair, so a slow stretch of the
  // host weighs on every metric alike. In a traced run every other high
  // segment is traced live; the rest give the untraced p50 the tracing
  // overhead is measured against. The traced run makes no probes.
  FixedRate low;
  FixedRate high;
  std::vector<double> traced_p50;
  std::vector<double> untraced_p50;
  std::vector<ProbeResult> probes;
  for (size_t segment = 0; segment < kSegments; ++segment) {
    run("low", w.low_rate, segment_s);
    low.Add(&rungs.back());
    const bool traced = rec != nullptr && segment % 2 == 0;
    target.rung_span = traced ? rec->NewId() : 0;
    const auto span = run("high", w.high_rate, segment_s);
    if (traced) {
      rec->Record("bench_predict_loop", "serve.rung:high", span.first,
                  span.second, 0, 0, 0, target.rung_span);
      target.rung_span = 0;
    }
    if (rec != nullptr) {
      (traced ? traced_p50 : untraced_p50).push_back(rungs.back().p50_us);
    }
    high.Add(&rungs.back());
    if (rec == nullptr) {
      probes.push_back(RunProbe(&target, &tenants, w, probe_s, ++seed,
                                &buffers));
      PrintProbe(probes.back());
    }
  }
  // Peak memory over set-up and all serving traffic: policy training,
  // sessions, and the service's state under load (queue backlog, observe
  // path). The generator's buffers were sized up front.
  result->E2E("peak_rss_mb", PeakRssMib(), "MiB");

  // The fixed rates and the probes feed fail_ratio: sheds, errors and
  // (below) wrong forecasts over everything attempted.
  for (const FixedRate* f : {&low, &high}) {
    result->attempted += f->attempted;
    result->failed += f->failures;
  }
  std::vector<double> probe_qps;
  std::string probe_json = "[";
  for (const ProbeResult& p : probes) {
    result->attempted += p.predicts + p.observes;
    result->failed += p.failures;
    probe_qps.push_back(p.qps);
    if (probe_json.size() > 1) probe_json += ',';
    probe_json += ProbeJson(p);
  }
  result->raw_json["probes"] = probe_json + "]";
  const Quantile low_p50 = low.P(0.5);
  const Quantile low_p99 = low.P(0.99);
  const Quantile high_p50 = high.P(0.5);
  const Quantile high_p99 = high.P(0.99);
  std::printf("fixed rates over %zu segments: low %.0f/s p50 %.1f us p99 "
              "%.1f us (n=%zu); high %.0f/s p50 %.1f us p99 %.1f us (n=%zu), "
              "cpu %.2f us/req\n",
              kSegments, w.low_rate, low_p50.value, low_p99.value,
              low_p99.samples, w.high_rate, high_p50.value, high_p99.value,
              high_p99.samples, high.CpuUsPerReq());
  std::printf("waves: low %.2f requests/wave, %.2f rows/actor pass; high "
              "%.2f requests/wave, %.2f rows/actor pass\n",
              low.RequestsPerWave(), low.RowsPerActorPass(),
              high.RequestsPerWave(), high.RowsPerActorPass());
  result->info["samples_low"] = std::to_string(low_p99.samples);
  result->info["samples_high"] = std::to_string(high_p99.samples);
  result->info["p99_supported"] =
      low_p99.supported && high_p99.supported ? "true" : "false";

  if (rec == nullptr) {
    const double max_qps = Median(probe_qps);
    std::printf("max_qps: %.0f predicts/s, median of %zu closed-loop probes\n",
                max_qps, probes.size());
    result->E2E("max_qps", max_qps, "req/s");
    result->Report("p50_us_low", low_p50.value, "us");
    result->Report("p99_us_low", low_p99.value, "us");
    result->Report("p50_us_high", high_p50.value, "us");
    result->Report("p99_us_high", high_p99.value, "us");
    result->E2E("cpu_us_per_req", high.CpuUsPerReq(), "us");
  } else {
    // The traced run's own latency quantiles (reported, not gated, in the
    // untraced runs).
    result->Layer("serve.p50_us_low", low_p50.value, "us");
    result->Layer("serve.p50_us_high", high_p50.value, "us");
    result->Layer("serve.p99_us_low", low_p99.value, "us");
    result->Layer("serve.p99_us_high", high_p99.value, "us");
    const double untraced = Median(untraced_p50);
    const double traced = Median(traced_p50);
    result->Layer("trace.overhead_pct", 100.0 * (traced - untraced) / untraced,
                  "%");
  }

  // Per-layer counts over the high rate.
  result->Layer("serve.requests_per_wave", high.RequestsPerWave(), "count");
  result->Layer("serve.rows_per_actor_pass", high.RowsPerActorPass(), "count");
  result->Layer("serve.queue_depth_max", high.depth_max, "count");
  result->Layer("serve.flush_ms", Median(high.flush_ms), "ms");
  result->Layer("serve.shed", static_cast<double>(low.shed + high.shed),
                "count");
  result->Layer("serve.drift_events", static_cast<double>(high.drift_events),
                "count");
  result->Layer("serve.stream_wraps", static_cast<double>(tenants.wraps),
                "count");
  result->Layer("serve.create_session_us", Median(create_us), "us");
  result->Layer("core.initialize_s", Median(initialize_s), "s");
  result->Layer("gen.lag_p99_us", Median(high.lag_p99_us), "us");
  if (rec != nullptr) {
    std::vector<double> admit = rec->DurationsNs("serve.admit");
    std::vector<double> residence = rec->DurationsNs("serve.residence");
    for (double& v : residence) v *= 1e-3;
    result->Layer("serve.admit_ns_p50", TailQuantile(&admit, 0.5).value, "ns");
    result->Layer("serve.admit_ns_p99", TailQuantile(&admit, 0.99).value, "ns");
    result->Layer("serve.residence_us_p50", TailQuantile(&residence, 0.5).value,
                  "us");
    result->Layer("serve.residence_us_p99",
                  TailQuantile(&residence, 0.99).value, "us");
  }
  service->Flush();
  core::EadrlCombiner* served_policy = service->policy_combiner(policy);
  std::string rung_json = "[";
  for (size_t i = 0; i < rungs.size(); ++i) {
    if (i > 0) rung_json += ',';
    rung_json += RungJson(rungs[i]);
  }
  result->raw_json["rungs"] = rung_json + "]";

  // ---- Untimed from here on: inline baseline (traced), output checks. ----
  std::unique_ptr<serve::ForecastService> inline_service;
  std::unique_ptr<par::ThreadPool> inline_pool;
  Tenants inline_tenants = MakeTenants(w.tenants, ctx.seed);
  ServedLog inline_served(w.tenants);
  if (rec != nullptr) {
    // The serial baseline direction-3 work must beat: the same high rung
    // on a 1-thread pool, where the generator drains inline.
    inline_pool = std::make_unique<par::ThreadPool>(1);
    inline_service = NewService(inline_pool.get(), false);
    Trained trained = TrainPolicy(ctx.seed, &stream);
    check_policy(trained.combiner.get(), "the inline baseline");
    const size_t id = inline_service->RegisterPolicy(std::move(trained.combiner));
    CreateSessions(inline_service.get(), id, inline_tenants);
    Target inline_target;
    inline_target.service = inline_service.get();
    inline_target.tenants = &inline_tenants;
    inline_target.stream = &stream;
    inline_target.log = &inline_served;
    inline_target.observe = w.observe;
    RungResult r = RunRung(&inline_target, &inline_tenants, w, "inline_high",
                           w.high_rate, fixed_s, seed, &buffers);
    PrintRung(r);
    result->Layer("par.inline_p50_us_high", r.p50_us, "us");
    result->Layer("par.inline_p99_us_high", r.p99_us.value, "us");
    result->attempted += r.attempted();
    result->failed += r.failures();
  }

  // Output check: every served forecast against a serial manual-drain
  // service over the same policy, tenant and step.
  par::ThreadPool serial(1);
  std::unique_ptr<serve::ForecastService> reference = NewService(&serial, true);
  {
    Trained trained = TrainPolicy(ctx.seed, &stream);
    check_policy(trained.combiner.get(), "the reference");
    const size_t id = reference->RegisterPolicy(std::move(trained.combiner));
    CreateSessions(reference.get(), id, tenants);
  }
  result->mismatches +=
      ReferenceCheck(reference.get(), false, tenants, stream, served, "served");
  if (inline_service != nullptr) {
    result->mismatches += ReferenceCheck(reference.get(), true, inline_tenants,
                                         stream, inline_served, "inline");
  }
  if (rec != nullptr) {
    RunLayerProbes(served_policy, reference->policy_combiner(0),
                   stream.test_preds, w.tenants, ctx.seed, rec, result);
  }
}

}  // namespace perfbench
