// Supporting micro-benchmarks (google-benchmark): the per-step costs behind
// Table III — policy inference, DDPG updates, replay sampling, drift
// detection and base-model prediction.

#include <benchmark/benchmark.h>

#include "baselines/dynamic_selection.h"
#include "bench_util.h"
#include "common/rng.h"
#include "core/eadrl.h"
#include "math/linalg.h"
#include "models/tree.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "rl/ddpg.h"
#include "rl/replay_buffer.h"

namespace {

void BM_DdpgActorInference(benchmark::State& state) {
  eadrl::rl::DdpgConfig cfg;
  cfg.state_dim = 10;
  cfg.action_dim = static_cast<size_t>(state.range(0));
  eadrl::rl::DdpgAgent agent(cfg);
  eadrl::math::Vec s(10, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.Act(s));
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_DdpgActorInference)->Arg(10)->Arg(43);

void BM_DdpgUpdate(benchmark::State& state) {
  eadrl::rl::DdpgConfig cfg;
  cfg.state_dim = 10;
  cfg.action_dim = 43;
  eadrl::rl::DdpgAgent agent(cfg);
  eadrl::Rng rng = eadrl::bench::BenchRng(1);
  std::vector<eadrl::rl::Transition> batch;
  for (int i = 0; i < 16; ++i) {
    eadrl::rl::Transition t;
    t.state.assign(10, rng.Uniform());
    t.action.assign(43, 1.0 / 43.0);
    t.reward = rng.Uniform(0, 44);
    t.next_state.assign(10, rng.Uniform());
    batch.push_back(std::move(t));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.Update(batch));
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_DdpgUpdate);

void BM_ReplaySampleMedianSplit(benchmark::State& state) {
  eadrl::rl::ReplayBuffer buffer(5000);
  eadrl::Rng rng = eadrl::bench::BenchRng(2);
  for (int i = 0; i < 5000; ++i) {
    eadrl::rl::Transition t;
    t.state = {0.0};
    t.action = {1.0};
    t.reward = rng.Uniform(0, 44);
    t.next_state = {0.0};
    buffer.Add(std::move(t));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(buffer.Sample(
        16, eadrl::rl::SamplingStrategy::kMedianSplit, rng));
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_ReplaySampleMedianSplit);

void BM_ReplaySampleUniform(benchmark::State& state) {
  eadrl::rl::ReplayBuffer buffer(5000);
  eadrl::Rng rng = eadrl::bench::BenchRng(3);
  for (int i = 0; i < 5000; ++i) {
    eadrl::rl::Transition t;
    t.state = {0.0};
    t.action = {1.0};
    t.reward = rng.Uniform(0, 44);
    t.next_state = {0.0};
    buffer.Add(std::move(t));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        buffer.Sample(16, eadrl::rl::SamplingStrategy::kUniform, rng));
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_ReplaySampleUniform);

void BM_TreePredict(benchmark::State& state) {
  eadrl::Rng rng = eadrl::bench::BenchRng(4);
  eadrl::math::Matrix x(500, 5);
  eadrl::math::Vec y(500);
  for (size_t i = 0; i < 500; ++i) {
    for (size_t j = 0; j < 5; ++j) x(i, j) = rng.Uniform(-1, 1);
    y[i] = x(i, 0) * x(i, 1);
  }
  eadrl::models::RegressionTree tree(eadrl::models::TreeParams{8, 3, 0});
  (void)tree.Fit(x, y);
  eadrl::math::Vec q{0.1, 0.2, 0.3, 0.4, 0.5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Predict(q));
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_TreePredict);

void BM_CholeskySolve(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  eadrl::Rng rng = eadrl::bench::BenchRng(5);
  eadrl::math::Matrix a(n, n);
  for (auto& v : a.data()) v = rng.Uniform(-1, 1);
  eadrl::math::Matrix spd = a.Transpose().MatMul(a);
  for (size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  eadrl::math::Vec b(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eadrl::math::CholeskySolve(spd, b));
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_CholeskySolve)->Arg(32)->Arg(128);

void BM_DemscOnlineStep(benchmark::State& state) {
  eadrl::Rng rng = eadrl::bench::BenchRng(6);
  const size_t m = 43;
  eadrl::math::Matrix preds(60, m);
  eadrl::math::Vec actuals(60);
  for (size_t t = 0; t < 60; ++t) {
    actuals[t] = rng.Uniform(0, 10);
    for (size_t i = 0; i < m; ++i) {
      preds(t, i) =
          actuals[t] + rng.Normal(0, 0.5 + 0.1 * static_cast<double>(i));
    }
  }
  eadrl::baselines::DemscCombiner demsc;
  (void)demsc.Initialize(preds, actuals);
  eadrl::math::Vec step(m, 5.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(demsc.Predict(step));
    demsc.Update(step, 5.0);
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_DemscOnlineStep);

// --- Observability hot-path overhead (counter/histogram/event costs). ---

void BM_ObsCounterInc(benchmark::State& state) {
  eadrl::obs::Counter counter;
  for (auto _ : state) {
    counter.Inc();
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(counter.Value());
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsHistogramObserve(benchmark::State& state) {
  eadrl::obs::Histogram hist(
      eadrl::obs::Histogram::DefaultLatencyBounds());
  double v = 1e-6;
  for (auto _ : state) {
    hist.Observe(v);
    v = v * 1.1;
    if (v > 1.0) v = 1e-6;
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(hist.Count());
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_ObsHistogramObserve);

// Disabled-sink event emission: the acceptance bar is < 5 ns per no-op
// (one relaxed atomic load + a predictable branch; the field list is never
// materialized).
void BM_ObsDisabledEventEmission(benchmark::State& state) {
  eadrl::obs::SetTelemetrySink(nullptr);
  double value = 0.25;
  for (auto _ : state) {
    EADRL_TELEMETRY("bench_event", {"value", value}, {"step", size_t{1}},
                    {"name", "noop"});
    benchmark::ClobberMemory();
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_ObsDisabledEventEmission);

void BM_ObsEnabledEventEmission(benchmark::State& state) {
  // Counterpart number for the sink-attached cost (in-memory sink).
  eadrl::obs::CollectingSink sink;
  eadrl::obs::SetTelemetrySink(&sink);
  double value = 0.25;
  for (auto _ : state) {
    EADRL_TELEMETRY("bench_event", {"value", value}, {"step", size_t{1}},
                    {"name", "noop"});
    if (sink.size() > 4096) (void)sink.TakeEvents();
  }
  eadrl::obs::SetTelemetrySink(nullptr);
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_ObsEnabledEventEmission);

}  // namespace

BENCHMARK_MAIN();
