// Traced-run probes of the layers under a served request, each timed around
// a public call: serve::SessionTable::Lookup, rl::DdpgAgent::ActBatch and
// Update, nn::Mlp::ForwardBatch, math::Matrix::MatMulTransposeBInto (the
// kernel behind every Dense forward) and core::EadrlCombiner::Predict.
// Every repetition is one span; a metric is the median span of its layer
// divided by the work in it.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "core/eadrl.h"
#include "math/matrix.h"
#include "nn/activation.h"
#include "nn/mlp.h"
#include "rl/ddpg.h"
#include "rl/transition.h"
#include "serve/session_table.h"
#include "stats.h"

namespace perfbench {

namespace math = eadrl::math;

namespace {

namespace serve = eadrl::serve;

constexpr size_t kReps = 7;

/// Times `reps` calls of `body`, each running `inner` iterations, as spans
/// of `layer`; returns the median seconds per iteration.
template <typename Body>
double TimeLayer(SpanRecorder* rec, const char* name, const std::string& layer,
                 uint64_t parent, size_t inner, Body&& body) {
  body();  // warm caches and workspaces.
  for (size_t r = 0; r < kReps; ++r) {
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < inner; ++i) body();
    rec->Record(name, layer, t0, NowNs(), parent);
  }
  return Median(rec->DurationsNs(layer)) * 1e-9 / static_cast<double>(inner);
}

math::Matrix RandomMatrix(size_t rows, size_t cols, eadrl::Rng* rng) {
  math::Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) m(r, c) = rng->Normal();
  }
  return m;
}

constexpr size_t kPeakLanes = 32;
constexpr size_t kPeakIters = 2000000;

/// 32 independent multiply-add chains held in registers (a local copy, so
/// nothing forces them through memory), enough to cover the latency of
/// the host's floating-point units.
void MulAddChains(double* state, double mul, double add) {
  double acc[kPeakLanes];
  for (size_t j = 0; j < kPeakLanes; ++j) acc[j] = state[j];
  for (size_t i = 0; i < kPeakIters; ++i) {
    for (size_t j = 0; j < kPeakLanes; ++j) acc[j] = acc[j] * mul + add;
  }
  for (size_t j = 0; j < kPeakLanes; ++j) state[j] = acc[j];
}

/// Multiply-add peak under the build's own compiler flags: what the kernels
/// could reach without new instruction sets.
double PeakGflops(SpanRecorder* rec, uint64_t parent, double seed_value) {
  double state[kPeakLanes];
  for (size_t j = 0; j < kPeakLanes; ++j) {
    state[j] = seed_value + static_cast<double>(j);
  }
  const double mul = 1.0 - 1e-9 * seed_value;
  const double s = TimeLayer(rec, "bench_predict_loop", "math.peak", parent, 1,
                             [&] { MulAddChains(state, mul, 1e-9); });
  double sink = 0.0;
  for (double a : state) sink += a;
  if (sink == 0.12345) std::printf("%g\n", sink);  // keeps the chains live.
  return 2.0 * kPeakLanes * kPeakIters / s * 1e-9;
}

}  // namespace

void RunLayerProbes(eadrl::core::EadrlCombiner* served,
                    eadrl::core::EadrlCombiner* reference,
                    const math::Matrix& member_preds, size_t tenants,
                    uint64_t seed, SpanRecorder* rec, RunResult* result) {
  ScopedSpan root(rec, "bench_predict_loop", "probes");
  eadrl::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const size_t state_dim = served->config().omega;

  // serve: a standalone session table at the workload's tenant count.
  {
    auto policy = std::make_shared<serve::Policy>();
    policy->fresh_state = reference->ExportOnlineState();
    serve::SessionTable table(serve::SessionTable::Options{});
    std::vector<std::string> names;
    for (size_t t = 0; t < tenants; ++t) {
      names.push_back(std::string("tenant-").append(std::to_string(t)));
      (void)table.Insert(names.back(), std::make_shared<serve::Session>(
                                           names.back(), policy, t, nullptr,
                                           0.005, 3.0));
    }
    std::vector<size_t> order(65536);
    for (size_t& i : order) i = rng.Index(tenants);
    size_t hits = 0;
    const double s = TimeLayer(rec, "serve_admission", "serve.lookup",
                               root.id(), 1, [&] {
                                 for (size_t i : order) {
                                   hits += table.Lookup(names[i]) != nullptr;
                                 }
                               });
    result->Layer("serve.lookup_ns", s * 1e9 / static_cast<double>(order.size()),
                  "ns");
  }

  // rl: the served policy's batched actor pass.
  for (size_t b : {size_t{1}, size_t{8}, size_t{64}}) {
    const math::Matrix states = RandomMatrix(b, state_dim, &rng);
    const std::string layer = std::string("rl.act_b").append(std::to_string(b));
    const double s = TimeLayer(rec, "predict", layer, root.id(), 2048 / b, [&] {
      const math::Matrix actions = served->agent()->ActBatch(states);
      (void)actions;
    });
    result->Layer(std::string("rl.act_us_per_row_b").append(std::to_string(b)),
                  s * 1e6 / static_cast<double>(b), "us");
  }

  // nn: the actor's shape as a standalone Mlp.
  {
    eadrl::Rng init(seed);
    eadrl::nn::Mlp mlp({10, 64, 64, 43}, eadrl::nn::Activation::kRelu,
                       eadrl::nn::Activation::kIdentity, init);
    const math::Matrix batch = RandomMatrix(64, 10, &rng);
    const double s = TimeLayer(rec, "predict", "nn.forward_b64", root.id(), 64,
                               [&] { (void)mlp.ForwardBatch(batch, false); });
    const double flop = 2.0 * 64 * (10 * 64 + 64 * 64 + 64 * 43);
    result->Layer("nn.forward_gflops_b64", flop / s * 1e-9, "GFLOP/s");
  }

  // math: the Dense-forward kernel at each actor layer shape, M = 64.
  for (const auto& [k, n] : {std::pair<size_t, size_t>{10, 64},
                             std::pair<size_t, size_t>{64, 64},
                             std::pair<size_t, size_t>{64, 43}}) {
    const math::Matrix a = RandomMatrix(64, k, &rng);
    const math::Matrix w = RandomMatrix(n, k, &rng);
    math::Matrix out;
    const std::string shape = std::string("64x")
                                  .append(std::to_string(k))
                                  .append("x")
                                  .append(std::to_string(n));
    const double s = TimeLayer(rec, "predict", std::string("math.matmul.").append(shape),
                               root.id(), 256,
                               [&] { a.MatMulTransposeBInto(w, &out); });
    result->Layer(std::string("math.matmul_gflops.").append(shape),
                  2.0 * 64.0 * static_cast<double>(k * n) / s * 1e-9,
                  "GFLOP/s");
  }
  result->Layer("math.peak_gflops",
                PeakGflops(rec, root.id(), static_cast<double>(seed % 7 + 1)),
                "GFLOP/s");

  // rl: one DDPG minibatch update at the served policy's shape.
  {
    eadrl::rl::DdpgConfig cfg;
    cfg.state_dim = state_dim;
    cfg.action_dim = served->active_models().size();
    cfg.batch_size = served->config().batch_size;
    cfg.seed = seed;
    eadrl::rl::DdpgAgent agent(cfg);
    std::vector<eadrl::rl::Transition> batch(cfg.batch_size);
    for (eadrl::rl::Transition& t : batch) {
      t.state = RandomMatrix(1, cfg.state_dim, &rng).Row(0);
      t.next_state = RandomMatrix(1, cfg.state_dim, &rng).Row(0);
      t.action = math::Vec(cfg.action_dim, 1.0 / static_cast<double>(cfg.action_dim));
      t.reward = rng.Normal();
    }
    const double s = TimeLayer(rec, "ddpg_update", "rl.ddpg_update", root.id(),
                               16, [&] { (void)agent.Update(batch); });
    result->Layer("rl.ddpg_update_ms", s * 1e3, "ms");
  }

  // core: the serial reference step, EadrlCombiner::Predict.
  {
    size_t row = 0;
    const double s = TimeLayer(rec, "predict", "core.predict", root.id(), 256,
                               [&] {
                                 (void)reference->Predict(member_preds.Row(row));
                                 row = (row + 1) % member_preds.rows();
                               });
    result->Layer("core.predict_us", s * 1e6, "us");
  }
}

}  // namespace perfbench
