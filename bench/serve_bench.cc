// Serving-layer benchmarks (google-benchmark): the multi-tenant hot path in
// isolation — session-table lookup under striping, batching-queue
// enqueue/drain overhead, blocking single-tenant predicts, and the
// cross-tenant batched wave at increasing occupancy (the number that should
// amortize: per-request cost falling as more tenants share one actor pass).
//
// Services here run manual_drain so each benchmark iteration pumps exactly
// one deterministic wave on the calling thread — no pool scheduling noise.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "core/eadrl.h"
#include "exp/experiment.h"
#include "serve/batching_queue.h"
#include "serve/service.h"
#include "serve/session_table.h"

namespace {

using eadrl::core::EadrlCombiner;
using eadrl::serve::BatchingQueue;
using eadrl::serve::ForecastService;
using eadrl::serve::Policy;
using eadrl::serve::Request;
using eadrl::serve::ServeConfig;
using eadrl::serve::Session;
using eadrl::serve::SessionTable;

constexpr size_t kMaxWave = 64;

struct TrainedFixture {
  eadrl::exp::PoolRun pool;
  eadrl::core::EadrlConfig eadrl_config;
};

const TrainedFixture& Fixture() {
  static TrainedFixture* fixture = [] {
    auto* f = new TrainedFixture;
    eadrl::ts::Series series = eadrl::bench::BenchSeries(2, 200);
    eadrl::exp::ExperimentOptions opt;
    opt.seed = eadrl::bench::BenchSeed();
    opt.pool.fast_mode = true;
    opt.pool.nn_epochs = 2;
    opt.eadrl.max_episodes = 2;
    f->pool = eadrl::exp::PreparePool(series, opt);
    f->eadrl_config = opt.eadrl;
    return f;
  }();
  return *fixture;
}

std::unique_ptr<EadrlCombiner> TrainedCombiner() {
  const TrainedFixture& f = Fixture();
  auto combiner = std::make_unique<EadrlCombiner>(f.eadrl_config);
  EADRL_CHECK(
      combiner->Initialize(f.pool.val_preds, f.pool.val_actuals).ok());
  return combiner;
}

/// One shared manual-drain service with kMaxWave resident tenants — shared
/// across benchmarks so the (expensive) policy training happens once.
ForecastService& SharedService() {
  static ForecastService* service = [] {
    ServeConfig config;
    config.manual_drain = true;
    config.max_queue = 1u << 16;
    config.max_batch = kMaxWave;
    auto* s = new ForecastService(config);
    const size_t policy_id = s->RegisterPolicy(TrainedCombiner());
    for (size_t t = 0; t < kMaxWave; ++t) {
      EADRL_CHECK(
          s->CreateSession("bench-" + std::to_string(t), policy_id).ok());
    }
    return s;
  }();
  return *service;
}

/// A policy whose sessions never run predicts: table/queue benches need
/// Session objects, not a trained network.
std::shared_ptr<Policy> StubPolicy() {
  auto policy = std::make_shared<Policy>();
  policy->fresh_state.window.assign(10, 0.0);
  return policy;
}

void BM_SessionTableLookup(benchmark::State& state) {
  const size_t sessions = static_cast<size_t>(state.range(0));
  SessionTable::Options options;
  options.shards = 16;
  SessionTable table(options);
  auto policy = StubPolicy();
  std::vector<std::string> names;
  names.reserve(sessions);
  for (size_t i = 0; i < sessions; ++i) {
    names.push_back("tenant-" + std::to_string(i));
    EADRL_CHECK(table
                    .Insert(names.back(),
                            std::make_shared<Session>(names.back(), policy, i,
                                                      nullptr, 0.005, 3.0))
                    .ok());
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Lookup(names[i]));
    i = (i + 1) % sessions;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_SessionTableLookup)->Arg(64)->Arg(1024);

void BM_SessionTableChurn(benchmark::State& state) {
  // Insert + LRU-evict churn at capacity: the resident-set management cost.
  SessionTable::Options options;
  options.shards = 8;
  options.max_sessions = 256;
  SessionTable table(options);
  auto policy = StubPolicy();
  uint64_t next = 0;
  for (auto _ : state) {
    const std::string name = "tenant-" + std::to_string(next);
    EADRL_CHECK(table
                    .Insert(name, std::make_shared<Session>(
                                      name, policy, next, nullptr, 0.005, 3.0))
                    .ok());
    ++next;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_SessionTableChurn);

// Enqueue `batch` requests, then drain them as one batch. The drain
// includes the queue-delay record (two clock reads per batch plus one
// windowed observation per request).
void BM_BatchingQueueEnqueueDrain(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  BatchingQueue::Options options;
  options.manual_drain = true;
  options.max_queue = batch * 2;
  size_t drained = 0;
  BatchingQueue queue(options, [&drained](std::vector<Request> requests) {
    drained += requests.size();
  });
  auto policy = StubPolicy();
  auto session =
      std::make_shared<Session>("tenant-0", policy, 1, nullptr, 0.005, 3.0);
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) {
      Request request;
      request.kind = Request::Kind::kObserve;
      request.session = session;
      EADRL_CHECK(queue.TryEnqueue(std::move(request)));
    }
    benchmark::DoNotOptimize(queue.DrainOnce());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
  state.counters["drained"] = static_cast<double>(drained);
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_BatchingQueueEnqueueDrain)->Arg(1)->Arg(16)->Arg(64);

void BM_ServePredictBlocking(benchmark::State& state) {
  // Single-tenant end-to-end: admission + one-request wave + actor pass.
  ForecastService& service = SharedService();
  const TrainedFixture& f = Fixture();
  const size_t rows = f.pool.test_preds.rows();
  size_t t = 0;
  for (auto _ : state) {
    eadrl::StatusOr<double> out =
        service.Predict("bench-0", f.pool.test_preds.Row(t % rows));
    EADRL_CHECK(out.ok());
    benchmark::DoNotOptimize(*out);
    ++t;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_ServePredictBlocking);

void BM_ServeBatchedWave(benchmark::State& state) {
  // B tenants' predicts coalesced into one wave → one ActBatch of B rows.
  // Per-item time should fall as B grows: the cross-tenant batching win.
  const size_t wave = static_cast<size_t>(state.range(0));
  ForecastService& service = SharedService();
  const TrainedFixture& f = Fixture();
  const size_t rows = f.pool.test_preds.rows();
  std::vector<std::string> tenants;
  tenants.reserve(wave);
  for (size_t b = 0; b < wave; ++b) {
    tenants.push_back("bench-" + std::to_string(b));
  }
  size_t t = 0;
  size_t completed = 0;
  for (auto _ : state) {
    for (size_t b = 0; b < wave; ++b) {
      EADRL_CHECK(service
                      .PredictAsync(tenants[b], f.pool.test_preds.Row(t % rows),
                                    [&completed](eadrl::StatusOr<double> r) {
                                      EADRL_CHECK(r.ok());
                                      ++completed;
                                    })
                      .ok());
    }
    EADRL_CHECK(service.DrainOnce());
    ++t;
  }
  EADRL_CHECK(completed == static_cast<size_t>(state.iterations()) * wave);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(wave));
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_ServeBatchedWave)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
