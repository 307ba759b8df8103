// Offline suite phase: the paper's pipeline (43-model pool, 11-combiner
// suite with EA-DRL training) over synthetic Table-I datasets, driven
// through exp::RunSuite on an nproc-worker pool. The serving layer is never
// called here, so a serve-only change must leave these numbers unchanged.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "exp/experiment.h"
#include "models/pool.h"
#include "par/thread_pool.h"
#include "stats.h"
#include "ts/datasets.h"
#include "ts/series.h"

namespace perfbench {
namespace {

namespace exp = eadrl::exp;
namespace models = eadrl::models;
namespace par = eadrl::par;
namespace ts = eadrl::ts;

// Four Table-I stand-ins of different sampling regimes (daily, river flow,
// half-hourly demand, 10-minute stock index), ~500 points each.
constexpr int kDatasetIds[] = {1, 5, 9, 18};
constexpr size_t kDatasetLength = 500;
// Timed repetitions of the nproc suite; the metric is their median, each
// less the time the hypervisor stole. Repetitions still differ by up to 15%
// (thread placement, a slow first one), which the median rides out.
constexpr size_t kSuiteRepeats = 5;
constexpr size_t kSetupRepeats = 5;

exp::ExperimentOptions SuiteOptions(uint64_t seed) {
  exp::ExperimentOptions opt;
  opt.seed = seed;
  opt.pool.fast_mode = false;  // the full 43-model pool.
  opt.pool.nn_epochs = 2;
  opt.eadrl.max_episodes = 4;
  opt.include_standalone = false;
  return opt;
}

std::vector<ts::Series> MakeDatasets(uint64_t seed) {
  std::vector<ts::Series> out;
  for (int id : kDatasetIds) {
    auto series = ts::MakeDataset(id, seed, kDatasetLength);
    if (!series.ok()) {
      std::fprintf(stderr, "dataset %d: %s\n", id,
                   series.status().ToString().c_str());
      std::exit(2);
    }
    out.push_back(std::move(*series));
  }
  return out;
}

struct SuiteOutcome {
  double wall_s = 0.0;
  double steal_share = 0.0;  ///< of the machine's busy time (StealShare).
  double cpu_s = 0.0;
  uint64_t digest = 0;
  size_t methods = 0;
  size_t bad_methods = 0;  ///< non-finite RMSE.
};

SuiteOutcome TimedSuite(const std::vector<ts::Series>& datasets,
                        const exp::ExperimentOptions& opt, size_t threads,
                        SpanRecorder* rec, const char* layer, uint64_t parent) {
  par::SetDefaultThreads(threads);
  par::ThreadPool& pool = par::DefaultPool();
  SuiteOutcome out;
  const double cpu0 = ProcessCpuSeconds();
  const HostCpu host0 = ReadHostCpu();
  const int64_t t0 = NowNs();
  std::vector<exp::DatasetResult> results = exp::RunSuite(datasets, opt, &pool);
  const int64_t t1 = NowNs();
  out.steal_share = StealShare(host0, ReadHostCpu());
  out.cpu_s = ProcessCpuSeconds() - cpu0;
  out.wall_s = SecondsBetween(t0, t1);
  if (rec != nullptr) rec->Record("suite_run", layer, t0, t1, parent);
  Digest digest;
  for (const exp::DatasetResult& d : results) {
    digest.Add(d.dataset);
    for (const exp::MethodRun& m : d.methods) {
      digest.Add(m.name);
      digest.Add(m.rmse);
      ++out.methods;
      if (!std::isfinite(m.rmse)) ++out.bad_methods;
    }
  }
  out.digest = digest.value();
  return out;
}

// Traced only: the grid driven stage by stage (PreparePool, then every
// combiner's RunCombiner) and the pool fit alone, on the nproc pool, plus
// each model's Fit run serially.
void StageProbes(const std::vector<ts::Series>& datasets,
                 const exp::ExperimentOptions& opt, SpanRecorder* rec,
                 uint64_t root, RunResult* result) {
  double prepare_s = 0.0;
  double combiners_s = 0.0;
  for (const ts::Series& series : datasets) {
    ScopedSpan ds(rec, "dataset_run", "exp.dataset", root);
    int64_t t0 = NowNs();
    exp::PoolRun pool = exp::PreparePool(series, opt);
    int64_t t1 = NowNs();
    rec->Record("pool_prepare", "exp.prepare_pool", t0, t1, ds.id());
    prepare_s += SecondsBetween(t0, t1);
    for (auto& combiner : exp::MakeCombinerSuite(opt)) {
      t0 = NowNs();
      exp::MethodRun run = exp::RunCombiner(combiner.get(), pool);
      t1 = NowNs();
      rec->Record("method_run", "exp.run_combiner", t0, t1, ds.id());
      combiners_s += SecondsBetween(t0, t1);
    }
  }
  result->Layer("exp.prepare_pool_s", prepare_s, "s");
  result->Layer("exp.combiners_online_s", combiners_s, "s");

  // Pool fitting on the first dataset's fit segment (what PreparePool fits
  // on: train minus the combiner validation tail).
  const ts::TrainTestSplit outer =
      ts::SplitTrainTest(datasets.front(), opt.train_ratio);
  const ts::TrainTestSplit inner =
      ts::SplitTrainTest(outer.train, 1.0 - opt.validation_ratio);
  models::PoolConfig cfg = opt.pool;
  cfg.seed = opt.seed;
  {
    const int64_t t0 = NowNs();
    auto fitted = models::FitPool(models::BuildPaperPool(cfg), inner.train,
                                  &par::DefaultPool());
    const int64_t t1 = NowNs();
    rec->Record("pool_fit", "models.fit_pool", t0, t1, root);
    result->Layer("models.fit_pool_s", SecondsBetween(t0, t1), "s");
  }
  double slowest = 0.0;
  double sum = 0.0;
  size_t dropped = 0;
  for (auto& model : models::BuildPaperPool(cfg)) {
    const int64_t t0 = NowNs();
    const bool ok = model->Fit(inner.train).ok();
    const int64_t t1 = NowNs();
    rec->Record("model_fit", "models.fit", t0, t1, root);
    const double s = SecondsBetween(t0, t1);
    slowest = std::max(slowest, s);
    sum += s;
    if (!ok) ++dropped;
  }
  result->Layer("models.fit_slowest_s", slowest, "s");
  result->Layer("models.fit_sum_s", sum, "s");
  result->Layer("models.dropped", static_cast<double>(dropped), "count");
}

}  // namespace

void RunSuitePhase(const RunContext& ctx, RunResult* result) {
  SpanRecorder* rec = ctx.recorder;
  ScopedSpan root(rec, "bench_suite_workload", "suite");
  const exp::ExperimentOptions opt = SuiteOptions(ctx.seed);

  std::vector<double> setup;
  std::vector<ts::Series> datasets;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    const int64_t t0 = NowNs();
    datasets = MakeDatasets(ctx.seed);
    setup.push_back(SecondsBetween(t0, NowNs()));
  }
  // Wall time as measured: the repeats together take a few of
  // /proc/stat's 10 ms ticks, too few for a steal share.
  const double setup_s = Median(setup);

  // Each repeat's wall time less the share the hypervisor stole; the
  // median counts.
  std::vector<double> walls;
  std::vector<double> unstolen;
  std::vector<double> steal;
  std::vector<double> busy;
  uint64_t digest = 0;
  size_t methods = 0;
  size_t bad = 0;
  for (size_t r = 0; r < kSuiteRepeats; ++r) {
    SuiteOutcome o =
        TimedSuite(datasets, opt, ctx.nproc, rec, "exp.run_suite", root.id());
    walls.push_back(o.wall_s);
    steal.push_back(o.steal_share);
    unstolen.push_back(o.wall_s * (1.0 - o.steal_share));
    busy.push_back(o.cpu_s / (o.wall_s * static_cast<double>(ctx.nproc)));
    if (r == 0) {
      digest = o.digest;
      methods = o.methods;
      bad = o.bad_methods;
    } else if (o.digest != digest) {
      ++result->mismatches;
      std::printf("suite: repeat %zu digest %016llx != first %016llx\n", r,
                  static_cast<unsigned long long>(o.digest),
                  static_cast<unsigned long long>(digest));
    }
  }
  // Reference: the same grid on a 1-thread pool. Its per-method RMSE digest
  // must match bit for bit; its wall time gives par.suite_speedup.
  const SuiteOutcome serial =
      TimedSuite(datasets, opt, 1, rec, "exp.run_suite_serial", root.id());
  if (serial.digest != digest) {
    ++result->mismatches;
    std::printf("suite: digest %016llx != 1-thread digest %016llx\n",
                static_cast<unsigned long long>(digest),
                static_cast<unsigned long long>(serial.digest));
  }

  const double wall = Median(unstolen);
  auto text = [](const std::vector<double>& values) {
    std::string out;
    for (double v : values) {
      if (!out.empty()) out += ' ';
      out += std::to_string(v);
    }
    return out;
  };
  result->info["suite_walls_s"] = text(walls);
  result->info["suite_steal_shares"] = text(steal);
  result->attempted += methods;
  result->failed += bad;
  result->E2E("suite_wall_s", wall, "s");
  result->info["suite_digest"] = std::to_string(digest);
  result->info["suite_methods"] = std::to_string(methods);
  result->info["suite_pool_threads"] = std::to_string(ctx.nproc);
  result->Layer("par.suite_speedup",
                serial.wall_s * (1.0 - serial.steal_share) / wall, "x");
  result->Layer("par.busy_share", Median(busy), "ratio");
  std::printf(
      "suite: %zu datasets x %zu methods, wall %.3f s less steal (median of "
      "%zu on %zu threads), 1-thread %.3f s, busy share %.2f, non-finite "
      "RMSE %zu\n",
      datasets.size(), methods / datasets.size(), wall, kSuiteRepeats,
      ctx.nproc, serial.wall_s, Median(busy), bad);

  par::SetDefaultThreads(ctx.nproc);
  if (rec != nullptr) StageProbes(datasets, opt, rec, root.id(), result);
  // Dataset generation is the suite's set-up; the serving phase adds its
  // own policy training and session creation.
  result->setup_s += setup_s;
  result->info["suite_setup_s"] = std::to_string(setup_s);
}

}  // namespace perfbench
