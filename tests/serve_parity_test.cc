// Batched-vs-serial parity for the serving layer: a multi-tenant replay
// through ForecastService — requests coalesced into cross-tenant waves, one
// batched actor pass per policy group — must be BIT-IDENTICAL to evaluating
// each tenant serially on its own EadrlCombiner. This is the end-to-end form
// of the PR-7 ActBatch row guarantee: batching is a scheduling decision, not
// a numeric one. Comparisons use EXPECT_EQ (exact ==), not the 4-ULP
// EXPECT_DOUBLE_EQ.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/eadrl.h"
#include "exp/experiment.h"
#include "math/vec.h"
#include "serve/service.h"
#include "ts/datasets.h"
#include "ts/scaler.h"

namespace eadrl {
namespace {

struct Trained {
  exp::PoolRun pool;
  core::EadrlConfig config;
  std::string policy_path;
};

const Trained& GetTrained() {
  static Trained* trained = [] {
    auto* t = new Trained;
    auto series = ts::MakeDataset(2, 42, 160);
    EXPECT_TRUE(series.ok());
    exp::ExperimentOptions opt;
    opt.seed = 42;
    opt.pool.fast_mode = true;
    opt.pool.nn_epochs = 2;
    opt.eadrl.max_episodes = 2;
    opt.eadrl.restarts = 1;
    t->pool = exp::PreparePool(*series, opt);
    t->config = opt.eadrl;
    core::EadrlCombiner combiner(opt.eadrl);
    EXPECT_TRUE(combiner.Initialize(t->pool.val_preds, t->pool.val_actuals).ok());
    t->policy_path = ::testing::TempDir() + "serve_parity_policy.eadrl";
    EXPECT_TRUE(combiner.SavePolicy(t->policy_path).ok());
    return t;
  }();
  return *trained;
}

/// A fresh combiner restored from the shared saved policy: identical actor
/// weights AND identical initial online window.
std::unique_ptr<core::EadrlCombiner> NewCombiner() {
  auto combiner = std::make_unique<core::EadrlCombiner>(GetTrained().config);
  EXPECT_TRUE(combiner->LoadPolicy(GetTrained().policy_path).ok());
  return combiner;
}

math::Vec Preds(size_t step) {
  const auto& pool = GetTrained().pool;
  return pool.test_preds.Row(step % pool.test_preds.rows());
}

double Actual(size_t step) {
  const auto& pool = GetTrained().pool;
  return pool.test_actuals[step % pool.test_actuals.size()];
}

TEST(ServeParityTest, BatchedReplayMatchesSerialReferenceBitExact) {
  constexpr size_t kTenants = 7;
  constexpr size_t kRounds = 12;

  serve::ServeConfig config;
  config.manual_drain = true;
  config.max_batch = 64;
  // PR 10: run with the full observability stack live — SLO tracking with a
  // deliberately impossible threshold (every predict classified bad, breach
  // edges firing mid-replay) and per-tenant/per-policy drill-down with a cap
  // below kTenants (overflow path active). Instrumentation sits outside the
  // numeric path, so parity must remain bit-exact regardless.
  config.slo.enabled = true;
  config.slo.latency_threshold_seconds = 1e-12;
  config.tenant_drilldown = 3;
  config.policy_drilldown = 2;
  serve::ForecastService service(config);
  // Two registered policies (same weights, separate agent workspaces):
  // waves must group rows per policy, so every wave here runs two batched
  // actor passes and parity covers the grouping path too.
  const size_t policy_a = service.RegisterPolicy(NewCombiner());
  const size_t policy_b = service.RegisterPolicy(NewCombiner());

  std::vector<ts::StandardScaler> scalers;
  std::vector<bool> scaled;
  std::vector<std::string> tenants;
  for (size_t t = 0; t < kTenants; ++t) {
    tenants.push_back("tenant-" + std::to_string(t));
    scaled.push_back(t % 2 == 1);
    scalers.push_back(ts::StandardScaler::FromMoments(
        10.0 * static_cast<double>(t) - 5.0,
        1.0 + 0.25 * static_cast<double>(t)));
    const size_t policy_id = t < 4 ? policy_a : policy_b;
    ASSERT_TRUE(service
                    .CreateSession(tenants[t], policy_id,
                                   scaled[t] ? &scalers[t] : nullptr)
                    .ok());
  }

  // Replay: per round every tenant enqueues one or (every third round) two
  // predicts before a single drain — so waves carry up to kTenants rows and
  // double-enqueue rounds split into two full waves, varying occupancy.
  // Observes interleave to prove drift tracking never perturbs predictions.
  std::vector<std::vector<double>> served(kTenants);
  size_t failures = 0;
  auto done_for = [&served, &failures](size_t t) {
    return [&served, &failures, t](StatusOr<double> result) {
      if (!result.ok()) {
        ++failures;
        return;
      }
      served[t].push_back(*result);
    };
  };
  size_t step = 0;
  std::vector<size_t> steps_per_tenant(kTenants, 0);
  for (size_t round = 0; round < kRounds; ++round) {
    const size_t repeats = round % 3 == 2 ? 2 : 1;
    for (size_t rep = 0; rep < repeats; ++rep) {
      for (size_t t = 0; t < kTenants; ++t) {
        ASSERT_TRUE(
            service
                .PredictAsync(tenants[t], Preds(step + t * 31), done_for(t))
                .ok());
      }
      ++step;
      for (size_t t = 0; t < kTenants; ++t) ++steps_per_tenant[t];
    }
    if (round % 2 == 1) {
      for (size_t t = 0; t < kTenants; ++t) {
        ASSERT_TRUE(
            service.ObserveActualAsync(tenants[t], Actual(round + t)).ok());
      }
    }
    while (service.DrainOnce()) {
    }
  }
  ASSERT_EQ(failures, 0u);

  // Occupancy sanity: this replay actually exercised cross-tenant batching.
  const serve::ServeStats stats = service.Stats();
  EXPECT_GT(stats.MeanActBatchRows(), 1.0);
  EXPECT_GE(stats.act_batches, 2u * kRounds);  // two policy groups per wave.

  // The instrumentation was genuinely live, not just configured: the
  // impossible latency SLO breached and the capped drill-down overflowed.
  ASSERT_NE(service.slo_tracker(), nullptr);
  EXPECT_GE(service.slo_tracker()->Report().TotalBreaches(), 1u);
  ASSERT_NE(service.tenant_drilldown(), nullptr);
  EXPECT_LE(service.tenant_drilldown()->TrackedLabels(), 3u);
  EXPECT_GT(service.tenant_drilldown()->Overflow(), 0u);

  // Serial reference: one private combiner per tenant, the exact same input
  // sequence, scaling applied with the same StandardScaler ops the service
  // uses (Transform in, Inverse out).
  for (size_t t = 0; t < kTenants; ++t) {
    auto reference = NewCombiner();
    ASSERT_EQ(served[t].size(), steps_per_tenant[t]);
    size_t ref_step = 0;
    for (size_t round = 0; round < kRounds; ++round) {
      const size_t repeats = round % 3 == 2 ? 2 : 1;
      for (size_t rep = 0; rep < repeats; ++rep) {
        const math::Vec input = Preds(ref_step + t * 31);
        double expected;
        if (scaled[t]) {
          expected =
              scalers[t].Inverse(reference->Predict(scalers[t].Transform(input)));
        } else {
          expected = reference->Predict(input);
        }
        EXPECT_EQ(served[t][ref_step], expected)
            << "tenant " << t << " step " << ref_step
            << ": batched serving diverged from serial evaluation";
        ++ref_step;
      }
    }
  }
}

}  // namespace
}  // namespace eadrl
