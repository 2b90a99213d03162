// Asynchronous LSH maintenance tests: the BackgroundWorker executor, the
// MaintainedTables double-buffer (readers never observe a half-swapped or
// half-built group), sync-vs-async_full equivalence, and train-while-
// rebuild stress (the TSan CI target).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "core/builder.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "lsh/factory.h"
#include "lsh/table_group.h"
#include "metrics/metrics.h"

namespace slide {
namespace {

using namespace std::chrono_literals;

// ---- BackgroundWorker -----------------------------------------------------

TEST(BackgroundWorker, RunsTasksInSubmissionOrder) {
  BackgroundWorker worker;
  EXPECT_TRUE(worker.idle());
  std::vector<int> order;
  std::mutex mutex;
  for (int i = 0; i < 16; ++i) {
    worker.submit([&, i] {
      std::lock_guard lock(mutex);
      order.push_back(i);
    });
  }
  worker.wait_idle();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(worker.completed(), 16u);
  EXPECT_TRUE(worker.idle());
}

TEST(BackgroundWorker, WaitIdleRethrowsTaskError) {
  BackgroundWorker worker;
  worker.submit([] { throw Error("maintenance task failed"); });
  EXPECT_THROW(worker.wait_idle(), Error);
  // The error is consumed; the worker keeps running tasks.
  std::atomic<bool> ran{false};
  worker.submit([&] { ran.store(true); });
  worker.wait_idle();
  EXPECT_TRUE(ran.load());
}

TEST(BackgroundWorker, DestructionDiscardsUnstartedTasks) {
  std::atomic<int> ran{0};
  {
    BackgroundWorker worker;
    for (int i = 0; i < 4; ++i) {
      worker.submit([&] {
        std::this_thread::sleep_for(20ms);
        ran.fetch_add(1);
      });
    }
    // Destruction waits for at most the running task; queued ones drop.
  }
  EXPECT_LT(ran.load(), 4);
}

// ---- MaintainedTables double-buffer ---------------------------------------

HashFamilyConfig small_family(int k = 3, int l = 8, Index dim = 16) {
  HashFamilyConfig cfg;
  cfg.kind = HashFamilyKind::kSimhash;
  cfg.k = k;
  cfg.l = l;
  cfg.dim = dim;
  return cfg;
}

std::vector<float> random_rows(Index count, Index dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> rows(static_cast<std::size_t>(count) * dim);
  for (auto& w : rows) w = rng.normal();
  return rows;
}

TEST(MaintainedTables, PublishSwapsAtomicallyAndPinProtectsReaders) {
  constexpr Index kCount = 256;
  constexpr Index kDim = 16;
  const auto rows = random_rows(kCount, kDim, 7);
  MaintainedTables tables(make_hash_family(small_family()),
                          {.range_pow = 6, .bucket_size = 32}, 11);
  tables.active_group().build_from_rows(rows.data(), kDim, kCount);

  // Readers continuously pin + scan buckets; the main thread rebuilds the
  // shadow and publishes as fast as it can. Every id a reader observes must
  // be a valid neuron id — a half-built or reused-under-us group would leak
  // stale/garbage ids or crash. (This test is TSan-clean without
  // suppressions: the swap path itself has no benign races.)
  std::atomic<bool> stop{false};
  std::atomic<long> observed{0};
  std::atomic<bool> bad{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      std::vector<std::uint32_t> keys(8);
      std::vector<std::span<const Index>> buckets;
      std::vector<float> q(kDim);
      while (!stop.load(std::memory_order_acquire)) {
        for (auto& v : q) v = rng.normal();
        tables.query_keys_dense(q.data(), keys);
        const MaintainedTables::Pin pin = tables.pin();
        pin->buckets(keys, buckets);
        for (const auto& bucket : buckets) {
          for (Index id : bucket) {
            if (id >= kCount) bad.store(true, std::memory_order_release);
            observed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  // Keep publishing until the readers have demonstrably raced a healthy
  // number of swaps (on a single-core box the 50 minimum rounds can finish
  // before a reader is even scheduled), with a generous cap as a backstop.
  int rounds = 0;
  while (rounds < 50 || (observed.load() < 10'000 && rounds < 100'000)) {
    LshTableGroup& shadow = tables.shadow_group();
    shadow.build_from_rows(rows.data(), kDim, kCount);
    tables.publish_shadow();
    ++rounds;
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_FALSE(bad.load());
  EXPECT_GT(observed.load(), 0);
  EXPECT_EQ(tables.publish_count(), static_cast<std::uint64_t>(rounds));
}

TEST(MaintainedTables, ShadowIsLazyUntilFirstAsyncUse) {
  MaintainedTables tables(make_hash_family(small_family()),
                          {.range_pow = 6, .bucket_size = 32}, 11);
  const std::size_t single = tables.memory_bytes();
  EXPECT_GT(single, 0u);
  tables.shadow_group();  // allocates the second buffer
  EXPECT_EQ(tables.memory_bytes(), 2 * single);
}

// ---- Policy plumbing ------------------------------------------------------

TEST(Maintenance, PolicyNamesRoundTrip) {
  for (auto policy : {MaintenancePolicy::kSync, MaintenancePolicy::kAsyncFull})
    EXPECT_EQ(parse_maintenance_policy(to_string(policy)), policy);
  EXPECT_THROW(parse_maintenance_policy("bogus"), Error);
  // The removed delta policy is a typed error, not a silent fallback.
  EXPECT_THROW(parse_maintenance_policy("async_delta"), Error);
}

SampledLayer::Config maintained_config(Index units, Index fan_in,
                                       Index target,
                                       MaintenancePolicy policy) {
  SampledLayer::Config cfg;
  cfg.units = units;
  cfg.fan_in = fan_in;
  cfg.activation = Activation::kSoftmax;
  cfg.hashed = true;
  cfg.family.kind = HashFamilyKind::kSimhash;
  cfg.family.k = 4;
  cfg.family.l = 8;
  cfg.table.range_pow = 8;
  cfg.table.bucket_size = 128;
  cfg.sampling.strategy = SamplingStrategy::kVanilla;
  cfg.sampling.target = target;
  cfg.maintenance = policy;
  cfg.seed = 1234;
  return cfg;
}

// ---- Equivalence: sync vs async_full --------------------------------------

TEST(Maintenance, SyncAndAsyncFullRebuildsProduceIdenticalTables) {
  // Same seeds, same weights, single-threaded builds: the only difference
  // is which buffer the rebuild lands in — the resulting tables must be
  // bit-equivalent bucket for bucket.
  SampledLayer sync_layer(
      maintained_config(300, 16, 30, MaintenancePolicy::kSync), 1, 1);
  SampledLayer async_layer(
      maintained_config(300, 16, 30, MaintenancePolicy::kAsyncFull), 1, 1);

  const long due = sync_layer.config().rebuild.initial_period;
  EXPECT_TRUE(sync_layer.maybe_rebuild(due, nullptr));
  EXPECT_TRUE(async_layer.maybe_rebuild(due, nullptr));
  async_layer.quiesce_maintenance();
  EXPECT_EQ(sync_layer.rebuild_count(), 1);
  EXPECT_EQ(async_layer.rebuild_count(), 1);
  EXPECT_EQ(async_layer.tables()->publish_count(), 1u);

  // Weights are identical (same init seed), so per-unit keys agree; compare
  // the full bucket contents each unit lands in.
  std::vector<std::uint32_t> keys(8);
  std::vector<std::span<const Index>> sync_buckets, async_buckets;
  for (Index u = 0; u < 300; ++u) {
    ASSERT_EQ(std::memcmp(sync_layer.weight_row(u), async_layer.weight_row(u),
                          16 * sizeof(float)),
              0);
    sync_layer.tables()->query_keys_dense(sync_layer.weight_row(u), keys);
    sync_layer.tables()->buckets(keys, sync_buckets);
    async_layer.tables()->buckets(keys, async_buckets);
    ASSERT_EQ(sync_buckets.size(), async_buckets.size());
    for (std::size_t t = 0; t < sync_buckets.size(); ++t) {
      ASSERT_EQ(std::vector<Index>(sync_buckets[t].begin(),
                                   sync_buckets[t].end()),
                std::vector<Index>(async_buckets[t].begin(),
                                   async_buckets[t].end()))
          << "unit " << u << " table " << t;
    }
  }
}

// ---- Network helpers --------------------------------------------------------

SyntheticDataset tiny_data(Index features, Index labels) {
  SyntheticConfig cfg;
  cfg.feature_dim = features;
  cfg.label_dim = labels;
  cfg.num_train = 256;
  cfg.num_test = 64;
  cfg.features_per_label = 8;
  cfg.active_per_label = 5;
  cfg.noise_features = 2;
  cfg.seed = 77;
  return make_synthetic_xc(cfg);
}

NetworkConfig maintained_network_config(const SyntheticDataset& data,
                                        MaintenancePolicy policy,
                                        long period = 1) {
  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 4;
  family.l = 8;
  NetworkConfig cfg = NetworkBuilder(data.train.feature_dim())
                          .dense(16)
                          .sampled(data.train.label_dim(), family, 16)
                          .maintenance(policy)
                          .max_batch(16)
                          .to_config();
  // Buckets sized so no insert can ever overflow (k=4 gives only 16
  // distinct fingerprints per table, and trained rows correlate).
  cfg.layers[0].table.range_pow = 6;
  cfg.layers[0].table.bucket_size = 4096;
  cfg.layers[0].rebuild.initial_period = period;
  cfg.layers[0].rebuild.decay = 0.0;
  return cfg;
}

// ---- Train-while-rebuild stress (the TSan CI target) ----------------------

class MaintenanceStress
    : public ::testing::TestWithParam<MaintenancePolicy> {};

TEST_P(MaintenanceStress, TrainingOverlapsBackgroundMaintenanceSafely) {
  const auto data = tiny_data(200, 512);
  NetworkConfig cfg = maintained_network_config(data, GetParam());
  Network net(cfg, 4);
  TrainerConfig tc;
  tc.batch_size = 16;
  tc.num_threads = 4;
  tc.learning_rate = 2e-3f;
  Trainer trainer(net, tc);
  // Maintenance fires every iteration while 4 HOGWILD threads sample from
  // the live tables — publishes and weight reads overlap training. 60
  // iterations is enough for dozens of swaps.
  trainer.train(data.train, 60);
  net.quiesce_maintenance();

  EXPECT_GT(net.output_layer().tables()->publish_count() +
                static_cast<std::uint64_t>(net.output_layer().rebuild_count()),
            0u);

  // The network must still be coherent: a final sync rebuild + exact
  // evaluation behaves like any freshly trained model.
  net.rebuild_all(&trainer.pool());
  const double acc =
      evaluate_p_at_1(net, data.test, trainer.pool(), {.exact = true});
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Policies, MaintenanceStress,
                         ::testing::Values(MaintenancePolicy::kAsyncFull),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// ---- Quiesce semantics ----------------------------------------------------

TEST(Maintenance, QuiesceWaitsForInFlightRebuild) {
  SampledLayer layer(
      maintained_config(2'000, 64, 50, MaintenancePolicy::kAsyncFull), 1, 1);
  const long due = layer.config().rebuild.initial_period;
  EXPECT_TRUE(layer.maybe_rebuild(due, nullptr));
  layer.quiesce_maintenance();
  EXPECT_EQ(layer.rebuild_count(), 1);
  EXPECT_EQ(layer.tables()->publish_count(), 1u);
  // Quiesce is idempotent and cheap when idle.
  layer.quiesce_maintenance();
  EXPECT_EQ(layer.rebuild_count(), 1);
}

}  // namespace
}  // namespace slide
