// Dynamic label lifecycle tests: online growth (add_units) and retirement
// (retire_units tombstones) of output neurons in monolithic and sharded
// layers; checkpoint-v5 round-trips (appended rows + tombstone
// persistence, shard-count invariance); retriever memory accounting in
// Network::memory_footprint; exact top-k over the grown label set; the
// InferenceEngine online-update API; and churn-while-serving stress (the
// TSan CI target).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/builder.h"
#include "core/serialize.h"
#include "core/sharded_layer.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "http_client.h"
#include "metrics/prometheus.h"
#include "serve/engine.h"

namespace slide {
namespace {

using namespace std::chrono_literals;

SyntheticDataset tiny_data(std::uint64_t seed = 911) {
  SyntheticConfig cfg;
  cfg.feature_dim = 64;
  cfg.label_dim = 48;
  cfg.num_train = 200;
  cfg.num_test = 50;
  cfg.features_per_label = 8;
  cfg.active_per_label = 5;
  cfg.seed = seed;
  return make_synthetic_xc(cfg);
}

HashFamilyConfig small_family() {
  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 4;
  family.l = 10;
  return family;
}

NetworkConfig net_config(const SyntheticDataset& data, int shards = 0,
                         MaintenancePolicy policy = MaintenancePolicy::kSync) {
  NetworkBuilder b(data.train.feature_dim());
  b.dense(16).sampled(data.train.label_dim(), small_family(), 16);
  b.table({.range_pow = 8, .bucket_size = 32});
  b.maintenance(policy);
  if (shards > 0) b.shards(shards);
  b.max_batch(32).seed(123);
  return b.to_config();
}

/// The net_config shape with a dense softmax output: no hashed layer, so
/// no LSH tables anywhere.
NetworkConfig dense_output_config(const SyntheticDataset& data) {
  NetworkBuilder b(data.train.feature_dim());
  b.dense(16).dense(data.train.label_dim(), Activation::kSoftmax);
  return b.max_batch(32).seed(123).to_config();
}

void train(Network& net, const SyntheticDataset& data, long iterations,
           int threads = 2) {
  TrainerConfig tcfg;
  tcfg.batch_size = 16;
  tcfg.num_threads = threads;
  tcfg.learning_rate = 1e-2f;
  Trainer trainer(net, tcfg);
  trainer.train(data.train, iterations);
}

// ---------------------------------------------------------------------------
// Growth
// ---------------------------------------------------------------------------

TEST(Churn, AddUnitsGrowsOutputAndNewLabelsAreRetrievable) {
  const auto data = tiny_data();
  Network net(net_config(data), 2);
  train(net, data, 20);
  const Index before = net.output_dim();
  const Index first = net.add_output_units(8);
  EXPECT_EQ(first, before);
  EXPECT_EQ(net.output_dim(), before + 8);
  EXPECT_EQ(net.output_layer().appended_units(), 8);
  // The stored config tracks the live width (clones, checkpoints).
  EXPECT_EQ(net.config().layers.back().units, before + 8);

  // New rows must be scorable through the exact path immediately, and the
  // sampled path must not crash on the wider universe.
  InferenceContext ctx(net, 7);
  const auto exact = net.predict_topk(data.test[0].features,
                                      ctx, static_cast<int>(before + 8),
                                      /*exact=*/true);
  EXPECT_EQ(exact.size(), static_cast<std::size_t>(before + 8));
  const auto sampled = net.predict_topk(data.test[0].features, ctx, 5);
  for (Index label : sampled) EXPECT_LT(label, before + 8);

  // Training straight through the grown width must work (labels may now
  // reference the new units).
  train(net, data, 5);
}

TEST(Churn, AddUnitsRejectsUnhashedAndNonPositive) {
  const auto data = tiny_data();
  Network net(net_config(data), 2);
  EXPECT_THROW(net.add_output_units(0), Error);
  Network dense_net(dense_output_config(data), 2);
  EXPECT_THROW(dense_net.add_output_units(4), Error);
}

TEST(Churn, AddUnitsSplicesEachNewIdIntoExactlyItsBuckets) {
  const auto data = tiny_data();
  for (MaintenancePolicy policy :
       {MaintenancePolicy::kSync, MaintenancePolicy::kAsyncFull}) {
    NetworkConfig cfg = net_config(data, 0, policy);
    cfg.layers.back().table.bucket_size = 512;  // nothing ever fills up
    Network net(cfg, 2);
    train(net, data, 20);
    net.quiesce_maintenance();
    const SampledLayer& out = net.output_layer();
    const MaintainedTables& tables = *out.tables();
    std::vector<std::size_t> stored(static_cast<std::size_t>(tables.l()));
    for (int t = 0; t < tables.l(); ++t)
      stored[static_cast<std::size_t>(t)] = tables.table(t).total_stored();

    constexpr Index kNew = 8;
    const Index first = net.add_output_units(kNew);
    ASSERT_EQ(tables.active().health().saturated, 0u);
    // Every table gained exactly the new ids, each in the bucket its row
    // hashes to; so each sits there once and nowhere else.
    std::vector<std::uint32_t> keys(static_cast<std::size_t>(tables.l()));
    std::vector<std::span<const Index>> buckets;
    for (int t = 0; t < tables.l(); ++t)
      EXPECT_EQ(tables.table(t).total_stored(),
                stored[static_cast<std::size_t>(t)] + kNew)
          << to_string(policy);
    for (Index u = first; u < first + kNew; ++u) {
      tables.query_keys_dense(out.weight_row(u), keys);
      tables.buckets(keys, buckets);
      for (std::size_t t = 0; t < buckets.size(); ++t)
        EXPECT_EQ(std::count(buckets[t].begin(), buckets[t].end(), u), 1)
            << to_string(policy) << " unit " << u << " table " << t;
    }
  }
}

// ---------------------------------------------------------------------------
// Retirement
// ---------------------------------------------------------------------------

TEST(Churn, RetiredUnitsVanishFromTopkOnEveryBackend) {
  const auto data = tiny_data();
  Network net(net_config(data), 2);
  train(net, data, 30);
  InferenceContext ctx(net, 7);
  const auto before =
      net.predict_topk(data.test[0].features, ctx, 3, /*exact=*/true);
  ASSERT_FALSE(before.empty());
  const Index victim = before[0];

  net.retire_output_units(std::vector<Index>{victim});
  EXPECT_EQ(net.output_layer().retired_count(), 1);
  EXPECT_EQ(net.output_layer().retired_unit_ids(),
            std::vector<Index>{victim});

  // The exact scan and the LSH sampler both mask the tombstoned id.
  for (std::size_t i = 0; i < 10; ++i) {
    const auto exact =
        net.predict_topk(data.test[i].features, ctx, 10, /*exact=*/true);
    EXPECT_EQ(std::count(exact.begin(), exact.end(), victim), 0);
    const auto sampled = net.predict_topk(data.test[i].features, ctx, 10);
    EXPECT_EQ(std::count(sampled.begin(), sampled.end(), victim), 0);
  }

  // Rows are masked, not compacted: the other ids are unchanged.
  EXPECT_EQ(net.output_dim(), data.train.label_dim());
  EXPECT_THROW(
      net.retire_output_units(std::vector<Index>{net.output_dim()}), Error);
}

// A retire batch is all or nothing on every layer: an out-of-range id
// anywhere in it throws before a single id is tombstoned.
enum class RetireLayout { kMonolithic, kShardedS2 };

class ChurnRetireBatch : public ::testing::TestWithParam<RetireLayout> {};

TEST_P(ChurnRetireBatch, OutOfRangeIdRetiresNothing) {
  NetworkBuilder b(/*input_dim=*/64);
  b.dense(16).sampled(/*units=*/61, small_family(), 16);
  b.table({.range_pow = 8, .bucket_size = 32});
  if (GetParam() == RetireLayout::kShardedS2) b.shards(2);
  Network net(b.max_batch(8).seed(123).to_config(), 1);
  const Layer& out = net.stack(net.stack_depth() - 1);
  EXPECT_THROW(
      net.retire_output_units(std::vector<Index>{3, 40, Index{1} << 30}),
      Error);
  EXPECT_EQ(out.retired_count(), 0);
  EXPECT_TRUE(out.retired_unit_ids().empty());

  // The same ids without the bad one still retire.
  net.retire_output_units(std::vector<Index>{3, 40});
  EXPECT_EQ(out.retired_unit_ids(), (std::vector<Index>{3, 40}));
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, ChurnRetireBatch,
    ::testing::Values(RetireLayout::kMonolithic, RetireLayout::kShardedS2),
    [](const ::testing::TestParamInfo<RetireLayout>& info) {
      switch (info.param) {
        case RetireLayout::kMonolithic:
          return std::string("Monolithic");
        case RetireLayout::kShardedS2:
          return std::string("ShardedS2");
      }
      return std::string("Unknown");
    });

// ---------------------------------------------------------------------------
// Checkpoint v5: tombstone persistence + growth round-trips (satellite 2)
// ---------------------------------------------------------------------------

TEST(Churn, RetireSaveLoadRoundTripAllBackends) {
  const auto data = tiny_data();
  Network net(net_config(data), 2);
  train(net, data, 30);
  const std::vector<Index> victims = {3, 17, 40};
  net.retire_output_units(victims);

  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_weights(net, buffer);
  Network restored(net_config(data), 2);
  load_weights(restored, buffer);

  // The mask survived the reboot: removed ids must NOT resurrect, through
  // the exact scan or the rebuilt LSH tables.
  EXPECT_EQ(restored.output_layer().retired_count(), 3);
  EXPECT_EQ(restored.output_layer().retired_unit_ids(), victims);
  InferenceContext ctx(restored, 7);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto exact = restored.predict_topk(data.test[i].features, ctx, 10,
                                             /*exact=*/true);
    const auto sampled = restored.predict_topk(data.test[i].features, ctx, 10);
    for (Index victim : victims) {
      EXPECT_EQ(std::count(exact.begin(), exact.end(), victim), 0);
      EXPECT_EQ(std::count(sampled.begin(), sampled.end(), victim), 0);
    }
  }
}

TEST(Churn, GrownCheckpointLoadsIntoOriginalConfigAndAcrossShardCounts) {
  const auto data = tiny_data();
  NetworkConfig cfg = net_config(data, /*shards=*/2);
  Network src(cfg, 2);
  train(src, data, 30);
  src.add_output_units(6);
  src.retire_output_units(std::vector<Index>{5, 11});
  train(src, data, 5);
  src.quiesce_maintenance();

  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_weights(src, buffer);
  const std::string bytes = buffer.str();

  InferenceContext src_ctx(src, 7);
  std::vector<std::vector<Index>> want;
  for (std::size_t i = 0; i < 20; ++i)
    want.push_back(src.predict_topk(data.test[i].features, src_ctx, 5,
                                    /*exact=*/true));

  // A network built from the ORIGINAL (pre-growth) config re-grows on
  // load; shard count of the target may differ from the writer's
  // (checkpoint-v3 scatter), and the tombstones must land either way.
  for (int shards : {0, 2, 3}) {
    NetworkConfig target = net_config(data, shards);
    std::stringstream in(bytes);
    Network restored(target, 2);
    load_weights(restored, in);
    EXPECT_EQ(restored.output_dim(), data.train.label_dim() + 6)
        << shards << " shards";
    const Layer& out = restored.stack(restored.stack_depth() - 1);
    EXPECT_EQ(out.retired_count(), 2);
    EXPECT_EQ(out.retired_unit_ids(), (std::vector<Index>{5, 11}));
    InferenceContext ctx(restored, 7);
    for (std::size_t i = 0; i < 20; ++i) {
      EXPECT_EQ(restored.predict_topk(data.test[i].features, ctx, 5,
                                      /*exact=*/true),
                want[i])
          << shards << " shards, sample " << i;
    }
  }

  // Pre-v5 guarantee: a genuinely mismatched width still throws.
  SyntheticConfig wide_cfg;
  wide_cfg.feature_dim = data.train.feature_dim();
  wide_cfg.label_dim = data.train.label_dim() + 32;
  wide_cfg.num_train = 10;
  wide_cfg.num_test = 2;
  wide_cfg.seed = 1;
  const auto wide = make_synthetic_xc(wide_cfg);
  Network too_wide(net_config(wide), 2);
  std::stringstream in(bytes);
  EXPECT_THROW(load_weights(too_wide, in), Error);
}

// ---------------------------------------------------------------------------
// Memory accounting (satellite 1)
// ---------------------------------------------------------------------------

TEST(Churn, FootprintIncludesRetrieverBytes) {
  const auto data = tiny_data();
  // The LSH buckets must show up in the footprint; a report without
  // retriever_bytes silently drops them.
  Network net(net_config(data), 2);
  const MemoryFootprint f = net.memory_footprint();
  EXPECT_GT(f.retriever_bytes, 0u);
  // A dense output layer scores every unit: no index to report.
  Network dense(dense_output_config(data), 2);
  EXPECT_EQ(dense.memory_footprint().retriever_bytes, 0u);
}

TEST(Churn, PrometheusExportsMemoryFamilies) {
  const auto data = tiny_data();
  auto net = std::make_shared<Network>(net_config(data), 2);
  auto store = std::make_shared<ModelStore>(net);
  ServeConfig scfg;
  scfg.num_workers = 1;
  InferenceEngine engine(store, scfg);
  const ServeStats stats = engine.stats();
  EXPECT_GT(stats.memory.retriever_bytes, 0u);
  EXPECT_GT(stats.memory.master_weight_bytes, 0u);
  const std::string text = render_prometheus(stats);
  EXPECT_NE(text.find("slide_memory_bytes{component=\"retriever\"}"),
            std::string::npos);
  EXPECT_NE(text.find("slide_memory_bytes{component=\"master_weights\"}"),
            std::string::npos);
  engine.stop();
}

TEST(Churn, MetricsScrapeExportsLshTableHealthPerLayer) {
  const auto data = tiny_data();
  for (int bucket_size : {32, 2}) {
    NetworkConfig cfg = net_config(data);
    cfg.layers.back().table.bucket_size = bucket_size;
    auto net = std::make_shared<Network>(cfg, 2);
    InferenceEngine engine(std::make_shared<ModelStore>(net),
                           ServeConfig{.num_workers = 1});
    const ServeStats stats = engine.stats();
    const int layer = net->stack_depth() - 1;
    const TableHealth health = net->stack(layer).table_health();
    ASSERT_EQ(stats.lsh_tables.size(), 1u);
    EXPECT_EQ(stats.lsh_tables[0].layer, layer);
    EXPECT_DOUBLE_EQ(stats.lsh_tables[0].occupancy, health.occupancy());
    EXPECT_DOUBLE_EQ(stats.lsh_tables[0].saturation, health.saturation());
    EXPECT_GT(health.occupancy(), 0.0);
    EXPECT_LE(health.saturation(), health.occupancy());
    // 48 labels in 16 fingerprints per table overflow 2-slot buckets.
    if (bucket_size == 2) {
      EXPECT_GT(health.saturation(), 0.0);
    }

    MetricsServer server(0, [&engine] {
      return render_prometheus(engine.stats());
    });
    const std::string text = test_http::scrape(server.port());
    const std::string label = "{layer=\"" + std::to_string(layer) + "\"} ";
    EXPECT_NE(text.find("# TYPE slide_lsh_bucket_occupancy gauge"),
              std::string::npos);
    EXPECT_NE(text.find("slide_lsh_bucket_occupancy" + label),
              std::string::npos);
    EXPECT_NE(text.find("slide_lsh_bucket_saturation" + label),
              std::string::npos);
    server.stop();
    engine.stop();
  }
  // No LSH tables (a dense output layer): no table-health families.
  auto dense = std::make_shared<Network>(dense_output_config(data), 2);
  InferenceEngine engine(std::make_shared<ModelStore>(dense),
                         ServeConfig{.num_workers = 1});
  const ServeStats stats = engine.stats();
  EXPECT_TRUE(stats.lsh_tables.empty());
  EXPECT_EQ(render_prometheus(stats).find("slide_lsh_bucket"),
            std::string::npos);
  engine.stop();
}

// ---------------------------------------------------------------------------
// Inference across growth
// ---------------------------------------------------------------------------

TEST(Churn, FreshContextRanksTheGrownLabelSet) {
  const auto data = tiny_data();
  Network net(net_config(data), 2);
  train(net, data, 20);
  InferenceContext ctx(net, 7);
  const Index before = net.output_dim();
  net.add_output_units(4);
  ASSERT_EQ(net.output_dim(), before + 4);

  // A context re-targeted at the grown net ranks every label, the four new
  // ones included, once each.
  ctx.reset(net);
  const auto grown = net.predict_topk(data.test[0].features, ctx,
                                      static_cast<int>(net.output_dim()),
                                      /*exact=*/true);
  std::vector<Index> sorted = grown;
  std::sort(sorted.begin(), sorted.end());
  std::vector<Index> all(static_cast<std::size_t>(net.output_dim()));
  std::iota(all.begin(), all.end(), Index{0});
  EXPECT_EQ(sorted, all);
}

// ---------------------------------------------------------------------------
// Engine online-update API
// ---------------------------------------------------------------------------

TEST(Churn, EngineOnlineUpdateGrowsRetiresAndRepublishes) {
  const auto data = tiny_data();
  auto master = std::make_shared<Network>(net_config(data), 2);
  train(*master, data, 20);
  auto store = std::make_shared<ModelStore>(
      std::make_shared<Network>(net_config(data), 2));
  ServeConfig scfg;
  scfg.num_workers = 1;
  InferenceEngine engine(store, scfg);

  OnlineDelta delta;
  EXPECT_THROW(engine.update(delta), Error);  // not enabled yet

  OnlineUpdateConfig ocfg;
  ocfg.publish_every = 2;
  ocfg.rebuild_threads = 1;
  engine.enable_online_updates(master, ocfg);
  EXPECT_TRUE(engine.online_updates_enabled());
  EXPECT_THROW(engine.enable_online_updates(master, ocfg), Error);

  const std::uint64_t v0 = store->version();
  const auto train_samples = data.train.samples();
  delta.add_units = 4;
  delta.retire = {1, 2};
  delta.samples.assign(train_samples.begin(), train_samples.begin() + 8);
  EXPECT_EQ(engine.update(delta), v0);  // call 1 of 2: no publish yet

  OnlineDelta delta2;
  delta2.samples.assign(train_samples.begin(), train_samples.begin() + 8);
  const std::uint64_t v1 = engine.update(delta2);  // cadence fires
  EXPECT_GT(v1, v0);

  // The published snapshot carries the grown width and the tombstones.
  const auto snap = store->current();
  EXPECT_EQ(snap->network->output_dim(), data.train.label_dim() + 4);
  const ServeStats stats = engine.stats();
  EXPECT_TRUE(stats.online_updates);
  EXPECT_EQ(stats.online_update_calls, 2u);
  EXPECT_EQ(stats.online_publishes, 1u);
  EXPECT_EQ(stats.labels_added, 4u);
  EXPECT_EQ(stats.labels_retired, 2u);
  EXPECT_EQ(stats.snapshot_appended_labels, 4);
  EXPECT_EQ(stats.snapshot_retired_labels, 2);

  // A served request must never see a retired label.
  auto future = engine.submit(data.test[0].features, {.top_k = 10});
  ASSERT_TRUE(future.has_value());
  const Prediction p = future->get();
  for (Index label : p.labels) {
    EXPECT_NE(label, 1);
    EXPECT_NE(label, 2);
  }
  engine.stop();
}

TEST(Churn, PublishNowForcesSnapshotOffCadence) {
  const auto data = tiny_data();
  auto master = std::make_shared<Network>(net_config(data), 2);
  auto store = std::make_shared<ModelStore>(
      std::make_shared<Network>(net_config(data), 2));
  ServeConfig scfg;
  scfg.num_workers = 1;
  InferenceEngine engine(store, scfg);
  OnlineUpdateConfig ocfg;
  ocfg.publish_every = 1000;  // cadence effectively never fires
  engine.enable_online_updates(master, ocfg);
  OnlineDelta delta;
  delta.add_units = 2;
  const std::uint64_t v0 = store->version();
  EXPECT_EQ(engine.update(delta), v0);
  EXPECT_GT(engine.publish_now(), v0);
  EXPECT_EQ(store->current()->network->output_dim(),
            data.train.label_dim() + 2);
  engine.stop();
}

TEST(Churn, PublishSecondsGrowOnEveryPublish) {
  const auto data = tiny_data();
  auto master = std::make_shared<Network>(net_config(data, /*shards=*/2), 2);
  auto store = std::make_shared<ModelStore>(
      std::make_shared<Network>(net_config(data, 2), 2));
  InferenceEngine engine(store, ServeConfig{.num_workers = 1});
  OnlineUpdateConfig ocfg;
  ocfg.publish_every = 1000;  // only publish_now publishes
  engine.enable_online_updates(master, ocfg);
  EXPECT_EQ(engine.stats().online_publish_seconds, 0.0);
  double last = 0.0;
  for (int k = 1; k <= 3; ++k) {
    OnlineDelta delta;
    delta.add_units = 2;
    engine.update(delta);
    engine.publish_now();
    const ServeStats stats = engine.stats();
    EXPECT_EQ(stats.online_publishes, static_cast<std::uint64_t>(k));
    EXPECT_GT(stats.online_publish_seconds, last) << "publish " << k;
    last = stats.online_publish_seconds;
  }
  // Exported beside the publish count, as a counter.
  const std::string text = render_prometheus(engine.stats());
  EXPECT_NE(text.find("# TYPE slide_online_publish_seconds_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("slide_online_publish_seconds_total "),
            std::string::npos);
  engine.stop();
}

// ---------------------------------------------------------------------------
// Churn-while-serving stress (the TSan CI target, satellite 3)
// ---------------------------------------------------------------------------

TEST(Churn, ConcurrentChurnWhileServing) {
  const auto data = tiny_data();
  auto master = std::make_shared<Network>(
      net_config(data, 0, MaintenancePolicy::kSync), 2);
  train(*master, data, 20);
  auto store = std::make_shared<ModelStore>(
      std::make_shared<Network>(net_config(data), 2));
  ServeConfig scfg;
  scfg.num_workers = 2;
  scfg.max_batch = 8;
  InferenceEngine engine(store, scfg);
  OnlineUpdateConfig ocfg;
  ocfg.publish_every = 1;
  ocfg.rebuild_threads = 1;
  engine.enable_online_updates(master, ocfg);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> served{0};
  std::thread client([&] {
    std::size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto future =
          engine.submit(data.test[i % data.test.size()].features,
                        {.top_k = 5});
      if (future.has_value()) {
        try {
          future->get();
          served.fetch_add(1, std::memory_order_relaxed);
        } catch (const Error&) {
        }
      }
      ++i;
    }
  });

  // 1% of the label space churns per update: grow one, retire one.
  for (int round = 0; round < 6; ++round) {
    OnlineDelta delta;
    delta.add_units = 1;
    delta.retire = {static_cast<Index>(round)};
    const auto tr = data.train.samples();
    const std::size_t offset = static_cast<std::size_t>(round) * 8;
    delta.samples.assign(tr.begin() + offset, tr.begin() + offset + 8);
    engine.update(delta);
  }

  std::this_thread::sleep_for(50ms);
  stop.store(true);
  client.join();
  engine.stop();

  EXPECT_GT(served.load(), 0u);
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.online_update_calls, 6u);
  EXPECT_EQ(stats.online_publishes, 6u);
  EXPECT_EQ(stats.labels_added, 6u);
  EXPECT_EQ(stats.labels_retired, 6u);
  EXPECT_EQ(store->current()->network->output_dim(),
            data.train.label_dim() + 6);
  EXPECT_EQ(stats.snapshot_retired_labels, 6);
}

}  // namespace
}  // namespace slide
