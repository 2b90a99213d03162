// ShardedSampledLayer tests: partition topology, the S=1 bit-identity
// anchor against the monolithic SampledLayer, shard-merged top-k vs the
// single-table path on exhaustive nets, gradient routing, checkpoint
// round-trips and resharding across shard counts, train-while-rebuild
// stress at S=4 (the TSan CI target), and sharded
// snapshot hot-swap under serving load, and the global inference
// candidate budget's per-shard split.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <cmath>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "core/builder.h"
#include "core/serialize.h"
#include "core/sharded_layer.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "metrics/metrics.h"
#include "serve/engine.h"

namespace slide {
namespace {

using namespace std::chrono_literals;

SyntheticDataset planted(Index features = 300, Index labels = 61,
                         std::uint64_t seed = 911) {
  SyntheticConfig cfg;
  cfg.feature_dim = features;
  cfg.label_dim = labels;
  cfg.num_train = 400;
  cfg.num_test = 100;
  cfg.features_per_label = 10;
  cfg.active_per_label = 6;
  cfg.noise_features = 2;
  cfg.seed = seed;
  return make_synthetic_xc(cfg);
}

HashFamilyConfig small_family() {
  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 5;
  family.l = 12;
  return family;
}

/// Builder-backed config; shards = 0 keeps the monolithic layer.
NetworkConfig net_config(const SyntheticDataset& data, int shards,
                         Index target = 20) {
  NetworkBuilder b(data.train.feature_dim());
  b.dense(16).sampled(data.train.label_dim(), small_family(), target);
  b.table({.range_pow = 9, .bucket_size = 64});
  if (shards > 0) b.shards(shards);
  b.max_batch(32).seed(123);
  return b.to_config();
}

/// The sharded output layer of a network built with net_config(shards>=1).
const ShardedSampledLayer& sharded_output(const Network& net) {
  const auto* layer = dynamic_cast<const ShardedSampledLayer*>(
      &net.stack(net.stack_depth() - 1));
  EXPECT_NE(layer, nullptr);
  return *layer;
}

/// Reads global weight row `u` of any stack layer through its shard spans.
std::span<const float> global_row(const Layer& layer, Index u) {
  for (int s = layer.num_shards() - 1; s >= 0; --s) {
    const Index off = layer.shard_row_offset(s);
    const std::span<const float> w = layer.shard_weights(s);
    const Index rows = static_cast<Index>(w.size() / layer.fan_in());
    if (u >= off && u < off + rows) {
      return w.subspan(static_cast<std::size_t>(u - off) * layer.fan_in(),
                       layer.fan_in());
    }
  }
  ADD_FAILURE() << "row " << u << " not covered by any shard";
  return {};
}

float global_bias(const Layer& layer, Index u) {
  for (int s = layer.num_shards() - 1; s >= 0; --s) {
    const Index off = layer.shard_row_offset(s);
    const std::span<const float> b = layer.shard_bias(s);
    if (u >= off && u < off + static_cast<Index>(b.size()))
      return b[u - off];
  }
  ADD_FAILURE() << "bias " << u << " not covered by any shard";
  return 0.0f;
}

bool bytes_equal(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Asserts every logical weight row and bias of two same-shape layers is
/// bit-identical, regardless of either layer's shard partition.
void expect_same_parameters(const Layer& a, const Layer& b) {
  ASSERT_EQ(a.units(), b.units());
  ASSERT_EQ(a.fan_in(), b.fan_in());
  for (Index u = 0; u < a.units(); ++u) {
    ASSERT_TRUE(bytes_equal(global_row(a, u), global_row(b, u)))
        << "weight row " << u;
    const float ba = global_bias(a, u), bb = global_bias(b, u);
    ASSERT_EQ(std::memcmp(&ba, &bb, sizeof(float)), 0) << "bias " << u;
  }
}

void train(Network& net, const SyntheticDataset& data, long iterations,
           int threads) {
  TrainerConfig tc;
  tc.batch_size = 32;
  tc.num_threads = threads;
  tc.learning_rate = 5e-3f;
  Trainer trainer(net, tc);
  trainer.train(data.train, iterations);
}

/// Clones weights from `src` into `dst` through an in-memory checkpoint
/// (exercising the v3 scatter loader when partitions differ).
void clone_weights(const Network& src, Network& dst) {
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_weights(src, buffer);
  buffer.seekg(0);
  load_weights(dst, buffer);
}

// ---- Partition topology ----------------------------------------------------

TEST(ShardedLayer, PartitionCoversRangeWithNearEqualShards) {
  SampledLayer::Config cfg;
  cfg.units = 13;
  cfg.fan_in = 8;
  cfg.hashed = true;
  cfg.family = small_family();
  cfg.sampling.target = 6;
  ShardedSampledLayer layer(cfg, 4, /*batch_slots=*/2, /*max_threads=*/1);

  ASSERT_EQ(layer.shards(), 4);
  // 13 = 4 + 3 + 3 + 3; offsets 0, 4, 7, 10, 13.
  EXPECT_EQ(layer.shard_offset(0), 0u);
  EXPECT_EQ(layer.shard_offset(1), 4u);
  EXPECT_EQ(layer.shard_offset(2), 7u);
  EXPECT_EQ(layer.shard_offset(3), 10u);
  EXPECT_EQ(layer.shard_offset(4), 13u);
  std::size_t params = 0;
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(layer.shard(s).fan_in(), 8u);
    params += layer.shard(s).num_parameters();
  }
  EXPECT_EQ(params, layer.num_parameters());
  EXPECT_EQ(layer.num_parameters(), 13u * 8u + 13u);
  for (Index u = 0; u < 13; ++u) {
    const int s = layer.shard_of(u);
    EXPECT_GE(u, layer.shard_offset(s));
    EXPECT_LT(u, layer.shard_offset(s + 1));
  }
  EXPECT_EQ(layer.kind(), LayerKind::kSharded);
  EXPECT_STREQ(to_string(layer.kind()), "sharded");
  // The whole-layer spans are deliberately empty: the per-shard spans are
  // the serialization surface.
  EXPECT_TRUE(layer.weights_span().empty());
  EXPECT_TRUE(layer.bias_span().empty());
}

TEST(ShardedLayer, BuilderAndFactoryWiring) {
  const auto data = planted();
  Network net(net_config(data, 4), 2);
  const Layer& out = net.stack(0);
  EXPECT_EQ(out.kind(), LayerKind::kSharded);
  EXPECT_EQ(out.num_shards(), 4);
  EXPECT_EQ(out.units(), data.train.label_dim());

  // Config round-trips the shard count.
  EXPECT_EQ(net_config(data, 4).layers[0].shards, 4);
  EXPECT_EQ(net_config(data, 0).layers[0].shards, 0);

  // Sharding a non-hashed layer is rejected.
  NetworkBuilder dense_net(10);
  dense_net.dense(8).dense(5, Activation::kSoftmax);
  EXPECT_THROW(dense_net.shards(2), Error);
  // More shards than units is rejected.
  NetworkBuilder narrow(10);
  narrow.dense(8).sampled(4, small_family(), 2);
  EXPECT_THROW(narrow.shards(8), Error);

  // Monolithic layers report themselves as their own single shard.
  Network mono(net_config(data, 0), 2);
  EXPECT_EQ(mono.stack(0).num_shards(), 1);
  EXPECT_EQ(mono.stack(0).shard_row_offset(0), 0u);
  EXPECT_TRUE(bytes_equal(mono.stack(0).shard_weights(0),
                          mono.stack(0).weights_span()));
}

// ---- S=1 bit-identity (the parity anchor) ---------------------------------

TEST(ShardedLayer, S1BitIdenticalToMonolithicUnderSyncTraining) {
  const auto data = planted();
  // Single-threaded sync training is fully deterministic, so any
  // divergence between the monolithic layer and a 1-shard sharded layer —
  // init stream, RNG consumption, sampling, Adam trajectory, rebuild
  // schedule — shows up as a byte difference.
  Network mono(net_config(data, 0), 1);
  Network shard1(net_config(data, 1), 1);
  train(mono, data, 60, 1);
  train(shard1, data, 60, 1);

  ASSERT_TRUE(bytes_equal(mono.embedding().weights_span(),
                          shard1.embedding().weights_span()));
  ASSERT_TRUE(bytes_equal(mono.embedding().bias_span(),
                          shard1.embedding().bias_span()));
  expect_same_parameters(mono.stack(0), shard1.stack(0));

  // Inference parity, exact and sampled (same-seed contexts).
  InferenceContext ctx_a(mono, 7), ctx_b(shard1, 7);
  for (std::size_t i = 0; i < 50; ++i) {
    const SparseVector& x = data.test[i].features;
    EXPECT_EQ(mono.predict_top1(x, ctx_a, true),
              shard1.predict_top1(x, ctx_b, true));
    EXPECT_EQ(mono.predict_topk(x, ctx_a, 5, true),
              shard1.predict_topk(x, ctx_b, 5, true));
    EXPECT_EQ(mono.predict_topk(x, ctx_a, 5, false),
              shard1.predict_topk(x, ctx_b, 5, false));
  }
}

// ---- Shard-merged top-k ----------------------------------------------------

TEST(ShardedLayer, ShardMergedTopKEqualsSingleTableTopKWhenExhaustive) {
  const auto data = planted(300, 61);
  Network mono(net_config(data, 0, /*target=*/61), 2);
  train(mono, data, 40, 2);
  mono.rebuild_all(nullptr);

  for (int shards : {2, 3, 5}) {
    Network sharded(net_config(data, shards, /*target=*/61), 2);
    clone_weights(mono, sharded);
    expect_same_parameters(mono.stack(0), sharded.stack(0));

    InferenceContext ctx_a(mono, 7), ctx_b(sharded, 7);
    for (std::size_t i = 0; i < data.test.size(); ++i) {
      const SparseVector& x = data.test[i].features;
      // Exact mode scores every unit on both sides: the merged heap and
      // the single-table partial sort must produce the same ranking,
      // including tie-breaks (lower unit id first).
      EXPECT_EQ(mono.predict_topk(x, ctx_a, 7, true),
                sharded.predict_topk(x, ctx_b, 7, true))
          << "shards=" << shards << " sample=" << i;
      EXPECT_EQ(mono.predict_top1(x, ctx_a, true),
                sharded.predict_top1(x, ctx_b, true));
    }
  }
}

TEST(ShardedLayer, HeapMergeMatchesRankingTheMergedCandidates) {
  // Internal consistency of the k-way merge on the *sampled* path: the
  // top-k the bounded heap produces must equal ranking the full merged
  // candidate list, for identical RNG streams.
  const auto data = planted();
  Network net(net_config(data, 4, /*target=*/24), 2);
  train(net, data, 30, 2);
  net.rebuild_all(nullptr);
  const ShardedSampledLayer& out = sharded_output(net);

  InferenceContext ctx(net, 5);
  VisitedSet visited_a(net.max_sampled_units());
  VisitedSet visited_b(net.max_sampled_units());
  TopKScratch scratch;
  std::vector<Index> ids, merged_topk;
  std::vector<float> act;
  for (std::size_t i = 0; i < 40; ++i) {
    ctx.dense.resize(net.embedding().units());
    net.embedding().forward_inference(data.test[i].features,
                                      ctx.dense.data());
    Rng rng_a(1000 + i), rng_b(1000 + i);
    out.forward_inference({}, ctx.dense, false, rng_a, visited_a, ids, act);
    out.forward_inference_topk({}, ctx.dense, 6, false, rng_b, visited_b,
                               scratch, merged_topk);

    std::vector<std::size_t> order(act.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    const std::size_t take = std::min<std::size_t>(6, order.size());
    std::partial_sort(order.begin(), order.begin() + take, order.end(),
                      [&](std::size_t a, std::size_t b) {
                        return act[a] > act[b] ||
                               (act[a] == act[b] && a < b);
                      });
    ASSERT_EQ(merged_topk.size(), take);
    for (std::size_t j = 0; j < take; ++j)
      EXPECT_EQ(merged_topk[j], ids[order[j]])
          << "sample " << i << " pos " << j;
  }
}

// ---- Gradient routing ------------------------------------------------------

TEST(ShardedLayer, GradientsMatchMonolithicWhenExhaustive) {
  const auto data = planted(300, 40);
  // Exhaustive target: both nets activate every output unit, so one
  // single-threaded training sample must accumulate identical gradients.
  Network mono(net_config(data, 0, /*target=*/40), 1);
  Network sharded(net_config(data, 3, /*target=*/40), 1);
  clone_weights(mono, sharded);

  Rng rng_a(9), rng_b(9);
  VisitedSet va(mono.max_sampled_units()), vb(sharded.max_sampled_units());
  const Sample& sample = data.train[0];
  const float loss_a = mono.train_sample(0, sample, 1.0f, rng_a, va, 0);
  const float loss_b = sharded.train_sample(0, sample, 1.0f, rng_b, vb, 0);
  EXPECT_EQ(loss_a, loss_b);

  const auto& mono_out = mono.output_layer();
  const ShardedSampledLayer& sharded_out = sharded_output(sharded);
  for (Index u = 0; u < 40; ++u) {
    const int s = sharded_out.shard_of(u);
    const Index local = u - sharded_out.shard_offset(s);
    const std::vector<float> ga = mono_out.gradient_row(u);
    const std::vector<float> gb = sharded_out.shard(s).gradient_row(local);
    ASSERT_EQ(ga.size(), gb.size());
    ASSERT_EQ(std::memcmp(ga.data(), gb.data(), ga.size() * sizeof(float)), 0)
        << "gradient row " << u;
    EXPECT_EQ(mono_out.bias_gradient(u),
              sharded_out.shard(s).bias_gradient(local));
  }
  // Backpropagated error reaching the embedding matches to rounding: the
  // shard-segmented active order changes the prev.err accumulation order
  // (float addition is non-associative), so compare with a tight tolerance
  // rather than byte equality.
  const std::vector<float> ea =
      mono.embedding().gradient_column(sample.features.indices()[0]);
  const std::vector<float> eb =
      sharded.embedding().gradient_column(sample.features.indices()[0]);
  for (Index h = 0; h < mono.config().hidden_units; ++h) {
    EXPECT_NEAR(ea[h], eb[h], 1e-5f * (1.0f + std::fabs(ea[h])))
        << "embedding gradient " << h;
  }
}

TEST(ShardedLayer, BackwardRoutesGradientsOnlyToActiveShards) {
  const auto data = planted(300, 60);
  // The active set is forced labels + LSH hits + the random top-up to
  // target; every unit outside it — and every shard without candidates —
  // must see zero gradient traffic.
  NetworkBuilder b(data.train.feature_dim());
  b.dense(16)
      .sampled(60, small_family(), 8)
      .table({.range_pow = 9, .bucket_size = 64})
      .shards(4)
      .max_batch(8)
      .seed(123);
  Network net(b.to_config(), 1);
  const ShardedSampledLayer& out = sharded_output(net);

  Rng rng(3);
  VisitedSet visited(net.max_sampled_units());
  net.train_sample(0, data.train[1], 1.0f, rng, visited, 0);

  const ActiveSet& merged = net.stack(0).slot(0);
  ASSERT_FALSE(merged.ids.empty());
  std::set<Index> active(merged.ids.begin(), merged.ids.end());
  for (Index label : data.train[1].labels) EXPECT_TRUE(active.count(label));
  for (Index u = 0; u < 60; ++u) {
    const int s = out.shard_of(u);
    const Index local = u - out.shard_offset(s);
    const std::vector<float> g = out.shard(s).gradient_row(local);
    const bool any =
        std::any_of(g.begin(), g.end(), [](float v) { return v != 0.0f; });
    if (active.count(u)) continue;  // active rows may or may not move
    EXPECT_FALSE(any) << "inactive unit " << u << " received gradient";
    EXPECT_EQ(out.shard(s).bias_gradient(local), 0.0f);
  }
  // The labeled unit itself must have moved (softmax pulls it up).
  const Index label = data.train[1].labels[0];
  const int ls = out.shard_of(label);
  EXPECT_NE(out.shard(ls).bias_gradient(label - out.shard_offset(ls)), 0.0f);
}

// ---- Checkpoint v3 + resharding -------------------------------------------

TEST(ShardedLayer, CheckpointV3RoundTripAcrossShardCounts) {
  const auto data = planted();
  Network src(net_config(data, 3), 2);
  train(src, data, 40, 2);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_weights(src, buffer);

  // Header word 1 is the format version; the writer only writes 5.
  std::uint32_t version = 0;
  std::memcpy(&version, buffer.str().data() + 4, sizeof(version));
  EXPECT_EQ(version, 5u);

  InferenceContext ctx_src(src, 7);
  for (int shards : {0, 1, 3, 5}) {
    buffer.seekg(0);
    Network dst(net_config(data, shards, /*target=*/20), 2);
    load_weights(dst, buffer);
    expect_same_parameters(src.stack(0), dst.stack(0));
    ASSERT_TRUE(bytes_equal(src.embedding().weights_span(),
                            dst.embedding().weights_span()));
    InferenceContext ctx_dst(dst, 7);
    for (std::size_t i = 0; i < 25; ++i) {
      EXPECT_EQ(src.predict_topk(data.test[i].features, ctx_src, 5, true),
                dst.predict_topk(data.test[i].features, ctx_dst, 5, true))
          << "shards=" << shards;
    }
  }
}

TEST(ShardedLayer, TruncatedShardBlocksAreRejected) {
  const auto data = planted();
  Network src(net_config(data, 3), 1);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_weights(src, buffer);
  const std::string bytes = buffer.str();

  // Chop the stream inside the last shard's weight block.
  std::stringstream truncated(bytes.substr(0, bytes.size() - 64));
  Network dst(net_config(data, 3), 1);
  EXPECT_THROW(load_weights(dst, truncated), Error);
}

// ---- Rebuilds: per-shard tables rebuilt over the pool ---------------------

TEST(ShardedMaintenanceStress, TrainWhileRebuildAtS4IsSafe) {
  const auto data = planted(300, 512);
  NetworkConfig cfg = net_config(data, 4);
  cfg.layers[0].rebuild.initial_period = 1;  // rebuild every iteration
  cfg.layers[0].rebuild.decay = 0.0;
  Network net(cfg, 4);
  TrainerConfig tc;
  tc.batch_size = 16;
  tc.num_threads = 4;
  tc.learning_rate = 2e-3f;
  Trainer trainer(net, tc);
  // Between every two HOGWILD batches on four trainer threads, the four
  // shards rebuild their tables in place, one shard per pool thread.
  trainer.train(data.train, 60);

  const ShardedSampledLayer& out = sharded_output(net);
  EXPECT_EQ(out.rebuild_count(), 4 * 60);

  // Still coherent end to end.
  net.rebuild_all(&trainer.pool());
  const double acc =
      evaluate_p_at_1(net, data.test, trainer.pool(), {.exact = true});
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

// ---- Serving: sharded snapshot hot-swap under load ------------------------

TEST(ShardedLayer, HotSwapShardedSnapshotUnderLoadZeroFailures) {
  const auto data = planted();
  auto network = std::make_shared<Network>(net_config(data, 0), 2);
  {
    TrainerConfig tc;
    tc.batch_size = 32;
    tc.num_threads = 2;
    tc.learning_rate = 5e-3f;
    Trainer trainer(*network, tc);
    trainer.train(data.train, 60);
    network->rebuild_all(&trainer.pool());
  }
  auto store = std::make_shared<ModelStore>(network);
  const Index output_dim = network->output_dim();
  ServeConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 4;
  cfg.max_wait_us = 200;
  cfg.queue_capacity = 1 << 16;
  InferenceEngine engine(store, cfg);

  std::atomic<bool> running{true};
  std::atomic<std::uint64_t> ok{0}, failed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      std::size_t i = static_cast<std::size_t>(c);
      while (running.load()) {
        auto f = engine.submit(data.test[i % data.test.size()].features, {.top_k = 3});
        ++i;
        if (!f.has_value()) continue;  // backpressure: retry
        Prediction p = f->get();
        const bool valid =
            !p.labels.empty() &&
            std::all_of(p.labels.begin(), p.labels.end(),
                        [&](Index l) { return l < output_dim; });
        (valid ? ok : failed).fetch_add(1);
      }
    });
  }
  // Republish the monolithic trainer model as progressively wider sharded
  // snapshots while traffic flows — the v2-era model reshards on publish.
  for (int shards : {2, 4}) {
    std::this_thread::sleep_for(50ms);
    publish_clone_sharded(*store, *network, shards, /*rebuild_threads=*/2);
  }
  std::this_thread::sleep_for(50ms);
  running.store(false);
  for (auto& t : clients) t.join();
  engine.stop();

  EXPECT_EQ(failed.load(), 0u);
  EXPECT_GT(ok.load(), 0u);
  EXPECT_EQ(store->version(), 3u);
  // The live snapshot really is sharded.
  const auto snap = store->current();
  EXPECT_EQ(snap->network->stack(0).kind(), LayerKind::kSharded);
  EXPECT_EQ(snap->network->stack(0).num_shards(), 4);

  // Resharded snapshots serve the trainer's exact predictions.
  InferenceContext ctx_a(*network, 7), ctx_b(*snap->network, 7);
  for (std::size_t i = 0; i < 25; ++i) {
    EXPECT_EQ(network->predict_topk(data.test[i].features, ctx_a, 3, true),
              snap->network->predict_topk(data.test[i].features, ctx_b, 3,
                                          true));
  }
}


// ---- Global inference budget ----------------------------------------------

TEST(ShardBudget, DeriveShardConfigSplitsBudgetProportionally) {
  SampledLayer::Config global;
  global.units = 100;
  global.fan_in = 8;
  global.family = small_family();
  global.sampling.target = 40;
  global.sampling.inference_budget = 32;
  global.seed = 9;

  const std::vector<Index> offsets = shard_partition(100, 3);
  ASSERT_EQ(offsets.size(), 4u);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), 100u);

  Index budget_sum = 0, target_sum = 0;
  for (int s = 0; s < 3; ++s) {
    const Index size = offsets[s + 1] - offsets[s];
    const SampledLayer::Config sc = derive_shard_config(global, size, s);
    EXPECT_EQ(sc.units, size);
    EXPECT_GT(sc.sampling.inference_budget, 0u);
    EXPECT_GT(sc.sampling.target, 0u);
    budget_sum += sc.sampling.inference_budget;
    target_sum += sc.sampling.target;
    if (s == 0) {
      EXPECT_EQ(sc.seed, global.seed);  // bit-identity anchor
    }
  }
  // Ceil rounding: the sums land at the global knob, +< S slack.
  EXPECT_GE(budget_sum, 32u);
  EXPECT_LT(budget_sum, 32u + 3u);
  EXPECT_GE(target_sum, 40u);
  EXPECT_LT(target_sum, 40u + 3u);

  // budget = 0 keeps the knob off in every shard.
  global.sampling.inference_budget = 0;
  EXPECT_EQ(derive_shard_config(global, 34, 0).sampling.inference_budget, 0u);
}

TEST(ShardBudget, BudgetCapsSampledCandidatesButNotExactScoring) {
  SampledLayer::Config cfg;
  cfg.units = 64;
  cfg.fan_in = 16;
  cfg.family = small_family();
  cfg.table.range_pow = 8;
  cfg.sampling.target = 48;
  cfg.seed = 7;
  SampledLayer layer(cfg, /*batch_slots=*/1, /*max_threads=*/1);
  layer.rebuild_tables(nullptr);

  Rng init(3);
  std::vector<float> prev(16);
  for (float& v : prev) v = init.uniform_float();
  VisitedSet visited(64);
  std::vector<Index> ids;
  std::vector<float> act;

  // Unbudgeted: the random top-up fills the candidates to target.
  Rng r1(11);
  layer.forward_inference({}, prev, false, r1, visited, ids, act);
  EXPECT_EQ(ids.size(), 48u);

  // The configured knob caps the candidate count.
  SampledLayer::Config capped = cfg;
  capped.sampling.inference_budget = 8;
  SampledLayer capped_layer(capped, 1, 1);
  capped_layer.rebuild_tables(nullptr);
  Rng r2(11);
  capped_layer.forward_inference({}, prev, false, r2, visited, ids, act);
  EXPECT_LE(ids.size(), 8u);
  EXPECT_GE(ids.size(), 1u);
  EXPECT_EQ(ids.size(), act.size());

  // Exact mode ignores the budget: every unit is scored by request.
  Rng r3(11);
  capped_layer.forward_inference({}, prev, true, r3, visited, ids, act);
  EXPECT_EQ(ids.size(), 64u);
}

TEST(ShardBudget, GlobalBudgetFixesShardCandidateOversampling) {
  const auto data = planted();
  // S shards each sampling toward their own target can return far more
  // merged candidates than the monolithic layer would. With the global
  // budget set, the merged candidate count lands at ~budget (+ceil slack
  // per shard) regardless of S.
  NetworkConfig plain = net_config(data, 4);
  NetworkConfig budgeted = net_config(data, 4);
  budgeted.layers[0].sampling.inference_budget = 10;
  Network plain_net(plain, 1);
  Network budget_net(budgeted, 1);
  train(plain_net, data, 10, 1);
  plain_net.rebuild_all(nullptr);
  train(budget_net, data, 10, 1);
  budget_net.rebuild_all(nullptr);

  Rng probe(29);
  std::vector<float> hidden(16);
  VisitedSet visited(data.train.label_dim());
  std::vector<Index> ids;
  std::vector<float> act;
  std::size_t plain_total = 0, budget_total = 0;
  Rng ra(41), rb(41);
  for (int q = 0; q < 50; ++q) {
    for (float& v : hidden) v = probe.uniform_float();
    plain_net.stack(0).forward_inference({}, hidden, false, ra, visited, ids,
                                         act);
    plain_total += ids.size();
    budget_net.stack(0).forward_inference({}, hidden, false, rb, visited, ids,
                                          act);
    budget_total += ids.size();
    EXPECT_LE(ids.size(), 10u + 4u) << "query " << q;  // budget + S slack
  }
  EXPECT_LT(budget_total, plain_total);
}

}  // namespace
}  // namespace slide
