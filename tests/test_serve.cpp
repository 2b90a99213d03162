// Serving-path tests: request queue semantics, latency histogram,
// snapshot store hot-swap, and the inference engine's micro-batching,
// backpressure, and result-correctness contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "core/builder.h"
#include "core/serialize.h"
#include "core/sharded_layer.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "serve/engine.h"

namespace slide {
namespace {

using namespace std::chrono_literals;

SyntheticDataset planted() {
  SyntheticConfig cfg;
  cfg.feature_dim = 300;
  cfg.label_dim = 60;
  cfg.num_train = 400;
  cfg.num_test = 100;
  cfg.features_per_label = 10;
  cfg.active_per_label = 6;
  cfg.noise_features = 2;
  cfg.seed = 911;
  return make_synthetic_xc(cfg);
}

NetworkConfig planted_config(const SyntheticDataset& data) {
  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 5;
  family.l = 12;
  NetworkConfig cfg = make_paper_network(data.train.feature_dim(),
                                         data.train.label_dim(), family, 20,
                                         16);
  cfg.max_batch_size = 32;
  cfg.layers[0].table.range_pow = 9;
  return cfg;
}

/// A fixed-seed model: it, and the agreement counts tests hold it to, are
/// the same on every run, at any thread count.
std::shared_ptr<const Network> trained_network(const NetworkConfig& config,
                                               const SyntheticDataset& data,
                                               long iterations) {
  auto net = std::make_shared<Network>(config, 2);
  TrainerConfig tc;
  tc.batch_size = 32;
  tc.num_threads = 1;
  tc.learning_rate = 5e-3f;
  Trainer trainer(*net, tc);
  trainer.train(data.train, iterations);
  net->rebuild_all(&trainer.pool());
  return net;
}

std::shared_ptr<const Network> trained_network(const SyntheticDataset& data,
                                               long iterations = 100) {
  return trained_network(planted_config(data), data, iterations);
}

ServeRequest make_request(const SparseVector& x, int k = 3) {
  ServeRequest r;
  r.features = x;
  r.top_k = k;
  r.enqueue_time = std::chrono::steady_clock::now();
  return r;
}

// ---- RequestQueue ---------------------------------------------------------

TEST(RequestQueue, BackpressureRejectsWhenFull) {
  const auto data = planted();
  RequestQueue queue(2);
  EXPECT_TRUE(queue.try_push(make_request(data.test[0].features)));
  EXPECT_TRUE(queue.try_push(make_request(data.test[1].features)));
  EXPECT_FALSE(queue.try_push(make_request(data.test[2].features)));
  EXPECT_EQ(queue.depth(), 2u);
  ServeRequest out;
  ASSERT_TRUE(queue.pop(out));
  EXPECT_TRUE(queue.try_push(make_request(data.test[2].features)));
}

TEST(RequestQueue, PopUntilTimesOutOnEmptyQueue) {
  RequestQueue queue(4);
  ServeRequest out;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(queue.pop_until(out, t0 + 20ms));
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 20ms);
}

TEST(RequestQueue, CloseDrainsRemainingItems) {
  const auto data = planted();
  RequestQueue queue(4);
  ASSERT_TRUE(queue.try_push(make_request(data.test[0].features)));
  ASSERT_TRUE(queue.try_push(make_request(data.test[1].features)));
  queue.close();
  EXPECT_FALSE(queue.try_push(make_request(data.test[2].features)));
  ServeRequest out;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_TRUE(queue.pop(out));
  EXPECT_FALSE(queue.pop(out));  // closed and drained
}

TEST(RequestQueue, PauseHoldsPopsButAdmits) {
  const auto data = planted();
  RequestQueue queue(4);
  queue.set_paused(true);
  ASSERT_TRUE(queue.try_push(make_request(data.test[0].features)));
  ServeRequest out;
  EXPECT_FALSE(
      queue.pop_until(out, std::chrono::steady_clock::now() + 10ms));
  queue.set_paused(false);
  EXPECT_TRUE(
      queue.pop_until(out, std::chrono::steady_clock::now() + 100ms));
}

TEST(RequestQueue, FifoPopOrder) {
  const auto data = planted();
  RequestQueue queue(8);
  // Pops come out in arrival order, through pop and pop_until alike, and
  // a push between pops joins the back of the line.
  for (int k = 1; k <= 3; ++k)
    ASSERT_TRUE(queue.try_push(
        make_request(data.test[static_cast<std::size_t>(k)].features, k)));
  EXPECT_EQ(queue.depth(), 3u);
  ServeRequest out;
  ASSERT_TRUE(queue.pop(out));
  EXPECT_EQ(out.top_k, 1);
  ASSERT_TRUE(queue.try_push(make_request(data.test[4].features, 4)));
  ASSERT_TRUE(queue.pop_until(out, std::chrono::steady_clock::now()));
  EXPECT_EQ(out.top_k, 2);
  ASSERT_TRUE(queue.pop(out));
  EXPECT_EQ(out.top_k, 3);
  ASSERT_TRUE(queue.pop(out));
  EXPECT_EQ(out.top_k, 4);
  EXPECT_EQ(queue.depth(), 0u);
}

// ---- LatencyHistogram -----------------------------------------------------

TEST(LatencyHistogram, PercentilesTrackObservations) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.percentile(0.5), 0.0);
  for (int i = 1; i <= 1000; ++i) hist.record(static_cast<double>(i));
  EXPECT_EQ(hist.count(), 1000u);
  EXPECT_DOUBLE_EQ(hist.min_us(), 1.0);
  EXPECT_DOUBLE_EQ(hist.max_us(), 1000.0);
  EXPECT_NEAR(hist.mean_us(), 500.5, 1e-6);
  // Geometric buckets: <~19% relative error plus interpolation slack.
  EXPECT_NEAR(hist.percentile(0.50), 500.0, 150.0);
  EXPECT_NEAR(hist.percentile(0.95), 950.0, 250.0);
  EXPECT_GE(hist.percentile(0.99), hist.percentile(0.95));
  EXPECT_LE(hist.percentile(0.99), hist.max_us());
}

TEST(LatencyHistogram, SubMicrosecondObservationsStayInRange) {
  LatencyHistogram hist;
  for (int i = 0; i < 100; ++i) hist.record(0.5);
  EXPECT_DOUBLE_EQ(hist.max_us(), 0.5);
  EXPECT_LE(hist.percentile(0.5), hist.max_us());
  EXPECT_LE(hist.summary().p99_us, hist.max_us());
  EXPECT_GE(hist.percentile(0.5), hist.min_us());
}

TEST(LatencyHistogram, ConcurrentRecordsAreAllCounted) {
  LatencyHistogram hist;
  constexpr int kThreads = 4, kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i)
        hist.record(static_cast<double>(100 + t));
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  const auto s = hist.summary();
  EXPECT_EQ(s.count, hist.count());
  EXPECT_GE(s.p99_us, s.p50_us);
}

// ---- ModelStore -----------------------------------------------------------

TEST(ModelStore, PublishBumpsVersionAndSwapsPointer) {
  const auto data = planted();
  auto store = std::make_shared<ModelStore>(trained_network(data, 20));
  const auto snap1 = store->current();
  EXPECT_EQ(snap1->version, 1u);
  const std::uint64_t v2 = store->publish(trained_network(data, 25));
  EXPECT_EQ(v2, 2u);
  const auto snap2 = store->current();
  EXPECT_NE(snap1->network.get(), snap2->network.get());
  // The old snapshot stays valid for readers still holding it (RCU).
  InferenceContext ctx(snap1->max_units);
  EXPECT_LT(snap1->network->predict_top1(data.test[0].features, ctx, true),
            snap1->network->output_dim());
}

TEST(ModelStore, CheckpointRoundTripPreservesExactPredictions) {
  const auto data = planted();
  auto trained = trained_network(data);
  std::stringstream checkpoint(std::ios::in | std::ios::out |
                               std::ios::binary);
  save_weights(*trained, checkpoint);
  checkpoint.seekg(0);

  auto store = std::make_shared<ModelStore>(trained_network(data, 5));
  const std::uint64_t v =
      store->load_checkpoint(planted_config(data), checkpoint, "roundtrip", 2);
  EXPECT_EQ(v, 2u);
  const auto snap = store->current();
  InferenceContext ctx_a(trained->max_sampled_units());
  InferenceContext ctx_b(snap->max_units);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(
        trained->predict_topk(data.test[i].features, ctx_a, 5, true),
        snap->network->predict_topk(data.test[i].features, ctx_b, 5, true));
  }
}

TEST(ModelStore, BootsDirectlyFromCheckpointFile) {
  const auto data = planted();
  auto trained = trained_network(data);
  const std::string path =
      testing::TempDir() + "slide_test_serve_checkpoint.bin";
  save_weights_file(*trained, path);
  auto store = ModelStore::from_checkpoint_file(planted_config(data), path, 1);
  EXPECT_EQ(store->version(), 1u);
  const auto snap = store->current();
  EXPECT_EQ(snap->source, path);
  InferenceContext ctx_a(trained->max_sampled_units());
  InferenceContext ctx_b(snap->max_units);
  EXPECT_EQ(trained->predict_topk(data.test[0].features, ctx_a, 5, true),
            snap->network->predict_topk(data.test[0].features, ctx_b, 5,
                                        true));
  std::remove(path.c_str());
}

TEST(ModelStore, Int8BootQuartersWeightMemoryAndKeepsTop1Agreement) {
  const auto data = planted();
  // Rows as wide as Precision.Int8NetworkQuartersInferenceWeightBytes': the
  // per-row fp32 scale amortizes over the row length.
  NetworkConfig fp32_cfg = planted_config(data);
  fp32_cfg.hidden_units = 64;
  auto trained = trained_network(fp32_cfg, data, 150);
  const std::string path =
      testing::TempDir() + "slide_test_serve_int8_checkpoint.bin";
  save_weights_file(*trained, path);

  // Same checkpoint booted at both precisions — the serve-side knob is
  // NetworkConfig::precision.
  auto fp32_store = ModelStore::from_checkpoint_file(fp32_cfg, path, 1);
  NetworkConfig int8_cfg = fp32_cfg;
  int8_cfg.precision = Precision::kInt8;
  auto int8_store = ModelStore::from_checkpoint_file(int8_cfg, path, 1);

  const auto fp32_snap = fp32_store->current();
  const auto int8_snap = int8_store->current();
  const MemoryFootprint f32 = fp32_snap->network->memory_footprint();
  const MemoryFootprint i8 = int8_snap->network->memory_footprint();
  // The quantized snapshot's scoring path reads a quarter of the weight
  // bytes, plus the fp32 row scales and biases.
  EXPECT_GE(i8.inference_weight_bytes, f32.inference_weight_bytes / 4);
  EXPECT_LT(i8.inference_weight_bytes,
            f32.inference_weight_bytes / 4 + f32.inference_weight_bytes / 20);
  EXPECT_GT(i8.mirror_bytes, 0u);

  // Acceptance bar: >= 99% top-1 agreement with the fp32 snapshot.
  InferenceContext ctx_a(fp32_snap->max_units), ctx_b(int8_snap->max_units);
  int agree = 0, total = 0;
  for (const Sample& s : data.test.samples()) {
    agree += fp32_snap->network->predict_top1(s.features, ctx_a, true) ==
             int8_snap->network->predict_top1(s.features, ctx_b, true);
    ++total;
  }
  EXPECT_GE(agree, (total * 99) / 100) << agree << "/" << total;
  std::remove(path.c_str());
}

TEST(ModelStore, PublishClonePrecisionOverrideQuantizesTheSnapshot) {
  const auto data = planted();
  auto trained = trained_network(data, 60);
  auto store = std::make_shared<ModelStore>(trained_network(data, 5));
  // The trainer's network stays fp32; the published clone serves int8.
  publish_clone(*store, *trained, Precision::kInt8, 1, "int8-clone");
  const auto snap = store->current();
  EXPECT_EQ(snap->network->precision(), Precision::kInt8);
  EXPECT_GT(snap->network->memory_footprint().mirror_bytes, 0u);
  EXPECT_EQ(trained->precision(), Precision::kFP32);
  // Serving through the engine works on the quantized snapshot.
  ServeConfig cfg;
  cfg.num_workers = 1;
  InferenceEngine engine(store, cfg);
  auto f = engine.submit(data.test[0].features, {.top_k = 3});
  ASSERT_TRUE(f.has_value());
  const Prediction p = f->get();
  EXPECT_FALSE(p.labels.empty());
  engine.stop();
}

TEST(ModelStore, LoadCheckpointRejectsArchitectureMismatch) {
  const auto data = planted();
  auto store = std::make_shared<ModelStore>(trained_network(data, 5));
  std::stringstream checkpoint(std::ios::in | std::ios::out |
                               std::ios::binary);
  save_weights(*trained_network(data, 5), checkpoint);
  checkpoint.seekg(0);
  NetworkConfig wrong = planted_config(data);
  wrong.hidden_units += 1;
  EXPECT_THROW(store->load_checkpoint(wrong, checkpoint, "mismatch", 1),
               Error);
  EXPECT_EQ(store->version(), 1u);  // store unchanged on failure
}

// ---- Publish and boot by copy ----------------------------------------------

/// The planted task with a ReLU mid-stack layer and an output layer split
/// into `shards` (0 = monolithic). Buckets are small enough to saturate,
/// so the tables' reservoir draws are part of what the tests compare.
NetworkConfig churn_config(const SyntheticDataset& data, int shards) {
  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 3;
  family.l = 8;
  NetworkBuilder b(data.train.feature_dim());
  b.dense(16).dense(24).sampled(data.train.label_dim(), family, 20);
  b.table({.range_pow = 5, .bucket_size = 3});
  if (shards > 0) b.shards(shards);
  return b.max_batch(32).seed(77).to_config();
}

/// One single-threaded training pass over `samples` in max-batch chunks.
void train_samples(Network& net, std::span<const Sample> samples, Rng& rng,
                   long& iteration) {
  VisitedSet visited(net.max_sampled_units());
  const std::size_t batch = static_cast<std::size_t>(net.max_batch_size());
  for (std::size_t done = 0; done < samples.size(); done += batch) {
    const std::size_t n = std::min(batch, samples.size() - done);
    for (std::size_t s = 0; s < n; ++s)
      net.train_sample(static_cast<int>(s), samples[done + s],
                       1.0f / static_cast<float>(n), rng, visited, 0);
    net.apply_updates(5e-3f, nullptr);
    net.maybe_rebuild(++iteration, nullptr);
  }
}

/// A master trained, then put through three churn ticks (grow 8, retire
/// the 8 grown two ticks earlier, train 64 samples, a quarter of them on
/// the new labels). Its output layer ends wider than its config was
/// built, with its growth all on the last shard, so its partition differs
/// from the one a network built from its config would have.
std::shared_ptr<Network> churned_master(const SyntheticDataset& data,
                                        int shards) {
  auto master = std::make_shared<Network>(churn_config(data, shards), 1);
  Rng rng(5);
  long iteration = 0;
  const auto train = data.train.samples();
  train_samples(*master, train, rng, iteration);
  master->retire_output_units(std::vector<Index>{3, 17});
  std::vector<std::vector<Index>> grown;
  std::size_t cursor = 0;
  for (int tick = 0; tick < 3; ++tick) {
    const Index first = master->add_output_units(8);
    grown.emplace_back();
    for (Index u = 0; u < 8; ++u) grown.back().push_back(first + u);
    if (grown.size() >= 3) master->retire_output_units(grown[grown.size() - 3]);
    std::vector<Sample> samples;
    for (std::size_t s = 0; s < 64; ++s) {
      Sample sample = train[cursor++ % train.size()];
      if (s % 4 == 0) sample.labels = {first + rng.uniform(8)};
      samples.push_back(std::move(sample));
    }
    train_samples(*master, samples, rng, iteration);
  }
  return master;
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// The in-process table sets of a stack layer, one per shard.
std::vector<const LshTableGroup*> tables_of(const Layer& layer) {
  std::vector<const LshTableGroup*> out;
  if (const auto* sharded = dynamic_cast<const ShardedSampledLayer*>(&layer)) {
    for (int s = 0; s < sharded->shards(); ++s)
      out.push_back(sharded->shard(s).tables());
  } else if (const auto* sampled = dynamic_cast<const SampledLayer*>(&layer)) {
    if (sampled->tables() != nullptr) out.push_back(sampled->tables());
  }
  return out;
}

/// Asserts that `got` holds and serves exactly the model `want` does: every
/// parameter bit for bit, the partition, tombstones and table health, the
/// bucket contents for 200 probe queries, and the sampled top-5 answers
/// over the test split from one context seed.
void expect_same_snapshot(const Network& want, const Network& got,
                          const Dataset& test) {
  ASSERT_EQ(want.precision(), got.precision());
  EXPECT_TRUE(same_bits(want.embedding().weights_span(),
                        got.embedding().weights_span()));
  EXPECT_TRUE(
      same_bits(want.embedding().bias_span(), got.embedding().bias_span()));
  ASSERT_EQ(want.stack_depth(), got.stack_depth());
  for (int i = 0; i < want.stack_depth(); ++i) {
    SCOPED_TRACE("stack layer " + std::to_string(i));
    const Layer& a = want.stack(i);
    const Layer& b = got.stack(i);
    ASSERT_EQ(a.units(), b.units());
    ASSERT_EQ(a.num_shards(), b.num_shards());
    for (int s = 0; s < a.num_shards(); ++s) {
      EXPECT_EQ(a.shard_row_offset(s), b.shard_row_offset(s)) << "shard " << s;
      EXPECT_TRUE(same_bits(a.shard_weights(s), b.shard_weights(s)))
          << "shard " << s;
      EXPECT_TRUE(same_bits(a.shard_bias(s), b.shard_bias(s)))
          << "shard " << s;
    }
    EXPECT_EQ(a.retired_unit_ids(), b.retired_unit_ids());
    EXPECT_EQ(a.appended_units(), b.appended_units());
    EXPECT_EQ(a.inference_weight_bytes(), b.inference_weight_bytes());
    const TableHealth ha = a.table_health();
    const TableHealth hb = b.table_health();
    EXPECT_EQ(ha.buckets, hb.buckets);
    EXPECT_EQ(ha.occupied, hb.occupied);
    EXPECT_EQ(ha.saturated, hb.saturated);

    const std::vector<const LshTableGroup*> ta = tables_of(a);
    const std::vector<const LshTableGroup*> tb = tables_of(b);
    ASSERT_EQ(ta.size(), tb.size());
    Rng rng(99);
    std::vector<float> query(a.fan_in());
    std::vector<std::span<const Index>> ba, bb;
    for (int q = 0; q < 200; ++q) {
      for (float& v : query) v = rng.normal();
      for (std::size_t t = 0; t < ta.size(); ++t) {
        std::vector<std::uint32_t> keys(static_cast<std::size_t>(ta[t]->l()));
        ta[t]->query_keys_dense(query.data(), keys);
        ta[t]->buckets(keys, ba);
        tb[t]->buckets(keys, bb);
        ASSERT_EQ(ba.size(), bb.size());
        for (std::size_t k = 0; k < ba.size(); ++k)
          ASSERT_TRUE(std::ranges::equal(ba[k], bb[k]))
              << "query " << q << ", shard " << t << ", table " << k;
      }
    }
  }
  InferenceContext ctx_a(want, 7);
  InferenceContext ctx_b(got, 7);
  for (const Sample& s : test.samples())
    ASSERT_EQ(want.predict_topk(s.features, ctx_a, 5),
              got.predict_topk(s.features, ctx_b, 5));
}

TEST(ModelStore, PublishCloneEqualsCheckpointRoundTrip) {
  const auto data = planted();
  struct Case {
    const char* name;
    int master_shards;
    int publish_shards;  // -1: publish_clone at the master's layout
    Precision precision;
  };
  const Case cases[] = {
      {"monolithic", 0, -1, Precision::kFP32},
      {"S=1", 1, -1, Precision::kFP32},
      {"S=4", 4, -1, Precision::kFP32},
      {"reshard 0->4", 0, 4, Precision::kFP32},
      {"reshard 4->0", 4, 0, Precision::kFP32},
      {"reshard 4->2", 4, 2, Precision::kFP32},
      {"S=4 as int8", 4, -1, Precision::kInt8},
  };
  std::map<int, std::shared_ptr<Network>> masters;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto& master = masters[c.master_shards];
    if (master == nullptr) master = churned_master(data, c.master_shards);

    // The round trip publish_clone used to take: the config the publish
    // serves, a randomly initialized Network of it, then a reload.
    NetworkConfig config = master->config();
    config.precision = c.precision;
    if (c.publish_shards >= 0) {
      for (LayerSpec& spec : config.layers)
        if (spec.hashed) spec.shards = c.publish_shards;
    }
    std::stringstream checkpoint(std::ios::in | std::ios::out |
                                 std::ios::binary);
    save_weights(*master, checkpoint);
    const std::string bytes = checkpoint.str();
    Network round_trip(config, 1);
    load_weights(round_trip, checkpoint);
    // What the comparison covers: tombstones, saturated buckets, and for
    // S=4 a master partition the published layout does not share.
    const Layer& out = round_trip.stack(round_trip.stack_depth() - 1);
    EXPECT_EQ(out.retired_count(), 10);
    EXPECT_GT(out.table_health().saturated, 0u);
    if (c.master_shards == 4 && out.num_shards() == 4) {
      EXPECT_NE(out.shard_row_offset(3),
                master->stack(master->stack_depth() - 1).shard_row_offset(3));
    }

    auto store = std::make_shared<ModelStore>(trained_network(data, 5));
    if (c.publish_shards >= 0) {
      publish_clone_sharded(*store, *master, c.publish_shards, 2);
    } else {
      publish_clone(*store, *master, c.precision, 2);
    }
    expect_same_snapshot(round_trip, *store->current()->network, data.test);

    // A boot of the same bytes builds the same network too.
    std::stringstream in(bytes);
    store->load_checkpoint(config, in, "boot", 1);
    expect_same_snapshot(round_trip, *store->current()->network, data.test);
  }
}

TEST(ModelStore, BootOfGrownCheckpointEqualsLoadWeights) {
  const auto data = planted();
  const std::string path =
      testing::TempDir() + "slide_test_serve_grown_checkpoint.bin";
  for (int shards : {0, 4}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    const auto master = churned_master(data, shards);
    save_weights_file(*master, path);
    // The original config is 24 rows narrower than the file: the boot
    // re-grows its output layer with add_units before any table is built.
    const NetworkConfig original = churn_config(data, shards);
    Network reference(original, 1);
    load_weights_file(reference, path);
    auto store = ModelStore::from_checkpoint_file(original, path, 1);
    const auto snap = store->current();
    const Network& booted = *snap->network;
    EXPECT_EQ(booted.output_dim(), master->output_dim());
    // Both re-grown networks keep their config at the grown width, so a
    // publish of either copies rows without growing again.
    EXPECT_EQ(booted.config().layers.back().units, booted.output_dim());
    EXPECT_EQ(reference.config().layers.back().units, reference.output_dim());
    expect_same_snapshot(reference, booted, data.test);
  }
  std::remove(path.c_str());
}

TEST(ModelStore, FailedPublishOrBootLeavesStoreUnchanged) {
  const auto data = planted();
  const auto master = churned_master(data, 4);
  std::stringstream checkpoint(std::ios::in | std::ios::out |
                               std::ios::binary);
  save_weights(*master, checkpoint);
  const std::string bytes = checkpoint.str();
  auto store = std::make_shared<ModelStore>(trained_network(data, 5));
  const auto before = store->current();
  auto expect_unchanged = [&] {
    EXPECT_EQ(store->version(), before->version);
    EXPECT_EQ(store->current(), before);
  };
  // A boot cut inside the output layer's parameter blocks (a mismatched
  // boot: LoadCheckpointRejectsArchitectureMismatch).
  std::stringstream in(bytes.substr(0, bytes.size() - 1000));
  EXPECT_THROW(store->load_checkpoint(master->config(), in, "cut", 1), Error);
  expect_unchanged();
  // A copy into a mismatched architecture, and a publish into more shards
  // than the layer has rows.
  NetworkConfig wrong = master->config();
  wrong.hidden_units += 1;
  EXPECT_THROW(copy_network(wrong, *master, 1, nullptr), Error);
  EXPECT_THROW(publish_clone_sharded(*store, *master,
                                     static_cast<int>(master->output_dim()) + 1,
                                     1),
               Error);
  expect_unchanged();
}

// ---- InferenceEngine ------------------------------------------------------

TEST(InferenceEngine, ExactResultsMatchDirectPredictTopk) {
  const auto data = planted();
  auto network = trained_network(data);
  auto store = std::make_shared<ModelStore>(network);
  ServeConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 4;
  cfg.max_wait_us = 100;
  cfg.exact = true;
  InferenceEngine engine(store, cfg);

  std::vector<std::future<Prediction>> futures;
  for (std::size_t i = 0; i < 40; ++i) {
    auto f = engine.submit(data.test[i].features, {.top_k = 5});
    ASSERT_TRUE(f.has_value()) << i;
    futures.push_back(std::move(*f));
  }
  InferenceContext ctx(network->max_sampled_units());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    Prediction p = futures[i].get();
    EXPECT_EQ(p.labels,
              network->predict_topk(data.test[i].features, ctx, 5, true))
        << i;
    EXPECT_EQ(p.snapshot_version, 1u);
    EXPECT_GT(p.latency_us, 0.0);
  }
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 40u);
  EXPECT_EQ(stats.completed, 40u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.latency.count, 40u);
}

TEST(InferenceEngine, BatchingDeadlineDispatchesPartialBatch) {
  const auto data = planted();
  auto store = std::make_shared<ModelStore>(trained_network(data, 20));
  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 64;        // far more than we submit
  cfg.max_wait_us = 20'000;  // 20ms window
  InferenceEngine engine(store, cfg);

  const auto t0 = std::chrono::steady_clock::now();
  auto f = engine.submit(data.test[0].features);
  ASSERT_TRUE(f.has_value());
  ASSERT_EQ(f->wait_for(5s), std::future_status::ready)
      << "deadline did not fire: a lone request must not wait for a full "
         "batch";
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, 4s);
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.batches, 1u);
}

TEST(InferenceEngine, PausedQueueAccumulatesOneFullBatch) {
  const auto data = planted();
  auto store = std::make_shared<ModelStore>(trained_network(data, 20));
  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 8;
  cfg.max_wait_us = 500'000;  // generous: size, not deadline, closes it
  InferenceEngine engine(store, cfg);

  engine.pause();
  std::vector<std::future<Prediction>> futures;
  for (int i = 0; i < 8; ++i) {
    auto f = engine.submit(data.test[static_cast<std::size_t>(i)].features);
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  EXPECT_EQ(engine.queue_depth(), 8u);
  engine.resume();
  for (auto& f : futures)
    ASSERT_EQ(f.wait_for(10s), std::future_status::ready);
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.completed, 8u);
  EXPECT_EQ(stats.batches, 1u);  // one worker, all 8 already queued
  EXPECT_DOUBLE_EQ(stats.mean_batch_size, 8.0);
}

TEST(InferenceEngine, MixedTopKAndExactWithinOneMicroBatch) {
  // One micro-batch mixing top_k values and exact/sampled modes: the
  // engine dispatches whole (top_k, exact) groups through predict_batch,
  // and every request must still be answered with its own parameters.
  const auto data = planted();
  auto network = trained_network(data, 60);
  auto store = std::make_shared<ModelStore>(network);
  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 12;
  cfg.max_wait_us = 500'000;
  InferenceEngine engine(store, cfg);

  engine.pause();
  std::vector<std::future<Prediction>> futures;
  std::vector<int> ks;
  for (int i = 0; i < 12; ++i) {
    const int k = 1 + (i % 3);        // 1, 2, 3, 1, 2, ...
    const bool exact = (i % 2) == 0;  // alternate exact/sampled
    auto f = engine.submit(data.test[static_cast<std::size_t>(i)].features,
                           {.top_k = k, .exact = exact});
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
    ks.push_back(k);
  }
  engine.resume();

  InferenceContext ctx(*network);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(10s), std::future_status::ready) << i;
    const Prediction p = futures[i].get();
    EXPECT_LE(p.labels.size(), static_cast<std::size_t>(ks[i])) << i;
    if (i % 2 == 0) {
      // Exact requests are deterministic: must match a direct call.
      EXPECT_EQ(p.labels, network->predict_topk(data.test[i].features, ctx,
                                                ks[i], true))
          << i;
    } else {
      for (Index label : p.labels) EXPECT_LT(label, network->output_dim());
    }
  }
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.completed, 12u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.batches, 1u);  // one micro-batch, several dispatch groups
}

TEST(InferenceEngine, ServesAnyBuilderStackThroughOnePath) {
  // The unified-API contract: a dense-only baseline and a 3-layer
  // multi-hashed stack — both straight from NetworkBuilder — serve through
  // the same engine, which dispatches micro-batches via predict_batch.
  const auto data = planted();
  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 4;
  family.l = 8;
  HashTable::Config table;
  table.range_pow = 8;

  auto dense_stack = NetworkBuilder(data.train.feature_dim())
                         .dense(16)
                         .dense(data.train.label_dim(), Activation::kSoftmax)
                         .max_batch(32)
                         .build_shared(2);
  auto hashed_stack = NetworkBuilder(data.train.feature_dim())
                          .dense(16)
                          .sampled(48, family, 32, Activation::kReLU)
                          .table(table)
                          .sampled(data.train.label_dim(), family, 20)
                          .table(table)
                          .max_batch(32)
                          .build_shared(2);
  for (auto& model :
       {std::shared_ptr<Network>(dense_stack), hashed_stack}) {
    TrainerConfig tc;
    tc.batch_size = 32;
    tc.num_threads = 2;
    Trainer trainer(*model, tc);
    trainer.train(data.train, 10);
    model->rebuild_all(&trainer.pool());
    auto store = std::make_shared<ModelStore>(
        std::shared_ptr<const Network>(model));
    ServeConfig cfg;
    cfg.num_workers = 2;
    cfg.max_batch = 8;
    cfg.exact = true;
    InferenceEngine engine(store, cfg);
    std::vector<std::future<Prediction>> futures;
    for (std::size_t i = 0; i < 16; ++i) {
      auto f = engine.submit(data.test[i].features, {.top_k = 3});
      ASSERT_TRUE(f.has_value());
      futures.push_back(std::move(*f));
    }
    InferenceContext ctx(*model);
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const Prediction p = futures[i].get();
      EXPECT_EQ(p.labels,
                model->predict_topk(data.test[i].features, ctx, 3, true))
          << i;
    }
    engine.stop();
    EXPECT_EQ(engine.stats().errors, 0u);
  }
}

TEST(InferenceEngine, BackpressureRejectsWhenQueueFull) {
  const auto data = planted();
  auto store = std::make_shared<ModelStore>(trained_network(data, 20));
  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.queue_capacity = 4;
  cfg.max_batch = 4;
  cfg.max_wait_us = 1'000;
  InferenceEngine engine(store, cfg);

  engine.pause();  // hold workers so the queue fills deterministically
  std::vector<std::future<Prediction>> admitted;
  for (int i = 0; i < 4; ++i) {
    auto f = engine.submit(data.test[static_cast<std::size_t>(i)].features);
    ASSERT_TRUE(f.has_value()) << i;
    admitted.push_back(std::move(*f));
  }
  EXPECT_FALSE(engine.submit(data.test[4].features).has_value());
  EXPECT_FALSE(
      engine.submit_callback(data.test[5].features, [](Prediction) {}));
  EXPECT_EQ(engine.stats().rejected, 2u);
  engine.resume();
  for (auto& f : admitted)
    ASSERT_EQ(f.wait_for(10s), std::future_status::ready);
  EXPECT_EQ(engine.stats().completed, 4u);
}

TEST(InferenceEngine, RejectsOutOfRangeFeaturesAtAdmission) {
  const auto data = planted();
  auto network = trained_network(data, 20);
  auto store = std::make_shared<ModelStore>(network);
  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.max_wait_us = 100;
  InferenceEngine engine(store, cfg);
  SparseVector bad({network->input_dim() + 7}, {1.0f});
  EXPECT_THROW(engine.submit(bad), Error);
  EXPECT_THROW(engine.submit_callback(bad, [](Prediction) {}), Error);
  // A negative top_k is refused too, not served at default_top_k.
  EXPECT_THROW(engine.submit(data.test[0].features, {.top_k = -3}), Error);
  EXPECT_THROW(engine.submit_callback(data.test[0].features,
                                      [](Prediction) {}, {.top_k = -3}),
               Error);
  // The malformed requests never reached a worker; the engine still serves.
  auto ok = engine.submit(data.test[0].features);
  ASSERT_TRUE(ok.has_value());
  EXPECT_LT(ok->get().labels[0], network->output_dim());
}

TEST(InferenceEngine, CallbackPathDeliversResults) {
  const auto data = planted();
  auto network = trained_network(data);
  auto store = std::make_shared<ModelStore>(network);
  ServeConfig cfg;
  cfg.num_workers = 2;
  cfg.max_wait_us = 100;
  cfg.exact = true;
  std::atomic<int> delivered{0};
  std::atomic<bool> all_valid{true};
  {
    InferenceEngine engine(store, cfg);
    const Index output_dim = network->output_dim();
    for (std::size_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(engine.submit_callback(
          data.test[i].features, [&, output_dim](Prediction p) {
            if (p.labels.empty() || p.labels[0] >= output_dim)
              all_valid.store(false);
            delivered.fetch_add(1);
          }));
    }
  }  // destructor stops + drains
  EXPECT_EQ(delivered.load(), 20);
  EXPECT_TRUE(all_valid.load());
}

TEST(InferenceEngine, StopDrainsAllAdmittedRequests) {
  const auto data = planted();
  auto store = std::make_shared<ModelStore>(trained_network(data, 20));
  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 2;
  cfg.max_wait_us = 50'000;
  InferenceEngine engine(store, cfg);
  engine.pause();
  std::vector<std::future<Prediction>> futures;
  for (int i = 0; i < 6; ++i) {
    auto f = engine.submit(data.test[static_cast<std::size_t>(i)].features);
    ASSERT_TRUE(f.has_value()) << i;
    futures.push_back(std::move(*f));
  }
  engine.stop();  // resumes, closes admission, drains, joins
  for (auto& f : futures)
    ASSERT_EQ(f.wait_for(0s), std::future_status::ready);
  EXPECT_EQ(engine.stats().completed, 6u);
  EXPECT_FALSE(engine.submit(data.test[0].features).has_value());
}

TEST(InferenceEngine, HotSwapUnderLoadReturnsOnlyValidResults) {
  const auto data = planted();
  auto network = trained_network(data);
  auto store = std::make_shared<ModelStore>(network);
  const Index output_dim = network->output_dim();
  ServeConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 4;
  cfg.max_wait_us = 200;
  cfg.queue_capacity = 1 << 16;
  InferenceEngine engine(store, cfg);

  std::atomic<bool> running{true};
  std::atomic<std::uint64_t> ok{0}, bad{0}, hung{0};
  std::set<std::uint64_t> versions_seen;
  std::mutex versions_mutex;
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      std::size_t i = static_cast<std::size_t>(c);
      while (running.load()) {
        auto f =
            engine.submit(data.test[i % data.test.size()].features,
                          {.top_k = 3});
        ++i;
        if (!f.has_value()) continue;  // backpressure: retry
        if (f->wait_for(10s) != std::future_status::ready) {
          hung.fetch_add(1);  // a future that never resolves is fatal
          return;
        }
        Prediction p = f->get();
        const bool valid =
            !p.labels.empty() &&
            std::all_of(p.labels.begin(), p.labels.end(),
                        [&](Index l) { return l < output_dim; });
        (valid ? ok : bad).fetch_add(1);
        std::lock_guard<std::mutex> lock(versions_mutex);
        versions_seen.insert(p.snapshot_version);
      }
    });
  }
  // Publish three fresh snapshots while traffic flows.
  for (int swap = 0; swap < 3; ++swap) {
    std::this_thread::sleep_for(50ms);
    publish_clone(*store, *network, /*rebuild_threads=*/1);
  }
  std::this_thread::sleep_for(50ms);
  running.store(false);
  for (auto& t : clients) t.join();
  engine.stop();

  EXPECT_EQ(hung.load(), 0u);
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(ok.load(), 0u);
  EXPECT_EQ(store->version(), 4u);
  // Traffic spanned at least one swap boundary.
  EXPECT_GE(versions_seen.size(), 2u);
  const ServeStats stats = engine.stats();
  EXPECT_GE(stats.swaps_observed, 1u);
  // Drained: every admitted request was either served or failed.
  EXPECT_EQ(stats.completed + stats.errors, stats.submitted);
}

TEST(InferenceEngine, SwapPreservingWeightsPreservesExactResults) {
  // A snapshot built from the same weights must serve identical exact
  // predictions: the engine's results are checkpoint-stable.
  const auto data = planted();
  auto network = trained_network(data);
  auto store = std::make_shared<ModelStore>(network);
  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.max_wait_us = 100;
  cfg.exact = true;
  InferenceEngine engine(store, cfg);

  auto before = engine.submit(data.test[0].features, {.top_k = 5});
  ASSERT_TRUE(before.has_value());
  const std::vector<Index> labels_before = before->get().labels;
  publish_clone(*store, *network, 1);
  auto after = engine.submit(data.test[0].features, {.top_k = 5});
  ASSERT_TRUE(after.has_value());
  Prediction p = after->get();
  EXPECT_EQ(p.labels, labels_before);
  EXPECT_EQ(p.snapshot_version, 2u);
}

TEST(InferenceEngine, WorkerRevalidatesAgainstTheServingSnapshot) {
  // Admission validates against the snapshot current at submit; a hot-swap
  // to a narrower model before the worker picks the request up must fail
  // it with slide::Error instead of reading past the new model's input.
  const auto data = planted();
  auto store = std::make_shared<ModelStore>(trained_network(data, 20));
  ServeConfig cfg;
  cfg.num_workers = 1;
  InferenceEngine engine(store, cfg);

  engine.pause();
  auto doomed = engine.submit(data.test[0].features);
  ASSERT_TRUE(doomed.has_value());
  SyntheticConfig narrow_cfg;
  narrow_cfg.feature_dim = 10;  // narrower than the planted 300
  narrow_cfg.label_dim = 20;
  narrow_cfg.num_train = 50;
  narrow_cfg.num_test = 5;
  narrow_cfg.seed = 13;
  const auto narrow_data = make_synthetic_xc(narrow_cfg);
  store->publish(trained_network(narrow_data, 5));
  engine.resume();
  ASSERT_EQ(doomed->wait_for(10s), std::future_status::ready);
  EXPECT_THROW(doomed->get(), Error);
  engine.stop();
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

#ifndef NDEBUG
TEST(NetworkWriteEpoch, MutatorsBumpAndPredictionsDoNot) {
  const auto data = planted();
  Network net(planted_config(data), 1);
  const std::uint64_t e0 = net.write_epoch();
  InferenceContext ctx(net.max_sampled_units());
  net.predict_top1(data.test[0].features, ctx, true);
  net.predict_topk(data.test[0].features, ctx, 3, true);
  EXPECT_EQ(net.write_epoch(), e0);  // readers leave the epoch alone
  EXPECT_EQ(net.writers_active(), 0);
  net.rebuild_all(nullptr);
  EXPECT_GT(net.write_epoch(), e0);
  EXPECT_EQ(net.writers_active(), 0);  // brackets are balanced
}

TEST(NetworkWriteEpoch, ReadInsideWriteBracketAsserts) {
  const auto data = planted();
  Network net(planted_config(data), 1);
  InferenceContext ctx(net.max_sampled_units());
  net.begin_write();
  EXPECT_EQ(net.writers_active(), 1);
  // SLIDE_ASSERT throws std::logic_error in debug builds.
  EXPECT_THROW(net.predict_top1(data.test[0].features, ctx, true),
               std::logic_error);
  net.end_write();
  EXPECT_EQ(net.writers_active(), 0);
  EXPECT_LT(net.predict_top1(data.test[0].features, ctx, true),
            net.output_dim());
}
#endif

}  // namespace
}  // namespace slide
