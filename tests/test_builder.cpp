// NetworkBuilder + one-shape tests: fluent construction of the embedding
// plus a dense, LSH-sampled or random-sampled output layer; training
// through the single Trainer; batch inference; and checkpoint round-trips
// through the one format — including hand-written checkpoints, one read
// and written back byte for byte, one refused for its layer count.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "core/builder.h"
#include "core/serialize.h"
#include "core/trainer.h"
#include "data/batching.h"
#include "data/synthetic.h"
#include "metrics/metrics.h"

namespace slide {
namespace {

SyntheticDataset tiny_data(std::uint64_t seed = 41) {
  SyntheticConfig cfg;
  cfg.feature_dim = 200;
  cfg.label_dim = 50;
  cfg.num_train = 300;
  cfg.num_test = 80;
  cfg.features_per_label = 8;
  cfg.active_per_label = 5;
  cfg.seed = seed;
  return make_synthetic_xc(cfg);
}

HashFamilyConfig simhash_family(int k = 4, int l = 8) {
  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = k;
  family.l = l;
  return family;
}

HashTable::Config small_table() {
  HashTable::Config table;
  table.range_pow = 8;
  return table;
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

TEST(NetworkBuilder, PaperNetworkShapeAndKinds) {
  Network net = NetworkBuilder(100)
                    .dense(16)
                    .sampled(500, simhash_family(), 32)
                    .table(small_table())
                    .max_batch(8)
                    .build(2);
  EXPECT_EQ(net.input_dim(), 100u);
  EXPECT_EQ(net.output_dim(), 500u);
  EXPECT_EQ(net.stack_depth(), 1);
  EXPECT_EQ(net.stack(0).kind(), LayerKind::kSampled);
  EXPECT_TRUE(net.output_layer().hashed());
}

TEST(NetworkBuilder, DenseOnlyStack) {
  Network net = NetworkBuilder(40)
                    .dense(8)
                    .dense(30)
                    .max_batch(4)
                    .build(1);
  EXPECT_EQ(net.stack(0).kind(), LayerKind::kDense);
  EXPECT_FALSE(net.output_layer().hashed());
  EXPECT_EQ(net.num_parameters(), 40u * 8 + 8 + 30u * 8 + 30);
  EXPECT_EQ(net.stack(0).average_active_fraction(), 1.0);
}

TEST(NetworkBuilder, RandomSampledStack) {
  Network net = NetworkBuilder(40)
                    .dense(8)
                    .random_sampled(30, 10)
                    .max_batch(4)
                    .build(1);
  EXPECT_EQ(net.stack(0).kind(), LayerKind::kRandomSampled);
  EXPECT_FALSE(net.output_layer().hashed());
  EXPECT_EQ(net.output_layer().config().sampling.target, 10u);
}

TEST(NetworkBuilder, MakePaperNetworkIsBuilderBacked) {
  // The legacy helper and the fluent spelling must agree exactly.
  const NetworkConfig a = make_paper_network(100, 500, simhash_family(), 32,
                                             16);
  const NetworkConfig b = NetworkBuilder(100)
                              .dense(16)
                              .sampled(500, simhash_family(), 32)
                              .to_config();
  EXPECT_EQ(a.input_dim, b.input_dim);
  EXPECT_EQ(a.hidden_units, b.hidden_units);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  EXPECT_EQ(a.layers[0].units, b.layers[0].units);
  EXPECT_EQ(a.layers[0].hashed, b.layers[0].hashed);
  EXPECT_EQ(a.layers[0].sampling.target, b.layers[0].sampling.target);
  EXPECT_EQ(a.layers[0].family.k, b.layers[0].family.k);
}

TEST(NetworkBuilder, RejectsMisuse) {
  // Output layer before the embedding.
  EXPECT_THROW(NetworkBuilder(10).sampled(50, simhash_family(), 8), Error);
  // No output layer at all.
  EXPECT_THROW(NetworkBuilder(10).dense(8).to_config(), Error);
  // A second output layer: one embedding, one output layer.
  EXPECT_THROW(NetworkBuilder(10).dense(8).dense(5).dense(5), Error);
  EXPECT_THROW(NetworkBuilder(10).dense(8).dense(12).sampled(
                   5, simhash_family(), 4),
               Error);
  LayerSpec spec;
  spec.units = 5;
  EXPECT_THROW(NetworkBuilder(10).dense(8).random_sampled(20, 4).layer(spec),
               Error);
  // Output-layer knob with no output layer to apply it to.
  EXPECT_THROW(NetworkBuilder(10).dense(8).table(small_table()), Error);
}

// ---------------------------------------------------------------------------
// One Trainer for every stack
// ---------------------------------------------------------------------------

double train_and_eval(Network& net, const SyntheticDataset& data,
                      int iterations = 120) {
  TrainerConfig tc;
  tc.batch_size = 16;
  tc.num_threads = 2;
  tc.learning_rate = 5e-3f;
  Trainer trainer(net, tc);
  trainer.train(data.train, iterations);
  return evaluate_p_at_1(net, data.test, trainer.pool(), {.exact = true});
}

TEST(UnifiedStack, DenseBaselineTrainsViaTrainer) {
  const auto data = tiny_data(43);
  Network net = NetworkBuilder(data.train.feature_dim())
                    .dense(16)
                    .dense(data.train.label_dim())
                    .max_batch(16)
                    .build(2);
  EXPECT_GT(train_and_eval(net, data), 0.3);
}

TEST(UnifiedStack, RandomSampledTrainsViaTrainer) {
  const auto data = tiny_data(53);
  Network net = NetworkBuilder(data.train.feature_dim())
                    .dense(16)
                    .random_sampled(data.train.label_dim(), 25)
                    .max_batch(16)
                    .build(2);
  EXPECT_GT(train_and_eval(net, data), 0.2);
}

// ---------------------------------------------------------------------------
// Batch inference
// ---------------------------------------------------------------------------

TEST(PredictBatch, MatchesPredictTopkExact) {
  const auto data = tiny_data(59);
  Network net = NetworkBuilder(data.train.feature_dim())
                    .dense(16)
                    .sampled(data.train.label_dim(), simhash_family(), 24)
                    .table(small_table())
                    .max_batch(16)
                    .build(2);
  train_and_eval(net, data, 40);

  std::vector<SparseVector> queries;
  for (std::size_t i = 0; i < 32; ++i)
    queries.push_back(data.test[i].features);

  BatchOutput out;
  net.predict_batch(queries, out, nullptr, /*top_k=*/5, /*exact=*/true);
  ASSERT_EQ(out.size(), queries.size());

  InferenceContext ctx(net);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto expected = net.predict_topk(queries[i], ctx, 5, true);
    const auto row = out.row(i);
    ASSERT_EQ(row.size(), expected.size()) << i;
    for (std::size_t j = 0; j < expected.size(); ++j)
      EXPECT_EQ(row[j], expected[j]) << i << "," << j;
  }
}

TEST(PredictBatch, PoolParallelMatchesSequentialExact) {
  const auto data = tiny_data(61);
  Network net = NetworkBuilder(data.train.feature_dim())
                    .dense(16)
                    .dense(data.train.label_dim())
                    .max_batch(16)
                    .build(4);
  train_and_eval(net, data, 30);

  std::vector<SparseVector> queries;
  for (std::size_t i = 0; i < 64; ++i)
    queries.push_back(data.test[i % data.test.size()].features);

  BatchOutput sequential, parallel;
  net.predict_batch(queries, sequential, nullptr, 3, true);
  ThreadPool pool(4);
  net.predict_batch(queries, parallel, &pool, 3, true);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    const auto a = sequential.row(i);
    const auto b = parallel.row(i);
    ASSERT_EQ(a.size(), b.size()) << i;
    for (std::size_t j = 0; j < a.size(); ++j) EXPECT_EQ(a[j], b[j]) << i;
  }
}

TEST(PredictBatch, ReusesScratchAcrossCallsAndArchitectures) {
  const auto data = tiny_data(67);
  Network small = NetworkBuilder(data.train.feature_dim())
                      .dense(8)
                      .dense(20)
                      .max_batch(4)
                      .build(1);
  Network wide = NetworkBuilder(data.train.feature_dim())
                     .dense(8)
                     .dense(data.train.label_dim())
                     .max_batch(4)
                     .build(1);
  std::vector<SparseVector> queries;
  for (std::size_t i = 0; i < 8; ++i)
    queries.push_back(data.test[i].features);

  // One BatchOutput across two different architectures (the serving
  // hot-swap shape): contexts must re-size transparently.
  BatchOutput out;
  small.predict_batch(queries, out, nullptr, 2, true);
  for (std::size_t i = 0; i < out.size(); ++i)
    for (Index label : out.row(i)) EXPECT_LT(label, 20u);
  wide.predict_batch(queries, out, nullptr, 2, true);
  for (std::size_t i = 0; i < out.size(); ++i)
    for (Index label : out.row(i)) EXPECT_LT(label, data.train.label_dim());
  EXPECT_EQ(out.size(), queries.size());
}

TEST(PredictBatch, EmptyInputYieldsEmptyOutput) {
  Network net = NetworkBuilder(10)
                    .dense(4)
                    .dense(5)
                    .max_batch(2)
                    .build(1);
  BatchOutput out;
  net.predict_batch(std::span<const SparseVector>{}, out, nullptr, 3, true);
  EXPECT_EQ(out.size(), 0u);
  EXPECT_TRUE(out.labels().empty());
}

TEST(InferenceContext, ResetRetargetsArchitecture) {
  Network net = NetworkBuilder(10)
                    .dense(4)
                    .dense(5)
                    .max_batch(2)
                    .build(1);
  InferenceContext ctx(net);
  EXPECT_GE(ctx.visited.capacity(), 5u);
  SparseVector x({1, 3}, {1.0f, 0.5f});
  (void)net.predict_top1(x, ctx, true);
  ctx.reset();
  EXPECT_TRUE(ctx.ids_a.empty() && ctx.dense.empty());
  ctx.reset(100);
  EXPECT_EQ(ctx.visited.capacity(), 100u);
  ctx.reset(net);
  EXPECT_EQ(ctx.visited.capacity(), 5u);
}

// ---------------------------------------------------------------------------
// Checkpoint round-trips through the one format
// ---------------------------------------------------------------------------

void expect_identical_exact_predictions(const Network& a, const Network& b,
                                        const Dataset& queries,
                                        std::size_t n = 30) {
  InferenceContext ca(a), cb(b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(a.predict_top1(queries[i].features, ca, true),
              b.predict_top1(queries[i].features, cb, true))
        << i;
  }
}

TEST(UnifiedCheckpoint, DenseOnlyStackRoundTrip) {
  const auto data = tiny_data(71);
  auto make = [&](std::uint64_t seed) {
    return NetworkBuilder(data.train.feature_dim())
        .dense(8)
        .dense(data.train.label_dim())
        .max_batch(16)
        .seed(seed)
        .build(2);
  };
  Network trained = make(1);
  train_and_eval(trained, data, 20);
  std::stringstream buffer;
  save_weights(trained, buffer);
  Network restored = make(999);
  load_weights(restored, buffer);
  expect_identical_exact_predictions(trained, restored, data.test);
}

TEST(UnifiedCheckpoint, RandomSampledStackRoundTrip) {
  const auto data = tiny_data(79);
  auto make = [&](std::uint64_t seed) {
    return NetworkBuilder(data.train.feature_dim())
        .dense(8)
        .random_sampled(data.train.label_dim(), 15)
        .max_batch(16)
        .seed(seed)
        .build(2);
  };
  Network trained = make(1);
  train_and_eval(trained, data, 20);
  std::stringstream buffer;
  save_weights(trained, buffer);
  Network restored = make(999);
  load_weights(restored, buffer);
  expect_identical_exact_predictions(trained, restored, data.test);
}

// The version 5 layout documented in core/serialize.h, written by hand
// here: a builder-constructed network must load it and write it back byte
// for byte.
void write_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_block(std::ostream& out, const std::vector<float>& data) {
  write_u32(out, static_cast<std::uint32_t>(data.size()));
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size() * sizeof(float)));
}

/// A hand-written version 5 checkpoint of an input_dim 12, hidden 4,
/// 9-label network whose header claims `num_layers` layers, followed by
/// one output layer's blocks.
struct HandWrittenCheckpoint {
  static constexpr Index input_dim = 12, hidden = 4, labels = 9;
  std::vector<float> emb_w, emb_b, out_w, out_b;
  std::string bytes;
};

HandWrittenCheckpoint hand_written_v5(std::uint32_t num_layers) {
  HandWrittenCheckpoint c;
  c.emb_w.resize(static_cast<std::size_t>(c.input_dim) * c.hidden);
  c.emb_b.resize(c.hidden);
  c.out_w.resize(static_cast<std::size_t>(c.labels) * c.hidden);
  c.out_b.resize(c.labels);
  for (std::size_t i = 0; i < c.emb_w.size(); ++i)
    c.emb_w[i] = 0.01f * static_cast<float>(i);
  for (std::size_t i = 0; i < c.emb_b.size(); ++i)
    c.emb_b[i] = 0.5f - 0.1f * static_cast<float>(i);
  for (std::size_t i = 0; i < c.out_w.size(); ++i)
    c.out_w[i] = -0.02f * static_cast<float>(i);
  for (std::size_t i = 0; i < c.out_b.size(); ++i)
    c.out_b[i] = 0.25f * static_cast<float>(i);

  std::stringstream buffer;
  write_u32(buffer, 0x534C4944);  // "SLID"
  write_u32(buffer, 5);           // version
  write_u32(buffer, 0);           // kind: slide network
  write_u32(buffer, c.input_dim);
  write_u32(buffer, c.hidden);
  write_u32(buffer, num_layers);
  write_u32(buffer, 0);  // precision tag: fp32
  write_block(buffer, c.emb_w);
  write_block(buffer, c.emb_b);
  write_u32(buffer, c.labels);
  write_u32(buffer, c.hidden);
  write_u32(buffer, 0);  // appended rows
  write_u32(buffer, 1);  // one row block pair
  write_block(buffer, c.out_w);
  write_block(buffer, c.out_b);
  write_u32(buffer, 0);  // retriever word: LSH
  write_u64(buffer, 0);  // aux bytes
  write_u64(buffer, 0);  // tombstones
  c.bytes = buffer.str();
  return c;
}

Network hand_written_target() {
  return NetworkBuilder(HandWrittenCheckpoint::input_dim)
      .dense(HandWrittenCheckpoint::hidden)
      .sampled(HandWrittenCheckpoint::labels, simhash_family(2, 4), 4)
      .table(small_table())
      .max_batch(2)
      .build(1);
}

TEST(UnifiedCheckpoint, LoadsAndWritesHandWrittenVersion5Bytes) {
  const HandWrittenCheckpoint c = hand_written_v5(1);
  std::stringstream buffer(c.bytes);
  Network net = hand_written_target();
  load_weights(net, buffer);
  EXPECT_EQ(0, std::memcmp(net.embedding().weights_span().data(),
                           c.emb_w.data(), c.emb_w.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(net.output_layer().weights_span().data(),
                           c.out_w.data(), c.out_w.size() * sizeof(float)));
  EXPECT_EQ(net.output_layer().bias(2), c.out_b[2]);
  std::stringstream written;
  save_weights(net, written);
  EXPECT_EQ(written.str(), c.bytes);
}

TEST(UnifiedCheckpoint, MixedStackRejectsWrongShape) {
  // A file is input from outside the program: a header that claims two
  // layers (a stack this network shape cannot hold) is refused, whatever
  // follows it, and so is one that claims none.
  for (std::uint32_t num_layers : {2u, 0u}) {
    const HandWrittenCheckpoint c = hand_written_v5(num_layers);
    std::stringstream buffer(c.bytes);
    Network net = hand_written_target();
    EXPECT_THROW(load_weights(net, buffer), Error) << num_layers;
    std::stringstream again(c.bytes);
    EXPECT_THROW(load_network(net.config(), again, 1, nullptr), Error)
        << num_layers;
  }
}

}  // namespace
}  // namespace slide
