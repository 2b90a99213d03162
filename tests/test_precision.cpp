// Int8 quantized-inference contract: builder knob, weight mirrors, memory
// accounting, fp32-vs-int8 prediction agreement, checkpoint precision tags
// and the rejection of legacy checkpoint headers.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/builder.h"
#include "core/serialize.h"
#include "core/trainer.h"
#include "data/synthetic.h"

namespace slide {
namespace {

SyntheticDataset tiny_data() {
  SyntheticConfig cfg;
  cfg.feature_dim = 300;
  cfg.label_dim = 60;
  cfg.num_train = 400;
  cfg.num_test = 120;
  cfg.features_per_label = 10;
  cfg.active_per_label = 6;
  cfg.seed = 91;
  return make_synthetic_xc(cfg);
}

/// Header word `word` of a saved checkpoint: magic, version, kind,
/// input_dim, hidden, num_layers, precision tag.
std::uint32_t header_word(const std::string& bytes, std::size_t word) {
  std::uint32_t value = 0;
  std::memcpy(&value, bytes.data() + 4 * word, sizeof(value));
  return value;
}

NetworkConfig net_config(const SyntheticDataset& data,
                         Precision precision = Precision::kFP32,
                         std::uint64_t seed = 123) {
  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 4;
  family.l = 10;
  NetworkConfig cfg =
      NetworkBuilder(data.train.feature_dim())
          .dense(8)
          .sampled(data.train.label_dim(), family, 16)
          .max_batch(16)
          .precision(precision)
          .seed(seed)
          .to_config();
  cfg.layers[0].table.range_pow = 8;
  return cfg;
}

/// A fixed-seed fixture model: it, and the agreement counts the tiers are
/// held to, are the same on every run, at any thread count.
void train_a_bit(Network& net, const Dataset& train, int iters = 80) {
  TrainerConfig tc;
  tc.batch_size = 16;
  tc.num_threads = 1;
  tc.learning_rate = 5e-3f;
  Trainer trainer(net, tc);
  trainer.train(train, iters);
}

TEST(Precision, BuilderAndParseRoundTrip) {
  const auto data = tiny_data();
  EXPECT_EQ(net_config(data).precision, Precision::kFP32);
  EXPECT_EQ(net_config(data, Precision::kInt8).precision, Precision::kInt8);
  EXPECT_EQ(parse_precision("fp32"), Precision::kFP32);
  EXPECT_EQ(parse_precision("int8"), Precision::kInt8);
  EXPECT_STREQ(to_string(Precision::kFP32), "fp32");
  EXPECT_STREQ(to_string(Precision::kInt8), "int8");
  EXPECT_THROW(parse_precision("int4"), Error);
  // The removed 16-bit tiers are typed errors that name the two left.
  for (const char* removed : {"bf16", "fp16"}) {
    try {
      parse_precision(removed);
      ADD_FAILURE() << removed << " parsed";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("fp32 | int8"), std::string::npos)
          << e.what();
    }
  }
  // Tags are checkpoint values: 1 and 2 (the removed tiers) stay retired.
  for (const Precision p : {Precision::kFP32, Precision::kInt8})
    EXPECT_EQ(precision_from_tag(static_cast<std::uint32_t>(p)), p);
  EXPECT_EQ(static_cast<std::uint32_t>(Precision::kInt8), 3u);
  for (const std::uint32_t tag : {1u, 2u, 4u})
    EXPECT_THROW(precision_from_tag(tag), Error) << tag;
}

TEST(Precision, Int8NetworkQuartersInferenceWeightBytes) {
  // Wider rows than the tiny fixture: the per-row fp32 scale amortizes over
  // the row length, so the quarter-bytes contract needs realistic (not
  // 8-wide) rows to be meaningful.
  const auto data = tiny_data();
  auto wide_config = [&](Precision p) {
    NetworkConfig cfg = net_config(data, p);
    cfg.hidden_units = 64;
    return cfg;
  };
  Network fp32(wide_config(Precision::kFP32), 2);
  Network int8(wide_config(Precision::kInt8), 2);

  const MemoryFootprint f32 = fp32.memory_footprint();
  const MemoryFootprint i8 = int8.memory_footprint();
  EXPECT_GT(i8.mirror_bytes, 0u);
  EXPECT_EQ(f32.master_weight_bytes, i8.master_weight_bytes);
  // s8 weights are a quarter of fp32; the per-row fp32 scales and biases
  // add a small per-unit overhead on top.
  EXPECT_LT(i8.inference_weight_bytes,
            f32.inference_weight_bytes / 4 + f32.inference_weight_bytes / 20);
  EXPECT_GE(i8.inference_weight_bytes, f32.inference_weight_bytes / 4);
  EXPECT_EQ(int8.precision(), Precision::kInt8);
}

TEST(Precision, Int8PredictionsAgreeWithFp32) {
  // Train fp32, reload the checkpoint at int8, and require >= 99% top-1
  // agreement (the acceptance bound of the quantized tier).
  const auto data = tiny_data();
  Network trained(net_config(data), 2);
  train_a_bit(trained, data.train);
  std::stringstream buffer;
  save_weights(trained, buffer);

  Network fp32(net_config(data, Precision::kFP32, 999), 2);
  buffer.seekg(0);
  load_weights(fp32, buffer);
  Network int8(net_config(data, Precision::kInt8, 555), 2);
  buffer.seekg(0);
  load_weights(int8, buffer);

  InferenceContext ctx_a(fp32), ctx_b(int8);
  int agree = 0, total = 0;
  for (const Sample& s : data.test.samples()) {
    const Index a = fp32.predict_top1(s.features, ctx_a, /*exact=*/true);
    const Index b = int8.predict_top1(s.features, ctx_b, /*exact=*/true);
    agree += a == b;
    ++total;
  }
  EXPECT_GE(agree, (total * 99) / 100) << agree << "/" << total;

  // The sampled (LSH) serving path must run through the same tier without
  // incident — smoke the non-exact scoring loop too.
  for (int i = 0; i < 20; ++i) {
    const Sample& s = data.test.samples()[static_cast<std::size_t>(i)];
    (void)int8.predict_top1(s.features, ctx_b, /*exact=*/false);
  }
}

TEST(Precision, Int8ScalesRederiveBitExactAcrossShardCounts) {
  // Per-row scales are never serialized: checkpoints carry fp32 masters and
  // the precision tag, and every load re-derives the mirror. Quantization
  // is row-local and deterministic, so the same checkpoint loaded under any
  // shard partition must serve identical predictions — if any row's scale
  // differed by even one ulp between partitions, scores (and orderings)
  // would drift.
  const auto data = tiny_data();
  Network trained(net_config(data), 2);
  train_a_bit(trained, data.train);
  std::stringstream buffer;
  save_weights(trained, buffer);

  std::vector<std::vector<std::vector<Index>>> per_shard_topk;
  for (const int shards : {0, 1, 4}) {
    NetworkConfig cfg = net_config(data, Precision::kInt8, 77);
    cfg.layers[0].shards = shards;
    Network net(cfg, 2);
    buffer.clear();
    buffer.seekg(0);
    load_weights(net, buffer);
    InferenceContext ctx(net);
    std::vector<std::vector<Index>> topk;
    for (const Sample& s : data.test.samples())
      topk.push_back(net.predict_topk(s.features, ctx, 5, /*exact=*/true));
    per_shard_topk.push_back(std::move(topk));
  }
  EXPECT_EQ(per_shard_topk[0], per_shard_topk[1]);
  EXPECT_EQ(per_shard_topk[0], per_shard_topk[2]);
}

TEST(Precision, RefreshMirrorsTracksTrainedWeights) {
  const auto data = tiny_data();
  Network net(net_config(data, Precision::kInt8), 2);
  InferenceContext ctx(net);
  // Mutate the masters (training); the mirror is stale until refreshed.
  train_a_bit(net, data.train, 40);
  net.refresh_inference_mirrors();
  // After the refresh, predictions through the int8 path must agree with an
  // fp32 clone of the same (trained) weights — i.e. the mirror reflects the
  // post-training masters, not the initialization.
  std::stringstream buffer;
  save_weights(net, buffer);
  Network fp32(net_config(data, Precision::kFP32, 7), 2);
  buffer.seekg(0);
  load_weights(fp32, buffer);
  InferenceContext ctx2(fp32);
  int agree = 0, total = 0;
  for (const Sample& s : data.test.samples()) {
    agree += net.predict_top1(s.features, ctx, true) ==
             fp32.predict_top1(s.features, ctx2, true);
    ++total;
  }
  EXPECT_GE(agree, (total * 99) / 100) << agree << "/" << total;
}

TEST(Precision, CheckpointCarriesPrecisionTag) {
  const auto data = tiny_data();
  Network int8(net_config(data, Precision::kInt8, 41), 2);
  std::stringstream buffer;
  save_weights(int8, buffer);
  EXPECT_EQ(header_word(buffer.str(), 1), 5u);
  EXPECT_EQ(header_word(buffer.str(), 6),
            static_cast<std::uint32_t>(Precision::kInt8));

  Network fp32(net_config(data), 2);
  std::stringstream buffer2;
  save_weights(fp32, buffer2);
  EXPECT_EQ(header_word(buffer2.str(), 6),
            static_cast<std::uint32_t>(Precision::kFP32));

  // The tag is provenance: an fp32 network loads the int8 file without a
  // mirror, and an int8 network re-derives its mirror from the loaded
  // masters (it is never serialized), so it serves what the saver served.
  buffer.seekg(0);
  Network restored(net_config(data, Precision::kFP32, 31), 2);
  load_weights(restored, buffer);
  EXPECT_EQ(restored.memory_footprint().mirror_bytes, 0u);
  buffer.clear();
  buffer.seekg(0);
  Network reloaded(net_config(data, Precision::kInt8, 43), 2);
  load_weights(reloaded, buffer);
  InferenceContext ctx_a(int8), ctx_b(reloaded);
  for (const Sample& s : data.test.samples())
    ASSERT_EQ(int8.predict_topk(s.features, ctx_a, 5, /*exact=*/true),
              reloaded.predict_topk(s.features, ctx_b, 5, /*exact=*/true));
}

TEST(Precision, LegacyCheckpointHeadersAreRejected) {
  // Only version 5 is read. A v5 file patched to an earlier version, to
  // kind 1 (the removed dense-baseline wrapper's files) or to precision tag
  // 1 or 2 (the removed 16-bit tiers) is refused, typed, by the load.
  const auto data = tiny_data();
  Network net(net_config(data), 2);
  std::stringstream buffer;
  save_weights(net, buffer);
  const std::string v5 = buffer.str();
  // Header words: magic, version, kind, input_dim, hidden, num_layers, tag.
  const auto patched = [&](std::size_t word, std::uint32_t value) {
    std::string bytes = v5;
    std::memcpy(bytes.data() + 4 * word, &value, sizeof(value));
    return bytes;
  };
  std::vector<std::string> files;
  for (std::uint32_t version = 1; version <= 4; ++version)
    files.push_back(patched(1, version));
  files.push_back(patched(2, /*kind=*/1));
  files.push_back(patched(6, /*tag=*/1));
  files.push_back(patched(6, /*tag=*/2));
  for (const std::string& bytes : files) {
    std::stringstream in(bytes);
    EXPECT_THROW(load_weights(net, in), Error);
  }
}

TEST(Precision, TrainingStaysOnFp32Masters) {
  // An int8 network and an fp32 network with identical seeds must train to
  // bit-identical master weights: the mirror never feeds back into
  // training math.
  const auto data = tiny_data();
  Network a(net_config(data, Precision::kFP32), 2);
  Network b(net_config(data, Precision::kInt8), 2);
  TrainerConfig tc;
  tc.batch_size = 16;
  tc.num_threads = 1;  // deterministic accumulation order
  tc.learning_rate = 5e-3f;
  tc.shuffle = false;
  Trainer ta(a, tc), tb(b, tc);
  ta.train(data.train, 25);
  tb.train(data.train, 25);
  const auto wa = a.output_layer().weights_span();
  const auto wb = b.output_layer().weights_span();
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i) ASSERT_EQ(wa[i], wb[i]) << i;
  const auto ea = a.embedding().weights_span();
  const auto eb = b.embedding().weights_span();
  for (std::size_t i = 0; i < ea.size(); ++i) ASSERT_EQ(ea[i], eb[i]) << i;
}

}  // namespace
}  // namespace slide
