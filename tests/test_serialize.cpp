// Checkpointing tests: round-trip fidelity for both network kinds,
// architecture validation, corruption rejection, and table rebuild after
// load.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "core/serialize.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "metrics/metrics.h"

namespace slide {
namespace {

SyntheticDataset tiny_data() {
  SyntheticConfig cfg;
  cfg.feature_dim = 300;
  cfg.label_dim = 60;
  cfg.num_train = 400;
  cfg.num_test = 100;
  cfg.features_per_label = 10;
  cfg.active_per_label = 6;
  cfg.seed = 91;
  return make_synthetic_xc(cfg);
}

NetworkConfig net_config(const SyntheticDataset& data,
                         std::uint64_t seed = 123) {
  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 4;
  family.l = 10;
  NetworkConfig cfg = make_paper_network(data.train.feature_dim(),
                                         data.train.label_dim(), family, 16,
                                         8);
  cfg.max_batch_size = 16;
  cfg.layers[0].table.range_pow = 8;
  cfg.seed = seed;
  return cfg;
}

void train_a_bit(Network& net, const Dataset& train, int iters = 40) {
  TrainerConfig tc;
  tc.batch_size = 16;
  tc.num_threads = 2;
  tc.learning_rate = 5e-3f;
  Trainer trainer(net, tc);
  trainer.train(train, iters);
}

TEST(Serialize, NetworkRoundTripPreservesAllParameters) {
  const auto data = tiny_data();
  Network trained(net_config(data), 2);
  train_a_bit(trained, data.train);

  std::stringstream buffer;
  save_weights(trained, buffer);

  // Different seed -> different initial weights; load must overwrite all.
  Network restored(net_config(data, 999), 2);
  load_weights(restored, buffer);

  const auto tw = trained.embedding().weights_span();
  const auto rw = restored.embedding().weights_span();
  ASSERT_EQ(tw.size(), rw.size());
  for (std::size_t i = 0; i < tw.size(); ++i) ASSERT_EQ(tw[i], rw[i]);
  const auto tow = trained.output_layer().weights_span();
  const auto row = restored.output_layer().weights_span();
  for (std::size_t i = 0; i < tow.size(); ++i) ASSERT_EQ(tow[i], row[i]);
  for (Index u = 0; u < trained.output_layer().units(); ++u)
    ASSERT_EQ(trained.output_layer().bias(u), restored.output_layer().bias(u));
}

TEST(Serialize, RestoredNetworkPredictsIdentically) {
  const auto data = tiny_data();
  Network trained(net_config(data), 2);
  train_a_bit(trained, data.train);
  std::stringstream buffer;
  save_weights(trained, buffer);
  Network restored(net_config(data, 999), 2);
  load_weights(restored, buffer);

  InferenceContext ca(trained.max_sampled_units());
  InferenceContext cb(restored.max_sampled_units());
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(trained.predict_top1(data.test[i].features, ca, true),
              restored.predict_top1(data.test[i].features, cb, true))
        << i;
  }
  // Sampled inference works too (tables were rebuilt on load).
  ThreadPool pool(2);
  const double acc = evaluate_p_at_1(restored, data.test, pool, {});
  EXPECT_GE(acc, 0.0);
}

TEST(Serialize, FileRoundTrip) {
  const auto data = tiny_data();
  Network trained(net_config(data), 2);
  train_a_bit(trained, data.train, 10);
  const std::string path = "/tmp/slide_test_checkpoint.bin";
  save_weights_file(trained, path);
  Network restored(net_config(data, 7), 2);
  ThreadPool pool(2);
  load_weights_file(restored, path, &pool);
  EXPECT_EQ(trained.embedding().weights_span()[0],
            restored.embedding().weights_span()[0]);
  std::remove(path.c_str());
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Runs `fn` with the process's file-size limit lowered to `bytes` and
/// SIGXFSZ ignored: a write past the limit then fails with EFBIG instead of
/// killing the process — a save that dies part-way.
template <class Fn>
void with_file_size_limit(rlim_t bytes, Fn fn) {
  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit lowered = saved;
  lowered.rlim_cur = bytes;
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &lowered), 0);
  fn();
  setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, old_handler);
}

TEST(Serialize, FailedSaveLeavesThePreviousCheckpointIntact) {
  const auto data = tiny_data();
  Network net(net_config(data), 2);
  train_a_bit(net, data.train, 10);
  const auto dir = std::filesystem::temp_directory_path();
  const std::string path = (dir / "slide_test_crash_safe.ckpt").string();
  save_weights_file(net, path);
  const std::string saved = file_bytes(path);
  const std::span<const float> w = net.embedding().weights_span();
  const std::vector<float> saved_embedding(w.begin(), w.end());

  // Train on, then let the save of the new state die half-way through.
  train_a_bit(net, data.train, 10);
  with_file_size_limit(saved.size() / 2, [&] {
    EXPECT_THROW(save_weights_file(net, path), Error);
  });
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(file_bytes(path), saved);
  Network restored(net_config(data), 2);
  ASSERT_NO_THROW(load_weights_file(restored, path));
  const std::span<const float> r = restored.embedding().weights_span();
  ASSERT_EQ(r.size(), saved_embedding.size());
  EXPECT_EQ(std::memcmp(r.data(), saved_embedding.data(),
                        r.size() * sizeof(float)),
            0);
  std::remove(path.c_str());

  // Per-shard files go through the same writer.
  const std::string shard = (dir / "slide_test_crash_safe.shard").string();
  const ShardFileInfo info{.rows = 2, .fan_in = 3};
  const std::vector<float> weights(6, 1.0f), bias(2, 2.0f);
  save_shard_file(shard, info, weights, bias);
  const std::string shard_saved = file_bytes(shard);
  const std::vector<float> newer(6, 3.0f);
  with_file_size_limit(shard_saved.size() / 2, [&] {
    EXPECT_THROW(save_shard_file(shard, info, newer, bias), Error);
  });
  EXPECT_FALSE(std::filesystem::exists(shard + ".tmp"));
  EXPECT_EQ(file_bytes(shard), shard_saved);
  std::remove(shard.c_str());
}

TEST(Serialize, RejectsArchitectureMismatch) {
  const auto data = tiny_data();
  Network trained(net_config(data), 2);
  std::stringstream buffer;
  save_weights(trained, buffer);

  // Wider hidden layer.
  NetworkConfig other = net_config(data);
  other.hidden_units = 16;
  Network wrong(other, 2);
  EXPECT_THROW(load_weights(wrong, buffer), Error);
}

TEST(Serialize, RejectsGarbageAndTruncation) {
  const auto data = tiny_data();
  Network net(net_config(data), 2);
  {
    std::stringstream buffer("this is not a checkpoint at all");
    EXPECT_THROW(load_weights(net, buffer), Error);
  }
  {
    std::stringstream buffer;
    save_weights(net, buffer);
    std::string bytes = buffer.str();
    bytes.resize(bytes.size() / 2);  // truncate
    std::stringstream half(bytes);
    EXPECT_THROW(load_weights(net, half), Error);
  }
}

TEST(Serialize, WritesVersion5WithPrecisionTagAndRejectsFutureVersions) {
  const auto data = tiny_data();
  Network net(net_config(data), 2);
  std::stringstream buffer;
  save_weights(net, buffer);
  std::string bytes = buffer.str();

  // Header words: magic, version, kind, input_dim, hidden, num_layers, tag.
  std::uint32_t version = 0, tag = 0;
  std::memcpy(&version, bytes.data() + 4, 4);
  std::memcpy(&tag, bytes.data() + 24, 4);
  EXPECT_EQ(version, 5u);
  EXPECT_EQ(tag, static_cast<std::uint32_t>(Precision::kFP32));

  // A version from the future must be rejected, not misparsed.
  const std::uint32_t future = 99;
  std::memcpy(bytes.data() + 4, &future, 4);
  std::stringstream tampered(bytes);
  EXPECT_THROW(load_weights(net, tampered), Error);
}

TEST(Serialize, DenseNetworkRoundTrip) {
  const auto data = tiny_data();
  DenseNetwork::Config cfg;
  cfg.input_dim = data.train.feature_dim();
  cfg.hidden_units = 8;
  cfg.output_units = data.train.label_dim();
  cfg.max_batch_size = 16;
  DenseNetwork a(cfg, 2);
  ThreadPool pool(2);
  Batcher batcher(data.train, 16, true, 5);
  for (int i = 0; i < 20; ++i) a.step(data.train, batcher.next(), 5e-3f, pool);

  std::stringstream buffer;
  save_weights(a, buffer);
  cfg.seed = 777;
  DenseNetwork b(cfg, 2);
  load_weights(b, buffer);

  std::vector<float> sa, sb;
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(a.predict_top1(data.test[i].features, sa),
              b.predict_top1(data.test[i].features, sb));
  }
}

TEST(Serialize, KindMismatchRejected) {
  const auto data = tiny_data();
  Network slide_net(net_config(data), 2);
  std::stringstream buffer;
  save_weights(slide_net, buffer);

  DenseNetwork::Config cfg;
  cfg.input_dim = data.train.feature_dim();
  cfg.hidden_units = 8;
  cfg.output_units = data.train.label_dim();
  cfg.max_batch_size = 4;
  DenseNetwork dense(cfg, 1);
  EXPECT_THROW(load_weights(dense, buffer), Error);
}

TEST(Serialize, IncrementalMemoInvalidatedOnLoad) {
  // A network with incremental rehash must re-project after a load; the
  // sampled predictions of two identically-loaded networks must agree.
  const auto data = tiny_data();
  NetworkConfig cfg = net_config(data);
  cfg.layers[0].incremental_rehash = true;
  Network trained(cfg, 2);
  train_a_bit(trained, data.train, 20);
  std::stringstream buffer;
  save_weights(trained, buffer);

  Network restored(cfg, 2);
  load_weights(restored, buffer);
  InferenceContext ca(trained.max_sampled_units(), 5);
  InferenceContext cb(restored.max_sampled_units(), 5);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(trained.predict_top1(data.test[i].features, ca, true),
              restored.predict_top1(data.test[i].features, cb, true));
  }
}

}  // namespace
}  // namespace slide
