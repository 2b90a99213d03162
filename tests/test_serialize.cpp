// Checkpointing tests: round-trip fidelity, architecture validation,
// corruption rejection (including a truncation and byte-flip fuzzer), and
// table rebuild after load.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/builder.h"
#include "core/serialize.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "metrics/metrics.h"
#include "sys/hugepages.h"

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

/// The fuzzers' tiny dataset.
SyntheticDataset fuzz_data() {
  SyntheticConfig dcfg;
  dcfg.feature_dim = 40;
  dcfg.label_dim = 12;
  dcfg.num_train = 80;
  dcfg.num_test = 4;
  dcfg.features_per_label = 5;
  dcfg.active_per_label = 3;
  dcfg.seed = 17;
  return make_synthetic_xc(dcfg);
}

/// A small LSH network over `data` (`shards` = 0: monolithic output).
NetworkConfig fuzz_config(const SyntheticDataset& data, int shards) {
  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 2;
  family.l = 2;
  NetworkBuilder b(data.train.feature_dim());
  b.dense(4).sampled(data.train.label_dim(), family, 6);
  b.table({.range_pow = 4, .bucket_size = 8});
  if (shards > 0) b.shards(shards);
  b.max_batch(16).seed(5);
  return b.to_config();
}

/// A v5 checkpoint with every optional section present: a grown layer
/// (appended-row word), retired units (tombstone block) and the retriever
/// descriptor. The LSH layer writes one block pair per shard (two by
/// default), the LSH retriever word and an empty aux block.
std::string fuzz_file(const SyntheticDataset& data, int shards = 2) {
  Network net(fuzz_config(data, shards), 2);
  train_a_bit(net, data.train, 5);
  net.add_output_units(3);
  net.retire_output_units(std::vector<Index>{2, 13});
  std::stringstream out;
  save_weights(net, out);
  return out.str();
}

/// fuzz_file ends in its last layer's retriever descriptor (a u32 word
/// and a u64 aux length) and its tombstone block (a u64 count and two u32
/// ids). All of it is format words.
constexpr std::size_t kDescriptorBytes = 12;
constexpr std::size_t kTombstoneBytes = 16;

/// fuzz_file `bytes` with the retriever descriptor rewritten to `word` and
/// an `aux`-byte payload, as older writers left for their exact (word 1)
/// and HNSW (word 2, the graph as payload) layers.
std::string with_retriever_descriptor(const std::string& bytes,
                                      std::uint32_t word, std::uint64_t aux) {
  const std::size_t at = bytes.size() - kTombstoneBytes - kDescriptorBytes;
  // The LSH writer's descriptor: word 0, empty payload.
  EXPECT_EQ(bytes.substr(at, kDescriptorBytes),
            std::string(kDescriptorBytes, '\0'));
  std::string out = bytes.substr(0, at);
  out.append(reinterpret_cast<const char*>(&word), sizeof(word));
  out.append(reinterpret_cast<const char*>(&aux), sizeof(aux));
  out.append(static_cast<std::size_t>(aux), '\xA5');
  out.append(bytes, bytes.size() - kTombstoneBytes, kTombstoneBytes);
  return out;
}

/// One fuzzed file and the network it is read into.
struct FuzzCase {
  const char* name;
  NetworkConfig reader;
  std::string bytes;
};

/// fuzz_file read back into the writer's config and into a monolithic one
/// (the reshard scatter). Both are tiny, so fuzzing every byte stays cheap.
std::vector<FuzzCase> fuzz_cases(const SyntheticDataset& data) {
  const std::string lsh = fuzz_file(data);
  return {{"S=2 lsh", fuzz_config(data, 2), lsh},
          {"S=2 lsh read as S=1", fuzz_config(data, 0), lsh}};
}

/// Loads `bytes` into a freshly built network. Returns true if it loaded
/// (and then still answers a sampled query), false on slide::Error; any
/// other exception is a contract violation and fails the test.
bool load_fuzzed(const FuzzCase& c, const std::string& bytes,
                 const SparseVector& query, const std::string& what) {
  Network net(c.reader, 1);
  std::stringstream in(bytes);
  try {
    load_weights(net, in);
  } catch (const Error&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << c.name << ", " << what << ": untyped " << e.what();
    return false;
  }
  InferenceContext ctx(net, 3);
  (void)net.predict_topk(query, ctx, 3, /*exact=*/false);
  return true;
}

TEST(Serialize, FuzzedCheckpointsFailWithTypedErrors) {
  // Every truncation and every single-byte flip of a v5 checkpoint either
  // loads or throws slide::Error: no allocation bomb from a count read off
  // the file (std::bad_alloc, std::length_error), no crash, no hang.
  const auto data = fuzz_data();
  const SparseVector& query = data.test[0].features;
  constexpr std::size_t kHeaderBytes = 7 * sizeof(std::uint32_t);
  constexpr std::size_t kTailBytes = kDescriptorBytes + kTombstoneBytes;
  // Thousands of networks are built below; with THP each array's first
  // touch zeroes a whole 2 MB page. Parsing does not depend on it.
  struct HugepagesOff {
    bool was = hugepages_enabled();
    HugepagesOff() { set_hugepages_enabled(false); }
    ~HugepagesOff() { set_hugepages_enabled(was); }
  } hugepages_off;

  for (const FuzzCase& c : fuzz_cases(data)) {
    ASSERT_TRUE(load_fuzzed(c, c.bytes, query, "unmutated")) << c.name;
    // The file ends in tombstone ids: every proper prefix is short.
    for (std::size_t keep = 0; keep < c.bytes.size(); ++keep) {
      EXPECT_FALSE(load_fuzzed(c, c.bytes.substr(0, keep), query,
                               "truncated to " + std::to_string(keep)))
          << c.name << ": truncated to " << keep << " bytes loaded";
    }
    for (std::size_t i = 0; i < c.bytes.size(); ++i) {
      std::string bytes = c.bytes;
      bytes[i] = static_cast<char>(bytes[i] ^ 0xFF);
      const bool loaded =
          load_fuzzed(c, bytes, query, "byte " + std::to_string(i));
      // Header words are checked against the target network; counts, ids
      // and kinds in the tail against the layer. Float payload flips may
      // load: any bit pattern is a float.
      if (i < kHeaderBytes || i >= c.bytes.size() - kTailBytes) {
        EXPECT_FALSE(loaded) << c.name << ": byte " << i << " of "
                             << c.bytes.size();
      }
    }
  }
}

TEST(Serialize, RetrieverDescriptorsOtherThanLshAreRejected) {
  // The loader reads only the LSH descriptor: word 0 and no aux payload.
  // Older writers' exact (word 1) and HNSW (word 2) descriptors, a word no
  // writer emitted (3) and any aux payload fail, typed, sharded or
  // monolithic.
  const auto data = fuzz_data();
  for (int shards : {2, 0}) {
    const NetworkConfig cfg = fuzz_config(data, shards);
    const std::string lsh = fuzz_file(data, shards);
    {
      Network net(cfg, 1);
      std::stringstream in(lsh);
      EXPECT_NO_THROW(load_weights(net, in)) << shards << " shards";
    }
    const std::pair<std::uint32_t, std::uint64_t> descriptors[] = {
        {1, 0}, {2, 0}, {3, 0}, {0, 64}};
    for (const auto& [word, aux] : descriptors) {
      Network net(cfg, 1);
      std::stringstream in(with_retriever_descriptor(lsh, word, aux));
      EXPECT_THROW(load_weights(net, in), Error)
          << shards << " shards, word " << word << ", aux " << aux;
    }
  }
}

TEST(Serialize, WritesVersion5WithPrecisionTagAndRejectsFutureVersions) {
  const auto data = tiny_data();
  Network net(net_config(data), 2);
  std::stringstream buffer;
  save_weights(net, buffer);
  std::string bytes = buffer.str();

  // Header words: magic, version, kind, input_dim, hidden, num_layers, tag.
  std::uint32_t version = 0, kind = 1, tag = 0;
  std::memcpy(&version, bytes.data() + 4, 4);
  std::memcpy(&kind, bytes.data() + 8, 4);
  std::memcpy(&tag, bytes.data() + 24, 4);
  EXPECT_EQ(version, 5u);
  EXPECT_EQ(kind, 0u);
  EXPECT_EQ(tag, static_cast<std::uint32_t>(Precision::kFP32));

  // A version from the future must be rejected, not misparsed.
  const std::uint32_t future = 99;
  std::memcpy(bytes.data() + 4, &future, 4);
  std::stringstream tampered(bytes);
  EXPECT_THROW(load_weights(net, tampered), Error);
}

TEST(Serialize, KindMismatchRejected) {
  // The kind word must read 0: kind 1 was the removed dense-baseline
  // wrapper's layout, and any other value is not a checkpoint kind.
  const auto data = tiny_data();
  Network slide_net(net_config(data), 2);
  std::stringstream buffer;
  save_weights(slide_net, buffer);
  for (const std::uint32_t kind : {1u, 2u}) {
    std::string bytes = buffer.str();
    std::memcpy(bytes.data() + 8, &kind, 4);
    std::stringstream load_in(bytes);
    EXPECT_THROW(load_weights(slide_net, load_in), Error) << kind;
  }
}

}  // namespace
}  // namespace slide
