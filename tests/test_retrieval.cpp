// Retrieval subsystem tests: the Retriever contract on the LSH and exact
// backends (range, dedupe, tombstones, epoch disjointness), a checkpoint
// round trip through both, and the recall_at_k helper.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <vector>

#include "core/builder.h"
#include "core/serialize.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "metrics/metrics.h"
#include "retrieval/exact_retriever.h"
#include "retrieval/lsh_retriever.h"

namespace slide {
namespace {

using retrieval::ExactRetriever;
using retrieval::LshRetriever;
using retrieval::Retriever;
using retrieval::RowView;

// ---------------------------------------------------------------------------
// Standalone backends over a shared row collection
// ---------------------------------------------------------------------------

constexpr Index kRows = 200;
constexpr Index kDim = 16;

const std::vector<float>& rows_storage() {
  static const std::vector<float> storage = [] {
    Rng rng(314);
    std::vector<float> s(static_cast<std::size_t>(kRows) * kDim);
    for (float& v : s) v = rng.normal();
    return s;
  }();
  return storage;
}

RowView rows_view() { return {rows_storage().data(), kDim, kRows}; }

enum class Backend { kLsh, kExact };

const char* to_string(Backend backend) {
  return backend == Backend::kLsh ? "lsh" : "exact";
}

std::unique_ptr<Retriever> make_backend(Backend backend) {
  switch (backend) {
    case Backend::kLsh: {
      HashFamilyConfig family;
      family.kind = HashFamilyKind::kSimhash;
      family.k = 4;
      family.l = 8;
      family.dim = kDim;
      SamplingConfig sampling;
      sampling.strategy = SamplingStrategy::kTopK;
      return std::make_unique<LshRetriever>(
          make_hash_family(family),
          HashTable::Config{.range_pow = 8, .bucket_size = 32}, sampling,
          rows_view(), /*seed=*/99);
    }
    case Backend::kExact:
      return std::make_unique<ExactRetriever>(rows_view());
  }
  return nullptr;
}

std::vector<float> query_vec(std::uint64_t seed = 5) {
  Rng rng(seed);
  std::vector<float> q(kDim);
  for (float& v : q) v = rng.normal();
  return q;
}

std::vector<Index> retrieve_ids(const Retriever& r, const float* q,
                                Index budget, VisitedSet& visited, Rng& rng,
                                bool fresh_epoch = true) {
  std::vector<Index> out;
  r.retrieve({}, std::span<const float>(q, kDim), budget, rng, visited, out,
             fresh_epoch);
  return out;
}

const Backend kBackends[] = {Backend::kLsh, Backend::kExact};

TEST(Retrieval, ContractInRangeUniqueAndStamped) {
  for (Backend kind : kBackends) {
    auto r = make_backend(kind);
    r->rebuild(nullptr);
    VisitedSet visited(kRows);
    Rng rng(1);
    const auto q = query_vec();
    const auto ids = retrieve_ids(*r, q.data(), 64, visited, rng);
    ASSERT_FALSE(ids.empty()) << to_string(kind);
    std::set<Index> unique(ids.begin(), ids.end());
    EXPECT_EQ(unique.size(), ids.size())
        << to_string(kind) << ": duplicate candidate ids";
    for (Index id : ids) {
      EXPECT_LT(id, kRows) << to_string(kind);
      EXPECT_TRUE(visited.contains(id))
          << to_string(kind) << ": id " << id << " not stamped on return";
    }
  }
}

TEST(Retrieval, ContractSameEpochCallsAreDisjoint) {
  for (Backend kind : kBackends) {
    auto r = make_backend(kind);
    r->rebuild(nullptr);
    VisitedSet visited(kRows);
    Rng rng(1);
    const auto q = query_vec();
    visited.begin_epoch();
    const auto first =
        retrieve_ids(*r, q.data(), 40, visited, rng, /*fresh_epoch=*/false);
    const auto second =
        retrieve_ids(*r, q.data(), 40, visited, rng, /*fresh_epoch=*/false);
    std::set<Index> seen(first.begin(), first.end());
    for (Index id : second) {
      EXPECT_EQ(seen.count(id), 0u)
          << to_string(kind) << ": id " << id << " returned twice in epoch";
    }
  }
}

TEST(Retrieval, ContractPreStampedIdsAreExcluded) {
  for (Backend kind : kBackends) {
    auto r = make_backend(kind);
    r->rebuild(nullptr);
    VisitedSet visited(kRows);
    Rng rng(1);
    const auto q = query_vec();
    // Pre-stamp a block of ids (the layer stamps forced labels this way).
    visited.begin_epoch();
    for (Index id = 0; id < 50; ++id) visited.insert(id);
    const auto ids =
        retrieve_ids(*r, q.data(), kRows, visited, rng, /*fresh_epoch=*/false);
    for (Index id : ids)
      EXPECT_GE(id, 50u) << to_string(kind) << ": pre-stamped id returned";
  }
}

TEST(Retrieval, RemoveMasksUntilReinsert) {
  for (Backend kind : kBackends) {
    auto r = make_backend(kind);
    r->rebuild(nullptr);
    VisitedSet visited(kRows);
    Rng rng(1);
    const auto q = query_vec();
    // Find an id the backend returns, remove it, and expect it gone.
    const auto before = retrieve_ids(*r, q.data(), kRows, visited, rng);
    ASSERT_FALSE(before.empty());
    const Index victim = before.front();
    r->remove(victim);
    const auto after = retrieve_ids(*r, q.data(), kRows, visited, rng);
    EXPECT_EQ(std::count(after.begin(), after.end(), victim), 0)
        << to_string(kind);
    // rebuild() must NOT clear the mask...
    r->rebuild(nullptr);
    const auto rebuilt = retrieve_ids(*r, q.data(), kRows, visited, rng);
    EXPECT_EQ(std::count(rebuilt.begin(), rebuilt.end(), victim), 0)
        << to_string(kind);
    // ...but insert() resurrects.
    r->insert(victim);
    const auto back = retrieve_ids(*r, q.data(), kRows, visited, rng);
    EXPECT_GE(std::count(back.begin(), back.end(), victim), 0)
        << to_string(kind);
    // The exact scan must literally contain it again.
    if (kind == Backend::kExact) {
      EXPECT_EQ(std::count(back.begin(), back.end(), victim), 1);
    }
  }
}

TEST(Retrieval, ExactScanReturnsWholeUniverse) {
  auto r = make_backend(Backend::kExact);
  r->rebuild(nullptr);
  VisitedSet visited(kRows);
  Rng rng(1);
  const auto q = query_vec();
  // budget is documented-ignored: the whole universe comes back.
  const auto ids = retrieve_ids(*r, q.data(), /*budget=*/3, visited, rng);
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kRows));
}

// ---------------------------------------------------------------------------
// Network-level fixtures
// ---------------------------------------------------------------------------

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

NetworkConfig net_config(const SyntheticDataset& data) {
  NetworkBuilder b(data.train.feature_dim());
  b.dense(16).sampled(data.train.label_dim(), small_family(), 16);
  b.table({.range_pow = 8, .bucket_size = 32});
  b.max_batch(32).seed(123);
  return b.to_config();
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
// Builder + layer integration
// ---------------------------------------------------------------------------

TEST(Retrieval, NetworkTrainsAndPredictsWithEachBackend) {
  // The hashed layer samples candidates from its LSH tables; `exact`
  // scores every unit instead.
  const auto data = tiny_data();
  Network net(net_config(data), 2);
  ASSERT_NE(net.output_layer().retriever(), nullptr);
  train(net, data, 30);
  for (bool exact : {false, true}) {
    InferenceContext ctx(net, 7);
    int nonempty = 0;
    for (std::size_t i = 0; i < 10; ++i) {
      const auto top = net.predict_topk(data.test[i].features, ctx, 5, exact);
      for (Index label : top) EXPECT_LT(label, data.test.label_dim());
      nonempty += top.empty() ? 0 : 1;
    }
    EXPECT_GT(nonempty, 0) << (exact ? "exact" : "lsh");
  }
}

// ---------------------------------------------------------------------------
// Checkpoint round trip
// ---------------------------------------------------------------------------

TEST(Retrieval, CheckpointV4RoundTripPerBackend) {
  // Both backends survive a save/load: the exact scan reads only the
  // weights, and the loader rebuilds the LSH tables from them.
  const auto data = tiny_data();
  Network src(net_config(data), 2);
  train(src, data, 30);
  // Re-index from the final weights: src's tables otherwise reflect its
  // mid-training rebuild history, which a loader (that rebuilds from the
  // final weights) cannot reproduce.
  src.rebuild_all(nullptr);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_weights(src, buffer);

  Network dst(net_config(data), 2);
  load_weights(dst, buffer);
  // Exact scoring depends only on the weights: must match bit for bit.
  InferenceContext cs(src, 7), cd(dst, 7);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(src.predict_topk(data.test[i].features, cs, 5, true),
              dst.predict_topk(data.test[i].features, cd, 5, true));
  }
  // Sampled scoring exercises the rebuilt tables.
  InferenceContext cs2(src, 9), cd2(dst, 9);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(src.predict_topk(data.test[i].features, cs2, 5),
              dst.predict_topk(data.test[i].features, cd2, 5));
  }
}

// ---------------------------------------------------------------------------
// recall_at_k
// ---------------------------------------------------------------------------

TEST(Retrieval, RecallAtK) {
  const std::vector<Index> oracle = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(recall_at_k(std::vector<Index>{1, 2, 3, 4}, oracle), 1.0);
  EXPECT_DOUBLE_EQ(recall_at_k(std::vector<Index>{1, 2}, oracle), 0.5);
  EXPECT_DOUBLE_EQ(recall_at_k(std::vector<Index>{9, 8}, oracle), 0.0);
  EXPECT_DOUBLE_EQ(recall_at_k(std::vector<Index>{}, oracle), 0.0);
  // Duplicates count once, on either side.
  EXPECT_DOUBLE_EQ(recall_at_k(std::vector<Index>{1, 1, 1}, oracle), 0.25);
  EXPECT_DOUBLE_EQ(
      recall_at_k(std::vector<Index>{1, 2}, std::vector<Index>{1, 1, 2}),
      1.0);
  // Empty oracle: nothing to recall.
  EXPECT_DOUBLE_EQ(recall_at_k(std::vector<Index>{1}, std::vector<Index>{}),
                   1.0);
}

}  // namespace
}  // namespace slide
