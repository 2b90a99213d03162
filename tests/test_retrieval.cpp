// Retrieval subsystem tests: the per-backend Retriever contract (range,
// dedupe, tombstones, epoch disjointness), HNSW seeded-build bit-stability
// and save/load round-trips, checkpoint-v4 aux blocks, the batch-iterator
// page-prefix equivalence (monolithic, sharded, and through the serve
// engine), the adaptive escalation-to-exact policy, the retriever(lsh)
// bit-identity anchor, and the recall_at_k helper.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <sstream>
#include <vector>

#include "core/builder.h"
#include "core/serialize.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "metrics/metrics.h"
#include "retrieval/exact_retriever.h"
#include "retrieval/hnsw_retriever.h"
#include "retrieval/lsh_retriever.h"
#include "serve/engine.h"

namespace slide {
namespace {

using retrieval::ExactRetriever;
using retrieval::HnswConfig;
using retrieval::HnswRetriever;
using retrieval::LshRetriever;
using retrieval::Retriever;
using retrieval::RetrieverKind;
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

std::unique_ptr<Retriever> make_backend(RetrieverKind kind,
                                        std::uint64_t seed = 99) {
  switch (kind) {
    case RetrieverKind::kLsh: {
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
          rows_view(), seed);
    }
    case RetrieverKind::kExact:
      return std::make_unique<ExactRetriever>(rows_view());
    case RetrieverKind::kHnsw:
      return std::make_unique<HnswRetriever>(
          rows_view(), HnswConfig{.m = 8, .ef_construction = 64,
                                  .ef_search = 32},
          seed);
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

const RetrieverKind kAllKinds[] = {RetrieverKind::kLsh, RetrieverKind::kExact,
                                   RetrieverKind::kHnsw};

TEST(Retrieval, ContractInRangeUniqueAndStamped) {
  for (RetrieverKind kind : kAllKinds) {
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
  for (RetrieverKind kind : kAllKinds) {
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
  for (RetrieverKind kind : kAllKinds) {
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
  for (RetrieverKind kind : kAllKinds) {
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
    if (kind == RetrieverKind::kExact)
      EXPECT_EQ(std::count(back.begin(), back.end(), victim), 1);
  }
}

TEST(Retrieval, ExactScanReturnsWholeUniverse) {
  auto r = make_backend(RetrieverKind::kExact);
  r->rebuild(nullptr);
  VisitedSet visited(kRows);
  Rng rng(1);
  const auto q = query_vec();
  // budget is documented-ignored: the whole universe comes back.
  const auto ids = retrieve_ids(*r, q.data(), /*budget=*/3, visited, rng);
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kRows));
}

TEST(Retrieval, KindStringsRoundTrip) {
  for (RetrieverKind kind : kAllKinds)
    EXPECT_EQ(retrieval::parse_retriever_kind(to_string(kind)), kind);
  EXPECT_THROW(retrieval::parse_retriever_kind("bogus"), Error);
}

// ---------------------------------------------------------------------------
// HNSW determinism + serialization
// ---------------------------------------------------------------------------

std::string hnsw_state(const HnswRetriever& r) {
  std::ostringstream out(std::ios::binary);
  r.save_state(out);
  return out.str();
}

TEST(Retrieval, HnswSeededBuildIsBitStable) {
  auto a = make_backend(RetrieverKind::kHnsw, 7);
  auto b = make_backend(RetrieverKind::kHnsw, 7);
  a->rebuild(nullptr);
  b->rebuild(nullptr);
  EXPECT_EQ(hnsw_state(static_cast<const HnswRetriever&>(*a)),
            hnsw_state(static_cast<const HnswRetriever&>(*b)));
  // Rebuilding in place reproduces the same graph bit for bit.
  a->rebuild(nullptr);
  EXPECT_EQ(hnsw_state(static_cast<const HnswRetriever&>(*a)),
            hnsw_state(static_cast<const HnswRetriever&>(*b)));
}

TEST(Retrieval, HnswSaveLoadRoundTrip) {
  auto built = make_backend(RetrieverKind::kHnsw, 7);
  built->rebuild(nullptr);
  const std::string bytes =
      hnsw_state(static_cast<const HnswRetriever&>(*built));

  auto loaded = make_backend(RetrieverKind::kHnsw, 7);
  std::istringstream in(bytes, std::ios::binary);
  ASSERT_TRUE(loaded->load_state(in));  // usable WITHOUT a rebuild
  EXPECT_EQ(hnsw_state(static_cast<const HnswRetriever&>(*loaded)), bytes);

  VisitedSet va(kRows), vb(kRows);
  Rng ra(1), rb(1);
  for (std::uint64_t s = 0; s < 5; ++s) {
    const auto q = query_vec(s);
    EXPECT_EQ(retrieve_ids(*built, q.data(), 32, va, ra),
              retrieve_ids(*loaded, q.data(), 32, vb, rb));
  }
}

TEST(Retrieval, HnswFindsPlantedNeighbor) {
  // A query equal to a stored row must retrieve that row first.
  auto r = make_backend(RetrieverKind::kHnsw);
  r->rebuild(nullptr);
  VisitedSet visited(kRows);
  Rng rng(1);
  for (Index id : {Index{3}, Index{77}, Index{199}}) {
    const float* q = rows_view().row(id);
    const auto ids = retrieve_ids(*r, q, 16, visited, rng);
    ASSERT_FALSE(ids.empty());
    EXPECT_EQ(ids.front(), id);
  }
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

NetworkConfig net_config(const SyntheticDataset& data,
                         RetrieverKind kind = RetrieverKind::kLsh,
                         Index escalation_floor = 0, int shards = 0) {
  NetworkBuilder b(data.train.feature_dim());
  b.dense(16).sampled(data.train.label_dim(), small_family(), 16);
  b.table({.range_pow = 8, .bucket_size = 32});
  b.retriever(kind);
  if (kind == RetrieverKind::kHnsw)
    b.hnsw({.m = 6, .ef_construction = 32, .ef_search = 24});
  if (escalation_floor > 0) {
    SamplingConfig sampling;
    sampling.strategy = SamplingStrategy::kTopK;
    sampling.target = 16;
    sampling.escalation_floor = escalation_floor;
    b.sampling_config(sampling);
    b.fill_random_to_target(false);
  }
  if (shards > 0) b.shards(shards);
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

TEST(Retrieval, BuilderRejectsNonLshRetrieverOnUnhashedLayer) {
  NetworkBuilder b(8);
  b.dense(4).dense(8, Activation::kSoftmax);
  EXPECT_THROW(b.retriever(RetrieverKind::kHnsw), Error);
  EXPECT_THROW(b.hnsw({.m = 1}), Error);  // m < 2
}

TEST(Retrieval, NetworkTrainsAndPredictsWithEachBackend) {
  const auto data = tiny_data();
  for (RetrieverKind kind : kAllKinds) {
    Network net(net_config(data, kind), 2);
    EXPECT_EQ(net.output_layer().retriever_kind(), kind);
    train(net, data, 30);
    InferenceContext ctx(net, 7);
    int nonempty = 0;
    for (std::size_t i = 0; i < 10; ++i) {
      const auto top = net.predict_topk(data.test[i].features, ctx, 5);
      for (Index label : top) EXPECT_LT(label, data.test.label_dim());
      nonempty += top.empty() ? 0 : 1;
    }
    EXPECT_GT(nonempty, 0) << to_string(kind);
  }
}

TEST(Retrieval, LshRetrieverConfigIsBitIdenticalToDefault) {
  // retriever(lsh) is the refactored path behind the historical behavior:
  // training from the same seed must produce bit-identical weights and
  // predictions vs a config that never mentions the retriever knob.
  const auto data = tiny_data();
  // `explicit_cfg` goes through the .retriever(lsh) knob; `default_cfg`
  // never mentions the retriever at all.
  NetworkConfig explicit_cfg = net_config(data, RetrieverKind::kLsh);
  NetworkBuilder b_default(data.train.feature_dim());
  b_default.dense(16).sampled(data.train.label_dim(), small_family(), 16);
  b_default.table({.range_pow = 8, .bucket_size = 32});
  b_default.max_batch(32).seed(123);
  NetworkConfig default_cfg = b_default.to_config();

  // Single-threaded training: gradient application order is then
  // deterministic, so any weight difference is a retriever-path difference.
  Network a(explicit_cfg, 1), b(default_cfg, 1);
  train(a, data, 40, /*threads=*/1);
  train(b, data, 40, /*threads=*/1);
  for (int s = 0; s < a.output_layer().num_shards(); ++s) {
    const auto wa = a.output_layer().shard_weights(s);
    const auto wb = b.output_layer().shard_weights(s);
    ASSERT_EQ(wa.size(), wb.size());
    EXPECT_EQ(std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(float)),
              0);
  }
  InferenceContext ca(a, 7), cb(b, 7);
  for (std::size_t i = 0; i < data.test.size(); ++i) {
    EXPECT_EQ(a.predict_topk(data.test[i].features, ca, 5),
              b.predict_topk(data.test[i].features, cb, 5));
  }
}

// ---------------------------------------------------------------------------
// Checkpoint v4
// ---------------------------------------------------------------------------

TEST(Retrieval, CheckpointV4RoundTripPerBackend) {
  const auto data = tiny_data();
  for (RetrieverKind kind : kAllKinds) {
    Network src(net_config(data, kind), 2);
    train(src, data, 30);
    // Re-index from the final weights: src's index otherwise reflects its
    // mid-training rebuild history, which a loader (that rebuilds from the
    // final weights) cannot reproduce.
    src.rebuild_all(nullptr);
    std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
    save_weights(src, buffer);

    Network dst(net_config(data, kind), 2);
    load_weights(dst, buffer);
    // Exact scoring depends only on the weights: must match bit for bit.
    InferenceContext cs(src, 7), cd(dst, 7);
    for (std::size_t i = 0; i < 10; ++i) {
      EXPECT_EQ(src.predict_topk(data.test[i].features, cs, 5, true),
                dst.predict_topk(data.test[i].features, cd, 5, true))
          << to_string(kind);
    }
    // Sampled scoring exercises the restored (or rebuilt) index.
    InferenceContext cs2(src, 9), cd2(dst, 9);
    for (std::size_t i = 0; i < 10; ++i) {
      EXPECT_EQ(src.predict_topk(data.test[i].features, cs2, 5),
                dst.predict_topk(data.test[i].features, cd2, 5))
          << to_string(kind);
    }
  }
}

TEST(Retrieval, CheckpointHnswGraphSurvivesWithoutRebuild) {
  // The v4 aux block must restore the HNSW graph byte-identically — not
  // merely an equivalent rebuild.
  const auto data = tiny_data();
  Network src(net_config(data, RetrieverKind::kHnsw), 2);
  train(src, data, 30);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_weights(src, buffer);

  Network dst(net_config(data, RetrieverKind::kHnsw), 2);
  load_weights(dst, buffer);
  const auto* src_layer =
      dynamic_cast<const SampledLayer*>(&src.output_layer());
  const auto* dst_layer =
      dynamic_cast<const SampledLayer*>(&dst.output_layer());
  ASSERT_NE(src_layer, nullptr);
  ASSERT_NE(dst_layer, nullptr);
  std::ostringstream sa(std::ios::binary), sb(std::ios::binary);
  src_layer->save_retriever_state(sa);
  dst_layer->save_retriever_state(sb);
  EXPECT_FALSE(sa.str().empty());
  EXPECT_EQ(sa.str(), sb.str());
}

TEST(Retrieval, CheckpointCrossRetrieverKindSkipsAuxBlock) {
  // A checkpoint written by an HNSW-configured network loads into an
  // LSH-configured one (and vice versa): the weights transfer, the
  // mismatched aux block is skipped, and the target rebuilds its own index.
  const auto data = tiny_data();
  Network hnsw_net(net_config(data, RetrieverKind::kHnsw), 2);
  train(hnsw_net, data, 30);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_weights(hnsw_net, buffer);

  Network lsh_net(net_config(data, RetrieverKind::kLsh), 2);
  load_weights(lsh_net, buffer);
  InferenceContext ch(hnsw_net, 7), cl(lsh_net, 7);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(hnsw_net.predict_topk(data.test[i].features, ch, 5, true),
              lsh_net.predict_topk(data.test[i].features, cl, 5, true));
  }

  buffer.clear();
  buffer.seekg(0);
  Network lsh2(net_config(data, RetrieverKind::kLsh), 2);
  load_weights(lsh2, buffer);  // idempotent reload
  InferenceContext c2(lsh2, 7);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(hnsw_net.predict_topk(data.test[i].features, ch, 5, true),
              lsh2.predict_topk(data.test[i].features, c2, 5, true));
  }
}

// ---------------------------------------------------------------------------
// Batch iterator / pagination
// ---------------------------------------------------------------------------

void expect_pages_equal_oneshot(const Network& net, const Dataset& test,
                                bool exact) {
  // Equal-seeded contexts: the sampled path consumes RNG during the
  // forward pass, so the one-shot and paged runs must start from the same
  // stream to see the same candidate set.
  InferenceContext one_ctx(net, 42);
  InferenceContext page_ctx(net, 42);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto oneshot =
        net.predict_topk(test[i].features, one_ctx, 20, exact);
    TopKIterator it = net.topk_iterator(test[i].features, page_ctx, exact);
    EXPECT_EQ(it.position(), 0u);
    std::vector<Index> paged, page;
    while (it.next(5, page)) {
      EXPECT_LE(page.size(), 5u);
      paged.insert(paged.end(), page.begin(), page.end());
      EXPECT_EQ(it.position(), paged.size());
    }
    EXPECT_EQ(it.total(), paged.size());
    // No duplicates across pages.
    std::set<Index> unique(paged.begin(), paged.end());
    EXPECT_EQ(unique.size(), paged.size());
    // Concatenated pages = the one-shot ranking, element for element.
    ASSERT_GE(paged.size(), oneshot.size());
    for (std::size_t k = 0; k < oneshot.size(); ++k)
      EXPECT_EQ(paged[k], oneshot[k]) << "sample " << i << " rank " << k;
  }
}

TEST(Retrieval, TopKIteratorPagePrefixEquivalence) {
  const auto data = tiny_data();
  Network net(net_config(data), 2);
  train(net, data, 30);
  expect_pages_equal_oneshot(net, data.test, /*exact=*/true);
  expect_pages_equal_oneshot(net, data.test, /*exact=*/false);
}

TEST(Retrieval, TopKIteratorPagePrefixEquivalenceSharded) {
  const auto data = tiny_data();
  Network net(net_config(data, RetrieverKind::kLsh, 0, /*shards=*/3), 2);
  train(net, data, 30);
  expect_pages_equal_oneshot(net, data.test, /*exact=*/true);
  expect_pages_equal_oneshot(net, data.test, /*exact=*/false);
}

TEST(Retrieval, PredictTopkPageOffsets) {
  const auto data = tiny_data();
  Network net(net_config(data), 2);
  train(net, data, 30);
  InferenceContext ctx(net, 42);
  const auto full = net.predict_topk(data.test[0].features, ctx, 15, true);
  ASSERT_GE(full.size(), 10u);
  std::vector<Index> page;
  InferenceContext pctx(net, 42);
  net.predict_topk_page(data.test[0].features, pctx, 5, 5, true, page);
  ASSERT_EQ(page.size(), 5u);
  for (std::size_t k = 0; k < 5; ++k) EXPECT_EQ(page[k], full[5 + k]);
  // A page entirely past the end is empty.
  net.predict_topk_page(data.test[0].features, pctx, 5,
                        static_cast<int>(net.output_dim()), true, page);
  EXPECT_TRUE(page.empty());
  EXPECT_THROW(
      net.predict_topk_page(data.test[0].features, pctx, 0, 0, true, page),
      Error);
  EXPECT_THROW(
      net.predict_topk_page(data.test[0].features, pctx, 5, -1, true, page),
      Error);
}

TEST(Retrieval, ServePaginationMatchesOneShot) {
  const auto data = tiny_data();
  auto network = std::make_shared<Network>(net_config(data), 2);
  train(*network, data, 30);
  auto store = std::make_shared<ModelStore>(network);
  ServeConfig cfg;
  cfg.num_workers = 2;
  cfg.exact = true;  // deterministic across workers
  InferenceEngine engine(store, cfg);

  InferenceContext ctx(*network, 42);
  for (std::size_t i = 0; i < 5; ++i) {
    const auto full =
        network->predict_topk(data.test[i].features, ctx, 10, true);
    auto first = engine.submit(data.test[i].features, {.top_k = 5});
    auto second = engine.submit(data.test[i].features,
                                {.top_k = 5, .page_offset = 5});
    ASSERT_TRUE(first.has_value() && second.has_value());
    const Prediction head = first->get();
    const Prediction tail = second->get();
    std::vector<Index> stitched = head.labels;
    stitched.insert(stitched.end(), tail.labels.begin(), tail.labels.end());
    ASSERT_EQ(stitched.size(), full.size());
    EXPECT_EQ(stitched, full);
  }
  EXPECT_THROW(engine.submit(data.test[0].features,
                             {.top_k = 5, .page_offset = -1}),
               Error);
  engine.stop();
}

// ---------------------------------------------------------------------------
// Adaptive escalation policy
// ---------------------------------------------------------------------------

TEST(Retrieval, EscalationFloorTriggersExactScan) {
  const auto data = tiny_data();
  // Floor above anything the sampler can deliver: every inference query
  // escalates, so sampled predictions must equal exact ones.
  const Index floor = data.train.label_dim();
  Network net(net_config(data, RetrieverKind::kLsh, floor), 2);
  train(net, data, 30);

  const RetrievalStats before = net.output_layer().retrieval_stats();
  EXPECT_TRUE(before.adaptive);

  InferenceContext sampled_ctx(net, 7), exact_ctx(net, 7);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(net.predict_topk(data.test[i].features, sampled_ctx, 5),
              net.predict_topk(data.test[i].features, exact_ctx, 5, true));
  }
  const RetrievalStats after = net.output_layer().retrieval_stats();
  EXPECT_GE(after.escalations - before.escalations, 10);
  EXPECT_GT(after.oracle, before.oracle);
  EXPECT_GE(after.recall(), 0.0);
  EXPECT_LE(after.recall(), 1.0);
}

TEST(Retrieval, EscalationOffByDefault) {
  const auto data = tiny_data();
  Network net(net_config(data), 2);
  train(net, data, 30);
  InferenceContext ctx(net, 7);
  for (std::size_t i = 0; i < 10; ++i)
    net.predict_topk(data.test[i].features, ctx, 5);
  const RetrievalStats s = net.output_layer().retrieval_stats();
  EXPECT_FALSE(s.adaptive);
  EXPECT_EQ(s.escalations, 0);
}

TEST(Retrieval, EscalationStatsSurfaceInServeStats) {
  const auto data = tiny_data();
  const Index floor = data.train.label_dim();
  auto network =
      std::make_shared<Network>(net_config(data, RetrieverKind::kLsh, floor),
                                2);
  train(*network, data, 30);
  auto store = std::make_shared<ModelStore>(network);
  ServeConfig cfg;
  cfg.num_workers = 1;
  InferenceEngine engine(store, cfg);
  std::vector<std::future<Prediction>> futures;
  for (std::size_t i = 0; i < 10; ++i) {
    auto f = engine.submit(data.test[i].features, {.top_k = 5});
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  for (auto& f : futures) f.get();
  const ServeStats stats = engine.stats();
  EXPECT_TRUE(stats.adaptive_retrieval);
  EXPECT_GE(stats.retrieval_escalations, 10u);
  EXPECT_GE(stats.retrieval_recall, 0.0);
  EXPECT_LE(stats.retrieval_recall, 1.0);
  std::ostringstream table;
  engine.print_stats(table);
  EXPECT_NE(table.str().find("retrieval escalations"), std::string::npos);
  engine.stop();
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
