// Standalone ANN vector search on the retrieval subsystem (src/retrieval/):
// index a collection of unit vectors with the paper's (K, L) LSH tables and
// the brute-force oracle, then run both over the same queries and report
// recall@10 against the exact answer plus queries/second. The same
// LshRetriever drives the sampled wide layer inside the network, so the
// numbers here are the candidate-generation tradeoff the layer sees (paper
// §2's MIPS framing).
//
//   ./build/examples/lsh_topk_search [num_vectors] [dim] [queries]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "slide/slide.h"

namespace {

using namespace slide;

// Exact top-k by inner product over the full collection (the oracle).
std::vector<Index> brute_force_topk(const retrieval::RowView& rows,
                                    const float* q, int k) {
  std::vector<std::pair<float, Index>> scored(rows.count);
  for (Index i = 0; i < rows.count; ++i)
    scored[i] = {simd::dot(q, rows.row(i), rows.dim), i};
  const auto mid = scored.begin() + std::min<std::ptrdiff_t>(k, scored.size());
  std::partial_sort(scored.begin(), mid, scored.end(), std::greater<>());
  std::vector<Index> top;
  top.reserve(static_cast<std::size_t>(mid - scored.begin()));
  for (auto it = scored.begin(); it != mid; ++it) top.push_back(it->second);
  return top;
}

// One backend's answer: retrieve candidates, re-rank by exact dot product,
// keep the best k.
std::vector<Index> search(const retrieval::Retriever& index,
                          const retrieval::RowView& rows, const float* q,
                          Index budget, int k, VisitedSet& visited,
                          Rng& rng) {
  thread_local std::vector<Index> candidates;
  candidates.clear();
  index.retrieve({}, std::span<const float>(q, rows.dim), budget, rng,
                 visited, candidates);
  std::vector<std::pair<float, Index>> scored;
  scored.reserve(candidates.size());
  for (Index c : candidates)
    scored.emplace_back(simd::dot(q, rows.row(c), rows.dim), c);
  const std::size_t take = std::min<std::size_t>(static_cast<std::size_t>(k),
                                                 scored.size());
  std::partial_sort(scored.begin(),
                    scored.begin() + static_cast<std::ptrdiff_t>(take),
                    scored.end(), std::greater<>());
  std::vector<Index> top(take);
  for (std::size_t i = 0; i < take; ++i) top[i] = scored[i].second;
  return top;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace slide;

  const Index n = argc > 1 ? static_cast<Index>(std::atoi(argv[1])) : 20'000;
  const Index dim = argc > 2 ? static_cast<Index>(std::atoi(argv[2])) : 128;
  const int queries = argc > 3 ? std::atoi(argv[3]) : 200;
  constexpr int kTopK = 10;
  constexpr Index kBudget = 512;  // candidate target per query

  // Collection: clustered unit vectors (~100 per cluster) — the regime ANN
  // indexes exploit. Uniform random vectors in high dimension have no
  // neighborhood structure and every index degenerates to a scan.
  const Index clusters = std::max<Index>(n / 100, 1);
  Rng rng(2024);
  std::vector<float> centers(static_cast<std::size_t>(clusters) * dim);
  for (float& v : centers) v = rng.normal();
  std::vector<float> storage(static_cast<std::size_t>(n) * dim);
  for (Index r = 0; r < n; ++r) {
    const float* center =
        centers.data() + static_cast<std::size_t>(r % clusters) * dim;
    float* row = storage.data() + static_cast<std::size_t>(r) * dim;
    float norm = 0.0f;
    for (Index d = 0; d < dim; ++d) {
      row[d] = center[d] + 0.35f * rng.normal();
      norm += row[d] * row[d];
    }
    norm = std::sqrt(norm);
    for (Index d = 0; d < dim; ++d) row[d] /= norm;
  }
  const retrieval::RowView rows{storage.data(), dim, n};

  // Queries: perturbed copies of stored vectors (true neighbors exist).
  Rng qrng(7);
  std::vector<std::vector<float>> query_set;
  query_set.reserve(static_cast<std::size_t>(queries));
  for (int q = 0; q < queries; ++q) {
    const Index base = qrng.uniform(n);
    std::vector<float> query(rows.row(base), rows.row(base) + dim);
    for (auto& v : query) v += 0.1f * qrng.normal();
    query_set.push_back(std::move(query));
  }

  ThreadPool pool(hardware_threads());

  // Both backends over the same rows. LSH: Simhash (K=7, L=32) with
  // frequency-ranked sampling.
  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 7;
  family.l = 32;
  family.dim = dim;
  SamplingConfig sampling;
  sampling.strategy = SamplingStrategy::kTopK;
  sampling.target = kBudget;

  retrieval::LshRetriever lsh(make_hash_family(family),
                              {.range_pow = 14, .bucket_size = 64}, sampling,
                              rows, /*seed=*/42);
  retrieval::ExactRetriever exact(rows);

  // Per-backend candidate budget: LSH needs a generous target (bucket
  // frequencies are noisy); the exact scan ignores it.
  struct Backend {
    const char* name;
    retrieval::Retriever* index;
    Index budget;
  };
  const Backend backends[] = {{"exact", &exact, n}, {"lsh", &lsh, kBudget}};

  // Oracle answers once, up front.
  std::vector<std::vector<Index>> truth;
  truth.reserve(query_set.size());
  for (const auto& q : query_set)
    truth.push_back(brute_force_topk(rows, q.data(), kTopK));

  std::printf("collection: %u vectors, dim %u, %d queries, top-%d\n\n", n,
              dim, queries, kTopK);
  std::printf("%-8s %10s %12s %10s %12s\n", "backend", "build(s)",
              "recall@10", "qps", "index MB");

  VisitedSet visited(n);
  for (const Backend& b : backends) {
    WallTimer build_timer;
    b.index->rebuild(&pool);
    const double build_s = build_timer.seconds();

    Rng srng(99);
    double recall = 0.0;
    WallTimer query_timer;
    for (std::size_t q = 0; q < query_set.size(); ++q) {
      const auto found = search(*b.index, rows, query_set[q].data(), b.budget,
                                kTopK, visited, srng);
      recall += recall_at_k(found, truth[q]);
    }
    const double seconds = query_timer.seconds();
    std::printf("%-8s %10.2f %12.3f %10.0f %12.1f\n", b.name, build_s,
                recall / static_cast<double>(query_set.size()),
                static_cast<double>(query_set.size()) / seconds,
                static_cast<double>(b.index->memory_bytes()) / (1 << 20));
  }

  std::printf(
      "\nexact is the oracle (recall 1.0 by construction); lsh trades\n"
      "recall for qps. Raise the candidate budget to buy recall back.\n");
  return 0;
}
