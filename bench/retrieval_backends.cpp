// Retrieval backend shoot-out: recall@10 and queries/sec of the (K, L) LSH
// tables against the exact scan (the oracle) over the same clustered
// vector collection.
//
// Not a paper figure — the paper fixes the LSH sampler; this tracks what
// the sampler's candidates cost and miss. Clustered data (points = cluster
// center + noise, unit-normalized) is the regime ANN indexes are built
// for; uniform random vectors in high dimension have no neighborhood
// structure to exploit and every backend degenerates to a scan.
//
// No hard gate: CI compares the throughput keys in BENCH_retrieval.json
// against the checked-in baseline (bench_compare.py).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.h"

using namespace slide;

namespace {

std::vector<Index> exact_topk(const retrieval::RowView& rows, const float* q,
                              int k) {
  std::vector<std::pair<float, Index>> scored(rows.count);
  for (Index i = 0; i < rows.count; ++i)
    scored[i] = {simd::dot(q, rows.row(i), rows.dim), i};
  const auto mid = scored.begin() + std::min<std::ptrdiff_t>(k, scored.size());
  std::partial_sort(scored.begin(), mid, scored.end(), std::greater<>());
  std::vector<Index> top;
  for (auto it = scored.begin(); it != mid; ++it) top.push_back(it->second);
  return top;
}

}  // namespace

int main() {
  const Scale scale = bench::env_scale(Scale::kTiny);
  const int max_threads = bench::env_threads();
  bench::print_header(
      "retrieval_backends: recall@10 and qps per retrieval backend",
      "candidate generation beyond the paper's fixed LSH sampler (§2 MIPS "
      "framing)");
  bench::print_env(scale, max_threads);

  const Index n = scale == Scale::kTiny     ? 8'000
                  : scale == Scale::kSmall  ? 20'000
                  : scale == Scale::kMedium ? 50'000
                                            : 100'000;
  const Index dim = 128;
  const int queries = scale == Scale::kTiny ? 100 : 200;
  constexpr int kTopK = 10;
  constexpr Index kLshBudget = 512;

  // Clustered collection: ~100 points per cluster, unit-normalized.
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

  // Queries: perturbed stored vectors; oracle answers computed up front.
  Rng qrng(7);
  std::vector<std::vector<float>> query_set;
  std::vector<std::vector<Index>> truth;
  for (int q = 0; q < queries; ++q) {
    const Index base = qrng.uniform(n);
    std::vector<float> query(rows.row(base), rows.row(base) + dim);
    for (auto& v : query) v += 0.1f * qrng.normal();
    truth.push_back(exact_topk(rows, query.data(), kTopK));
    query_set.push_back(std::move(query));
  }

  ThreadPool pool(max_threads);

  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 7;
  family.l = 32;
  family.dim = dim;
  SamplingConfig sampling;
  sampling.strategy = SamplingStrategy::kTopK;
  sampling.target = kLshBudget;
  retrieval::LshRetriever lsh(make_hash_family(family),
                              {.range_pow = 14, .bucket_size = 64}, sampling,
                              rows, /*seed=*/42);
  retrieval::ExactRetriever exact(rows);

  struct Backend {
    const char* name;
    retrieval::Retriever* index;
    Index budget;
  };
  const Backend backends[] = {{"exact", &exact, n},
                               {"lsh", &lsh, kLshBudget}};

  bench::Json json;
  json.begin_object();
  json.key("bench").string("retrieval_backends");
  json.key("scale").string(bench::scale_name(scale));
  json.key("n").number(static_cast<long long>(n));
  json.key("dim").number(static_cast<long long>(dim));
  json.key("queries").number(static_cast<long long>(queries));
  json.key("backends").begin_array();

  MarkdownTable table(
      {"backend", "build(s)", "recall@10", "qps", "index MB"});
  VisitedSet visited(n);
  std::vector<Index> candidates;
  double exact_qps = 0.0, lsh_qps = 0.0, lsh_recall = 0.0;
  for (const Backend& b : backends) {
    WallTimer build_timer;
    b.index->rebuild(&pool);
    const double build_s = build_timer.seconds();

    Rng srng(99);
    double recall = 0.0;
    WallTimer query_timer;
    for (std::size_t q = 0; q < query_set.size(); ++q) {
      const float* query = query_set[q].data();
      candidates.clear();
      b.index->retrieve({}, std::span<const float>(query, dim), b.budget,
                        srng, visited, candidates);
      // Re-rank candidates by exact dot product, keep the best k.
      std::vector<std::pair<float, Index>> scored;
      scored.reserve(candidates.size());
      for (Index c : candidates)
        scored.emplace_back(simd::dot(query, rows.row(c), dim), c);
      const std::size_t take =
          std::min<std::size_t>(kTopK, scored.size());
      std::partial_sort(scored.begin(),
                        scored.begin() + static_cast<std::ptrdiff_t>(take),
                        scored.end(), std::greater<>());
      std::vector<Index> top(take);
      for (std::size_t i = 0; i < take; ++i) top[i] = scored[i].second;
      recall += recall_at_k(top, truth[q]);
    }
    const double seconds = query_timer.seconds();
    const double qps = static_cast<double>(query_set.size()) / seconds;
    recall /= static_cast<double>(query_set.size());
    const double index_mb =
        static_cast<double>(b.index->memory_bytes()) / (1 << 20);
    table.add_row({b.name, fmt(build_s, 2), fmt(recall, 3), fmt(qps, 0),
                   fmt(index_mb, 1)});
    json.begin_object();
    json.key("name").string(b.name);
    json.key("build_seconds").number(build_s);
    json.key("recall_at_10").number(recall);
    json.key("qps").number(qps);
    json.key("index_mb").number(index_mb);
    json.end_object();
    if (b.index == &exact) exact_qps = qps;
    if (b.index == &lsh) {
      lsh_qps = qps;
      lsh_recall = recall;
    }
  }
  json.end_array();
  json.end_object();
  table.print(std::cout);
  std::printf("lsh vs exact: %.2fx qps at recall@10 %.3f\n",
              lsh_qps / exact_qps, lsh_recall);
  json.write_file(bench::json_path("BENCH_retrieval.json"));
  return 0;
}
