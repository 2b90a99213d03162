#include "metrics/metrics.h"

#include <algorithm>
#include <atomic>

namespace slide {

namespace {

bool hits_top1(Index predicted, const std::vector<Index>& labels) {
  return std::find(labels.begin(), labels.end(), predicted) != labels.end();
}

std::size_t eval_count(const Dataset& data, const EvalOptions& options) {
  return options.max_samples == 0
             ? data.size()
             : std::min(options.max_samples, data.size());
}

}  // namespace

double evaluate_p_at_1(const Network& network, const Dataset& data,
                       ThreadPool& pool, const EvalOptions& options) {
  const std::size_t n = eval_count(data, options);
  if (n == 0) return 0.0;
  std::atomic<std::size_t> hits{0};
  pool.parallel_range(n, [&](std::size_t begin, std::size_t end, int tid) {
    InferenceContext ctx(std::max<Index>(network.max_sampled_units(), 1),
                         options.seed + static_cast<std::uint64_t>(tid));
    std::size_t local = 0;
    std::vector<Index> top;
    for (std::size_t i = begin; i < end; ++i) {
      const Sample& sample = data[i];
      network.predict_topk(sample.features, ctx, 1, options.exact, top);
      if (!top.empty() && hits_top1(top.front(), sample.labels)) ++local;
    }
    hits.fetch_add(local, std::memory_order_relaxed);
  });
  return static_cast<double>(hits.load()) / static_cast<double>(n);
}

double evaluate_p_at_k(const Network& network, const Dataset& data,
                       ThreadPool& pool, int k, const EvalOptions& options) {
  SLIDE_CHECK(k >= 1, "evaluate_p_at_k: k must be >= 1");
  const std::size_t n = eval_count(data, options);
  if (n == 0) return 0.0;
  std::atomic<double> hits{0.0};
  pool.parallel_range(n, [&](std::size_t begin, std::size_t end, int tid) {
    InferenceContext ctx(std::max<Index>(network.max_sampled_units(), 1),
                         options.seed + static_cast<std::uint64_t>(tid));
    double local = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const Sample& sample = data[i];
      const auto top =
          network.predict_topk(sample.features, ctx, k, options.exact);
      int overlap = 0;
      for (Index p : top) overlap += hits_top1(p, sample.labels) ? 1 : 0;
      local += static_cast<double>(overlap) / k;
    }
    double expected = hits.load(std::memory_order_relaxed);
    while (!hits.compare_exchange_weak(expected, expected + local,
                                       std::memory_order_relaxed)) {
    }
  });
  return hits.load() / static_cast<double>(n);
}

double recall_at_k(std::span<const Index> retrieved,
                   std::span<const Index> exact_topk) {
  if (exact_topk.empty()) return 1.0;
  // Count distinct oracle ids covered (duplicates in either span count
  // once); sorted copies keep this O(n log n) with no hashing.
  std::vector<Index> oracle(exact_topk.begin(), exact_topk.end());
  std::sort(oracle.begin(), oracle.end());
  oracle.erase(std::unique(oracle.begin(), oracle.end()), oracle.end());
  std::vector<Index> got(retrieved.begin(), retrieved.end());
  std::sort(got.begin(), got.end());
  std::size_t overlap = 0;
  std::size_t j = 0;
  for (Index id : oracle) {
    while (j < got.size() && got[j] < id) ++j;
    if (j < got.size() && got[j] == id) ++overlap;
  }
  return static_cast<double>(overlap) / static_cast<double>(oracle.size());
}

}  // namespace slide
