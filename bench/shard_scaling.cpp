// Shard-scaling bench: serving throughput and LSH rebuild latency of the
// model-parallel ShardedSampledLayer at S = 1, 2, 4, 8 shards.
//
// Each shard owns its own table group (core/sharded_layer.h). rebuild_all
// over the pool builds the S groups one shard per pool thread, where S=1
// spreads its one build over the pool; the rebuild column is therefore
// context, not a sharding effect, and is not gated. The qps column prices
// the serve-side trade: every query hashes against S independent
// families, a fixed per-query cost that the per-candidate scoring work
// amortizes as the layer widens — expect qps to dip with S at small
// widths and converge at paper scale.
//
//   ./build/bench/shard_scaling
//
// Environment: SLIDE_BENCH_SCALE (tiny|small|medium|paper),
// SLIDE_BENCH_THREADS, SLIDE_BENCH_REPS, SLIDE_BENCH_JSON_DIR. Emits
// BENCH_shard.json (gated by tools/bench_compare.py in CI): per-S qps
// plus the scale-invariant within-run ratio speedup_qps_s4_vs_s1.
#include <cstdio>
#include <vector>

#include "bench_common.h"

namespace {

using namespace slide;

struct Workload {
  Index features;
  Index labels;
  Index hidden;
  Index target;
  std::size_t queries;
};

Workload workload_for(Scale scale) {
  switch (scale) {
    case Scale::kTiny:
      return {.features = 2'000, .labels = 8'192, .hidden = 64,
              .target = 164, .queries = 512};
    case Scale::kSmall:
      return {.features = 5'000, .labels = 32'768, .hidden = 128,
              .target = 656, .queries = 1'024};
    case Scale::kMedium:
      return {.features = 20'000, .labels = 131'072, .hidden = 128,
              .target = 2'622, .queries = 2'048};
    case Scale::kPaper:
      return {.features = 100'000, .labels = 262'144, .hidden = 128,
              .target = 5'243, .queries = 4'096};
  }
  return workload_for(Scale::kTiny);
}

struct Row {
  int shards = 0;
  double qps = 0.0;
  double sync_rebuild_info = 0.0;  // ms; informational (not gated)
  /// Mean merged candidates per sampled-inference query. Each shard fills
  /// toward its ceil-rounded proportional target, so the merged count
  /// creeps above the monolithic target as S grows (sum of ceils — the
  /// sharded oversampling artifact; S=8 below overshoots by a few).
  double mean_candidates = 0.0;
  /// Same, with a global sampling.inference_budget BELOW the target: the
  /// budget is ceil-split across shards (derive_shard_config) and caps each
  /// shard's fill, so the merged count tracks the budget — a knob the
  /// per-shard targets alone don't give you — and sampled qps rises.
  double mean_candidates_budgeted = 0.0;
  double qps_budgeted = 0.0;
};

/// Merged candidate-set size of sampled inference, measured at the output
/// layer directly (random dense hidden activations): predict_* exposes only
/// the top-k, but the scored-candidate count is what the budget governs.
double measure_mean_candidates(const Network& net, Index hidden,
                               std::size_t queries) {
  const Layer& out = net.stack(0);
  Rng rng(123);
  VisitedSet visited(out.units());
  std::vector<float> prev(static_cast<std::size_t>(hidden));
  std::vector<Index> ids;
  std::vector<float> act;
  std::uint64_t total = 0;
  for (std::size_t q = 0; q < queries; ++q) {
    for (float& v : prev) v = rng.uniform_float();
    out.forward_inference({}, prev, /*exact=*/false, rng, visited, ids, act);
    total += ids.size();
  }
  return static_cast<double>(total) / static_cast<double>(queries);
}

int env_reps() {
  const char* env = std::getenv("SLIDE_BENCH_REPS");
  const int n = env == nullptr ? 0 : std::atoi(env);
  return n > 0 ? n : 3;
}

Row run_config(int shards, const Workload& w, const Dataset& queries,
               int threads, int reps) {
  Row row{.shards = shards};

  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 9;
  family.l = 50;
  NetworkConfig cfg = NetworkBuilder(w.features)
                          .dense(w.hidden)
                          .sampled(w.labels, family, w.target)
                          .table({.range_pow = 12, .bucket_size = 128})
                          .shards(shards)
                          .max_batch(64)
                          .seed(7)
                          .to_config();
  Network net(cfg, threads);
  ThreadPool pool(threads);

  // Rebuild (rebuild_all: shards fan out across the pool) — context
  // number, not gated: at S=1 it parallelizes *within* the single group,
  // so it does not isolate a sharding effect.
  double best_sync = 1e100;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    net.rebuild_all(&pool);
    best_sync = std::min(best_sync, timer.seconds());
  }
  row.sync_rebuild_info = best_sync * 1e3;

  // Serving throughput through the batch path (sampled inference, the
  // serve engine's dispatch): best-of-reps queries/sec.
  std::vector<SparseVector> inputs;
  inputs.reserve(w.queries);
  for (std::size_t i = 0; i < w.queries; ++i)
    inputs.push_back(queries[i % queries.size()].features);
  BatchOutput out;
  double best_batch = 1e100;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    net.predict_batch(inputs, out, &pool, /*top_k=*/4, /*exact=*/false);
    best_batch = std::min(best_batch, timer.seconds());
  }
  row.qps = static_cast<double>(w.queries) / best_batch;
  row.mean_candidates = measure_mean_candidates(net, w.hidden, 256);

  // The budgeted leg: a global inference_budget at half the sampling
  // target, ceil-split across shards at construction. The merged candidate
  // count must drop to ~budget regardless of S (the unbudgeted leg can
  // only ever fill to the sum of per-shard ceil'd targets) and sampled
  // qps rises with the smaller scored set.
  NetworkConfig bcfg = cfg;
  bcfg.layers[0].sampling.inference_budget = std::max<Index>(1, w.target / 2);
  Network bnet(bcfg, threads);
  row.mean_candidates_budgeted = measure_mean_candidates(bnet, w.hidden, 256);
  double best_budgeted = 1e100;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    bnet.predict_batch(inputs, out, &pool, /*top_k=*/4, /*exact=*/false);
    best_budgeted = std::min(best_budgeted, timer.seconds());
  }
  row.qps_budgeted = static_cast<double>(w.queries) / best_budgeted;
  return row;
}

}  // namespace

int main() {
  const Scale scale = bench::env_scale(Scale::kTiny);
  const int threads = bench::env_threads();
  const int reps = env_reps();
  const Workload w = workload_for(scale);

  bench::print_header(
      "BENCH_shard — sharded wide-output layer scaling (qps + rebuild "
      "latency vs shard count)",
      "model-parallel LSH shards (cf. Distributed SLIDE, Yan et al. 2022)");
  bench::print_env(scale, threads);
  const int cores = hardware_threads();
  std::printf("[workload] labels=%u hidden=%u target=%u queries=%zu "
              "reps=%d cores=%d\n\n",
              w.labels, w.hidden, w.target, w.queries, reps, cores);

  SyntheticConfig dcfg;
  dcfg.feature_dim = w.features;
  dcfg.label_dim = w.labels;
  dcfg.num_train = 16;  // the bench never trains
  dcfg.num_test = w.queries;
  dcfg.seed = 11;
  const SyntheticDataset data = make_synthetic_xc(dcfg);

  std::vector<Row> rows;
  for (int shards : {1, 2, 4, 8}) {
    rows.push_back(run_config(shards, w, data.test, threads, reps));
    const Row& r = rows.back();
    std::printf("  S=%d  qps %10.0f | rebuild %8.2f ms\n", r.shards, r.qps,
                r.sync_rebuild_info);
    std::printf("       candidates/query %8.1f unbudgeted -> %8.1f "
                "budgeted (budget=%u) | budgeted qps %10.0f\n",
                r.mean_candidates, r.mean_candidates_budgeted, w.target / 2,
                r.qps_budgeted);
  }

  auto at = [&](int shards) -> const Row& {
    for (const Row& r : rows)
      if (r.shards == shards) return r;
    std::abort();
  };
  const double qps4 = at(4).qps / at(1).qps;
  std::printf("\n[summary] qps S=4/S=1 %.2fx\n", qps4);

  bench::Json json;
  json.begin_object();
  json.key("bench").string("shard_scaling");
  json.key("scale").string(bench::scale_name(scale));
  json.key("threads").number(static_cast<long long>(threads));
  json.key("hardware_cores").number(static_cast<long long>(cores));
  json.key("labels").number(static_cast<long long>(w.labels));
  json.key("queries").number(static_cast<long long>(w.queries));
  json.key("configs").begin_array();
  for (const Row& r : rows) {
    json.begin_object();
    std::string name(1, 's');
    name += std::to_string(r.shards);
    json.key("name").string(name.c_str());
    json.key("shards").number(static_cast<long long>(r.shards));
    json.key("qps").number(r.qps);
    json.key("sync_rebuild_info").number(r.sync_rebuild_info);
    json.key("qps_budgeted").number(r.qps_budgeted);
    json.key("candidates_info").number(r.mean_candidates);
    json.key("candidates_budgeted_info").number(r.mean_candidates_budgeted);
    json.end_object();
  }
  json.end_array();
  // Scale-invariant within-run ratio: gated regardless of runner speed.
  json.key("speedup_qps_s4_vs_s1").number(qps4);
  // Oversampling contract (also asserted in tests/test_sharded_layer
  // ShardBudget):
  // the unbudgeted ratio witnesses the sum-of-ceils creep above 1.0 as S
  // grows; the budgeted ratio must hold ~1.0 because the global budget
  // caps the merged count regardless of shard count. Absolute budgeted
  // counts additionally sit at ~half the unbudgeted ones (budget=target/2).
  json.key("candidate_inflation_s4_info")
      .number(at(4).mean_candidates / at(1).mean_candidates);
  json.key("candidate_inflation_s4_budgeted_info")
      .number(at(4).mean_candidates_budgeted /
              at(1).mean_candidates_budgeted);
  json.end_object();
  json.write_file(bench::json_path("BENCH_shard.json"));
  return 0;
}
