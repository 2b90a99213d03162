// Micro-benchmarks (google-benchmark) for the LSH substrate: hash-code
// computation per family, Simhash's projection, table build/query and the
// sampling strategies.
#include <benchmark/benchmark.h>

#include "lsh/factory.h"
#include "lsh/sampling.h"
#include "lsh/table_group.h"
#include "sys/rng.h"
#include "sys/thread_pool.h"

namespace slide {
namespace {

constexpr Index kDim = 128;

std::vector<float> dense_input(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> x(kDim);
  for (auto& v : x) v = rng.normal();
  return x;
}

HashFamilyConfig family_config(HashFamilyKind kind) {
  HashFamilyConfig cfg;
  cfg.kind = kind;
  cfg.k = kind == HashFamilyKind::kSimhash ? 9 : 8;
  cfg.l = 50;
  cfg.dim = kDim;
  cfg.bin_size = 8;
  return cfg;
}

/// Distinct rows BM_HashDense cycles through. Hashing one fixed vector
/// lets the branch predictor learn every bin's winner, which the
/// per-row loops of a table rebuild or a training step never see.
constexpr std::size_t kPoolRows = 256;

void BM_HashDense(benchmark::State& state, HashFamilyKind kind) {
  const auto family = make_hash_family(family_config(kind));
  Rng rng(1);
  std::vector<float> pool(kPoolRows * kDim);
  for (auto& v : pool) v = rng.normal();
  std::vector<std::uint32_t> keys(static_cast<std::size_t>(family->l()));
  std::size_t row = 0;
  for (auto _ : state) {
    family->hash_dense(pool.data() + row * kDim, keys);
    benchmark::DoNotOptimize(keys.data());
    benchmark::ClobberMemory();
    row = (row + 1) % kPoolRows;
  }
}
// Named by family, not by the enum's value, so a baseline row keeps its
// meaning when the enum changes.
BENCHMARK_CAPTURE(BM_HashDense, simhash, HashFamilyKind::kSimhash);
BENCHMARK_CAPTURE(BM_HashDense, dwta, HashFamilyKind::kDwta);

void BM_SimhashFullProjection(benchmark::State& state) {
  Simhash h({.k = 9, .l = 50, .dim = kDim, .density = 1.0 / 3.0, .seed = 3});
  const auto x = dense_input(3);
  std::vector<float> dots(static_cast<std::size_t>(h.num_projections()));
  for (auto _ : state) {
    h.project_dense(x.data(), dots.data());
    benchmark::DoNotOptimize(dots.data());
  }
}
BENCHMARK(BM_SimhashFullProjection);

struct TableFixture {
  TableFixture() : group(make_hash_family(family_config(HashFamilyKind::kSimhash)),
                         {.range_pow = 12, .bucket_size = 128}) {
    Rng rng(5);
    const Index neurons = 50'000;
    rows.resize(static_cast<std::size_t>(neurons) * kDim);
    for (auto& w : rows) w = 0.2f * rng.normal();
    group.build_from_rows(rows.data(), kDim, neurons);
  }
  std::vector<float> rows;
  LshTableGroup group;
};

TableFixture& fixture() {
  static TableFixture f;
  return f;
}

/// A full rebuild at train-amazon's output-layer shape: 24k DWTA rows
/// (K=8, L=50), 2^12 buckets of 128, on range(0) threads — the hashing
/// plus the per-table counting sort a sync rebuild runs.
void BM_TableBuild(benchmark::State& state) {
  const Index rows_count = 24'000;
  Rng rng(6);
  std::vector<float> rows(static_cast<std::size_t>(rows_count) * kDim);
  for (auto& w : rows) w = rng.normal();
  LshTableGroup group(make_hash_family(family_config(HashFamilyKind::kDwta)),
                      {.range_pow = 12, .bucket_size = 128});
  ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    group.build_from_rows(rows.data(), kDim, rows_count, &pool);
    benchmark::DoNotOptimize(group.table(0).total_stored());
  }
  state.SetLabel("threads=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_TableBuild)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_TableQueryAndSample(benchmark::State& state) {
  auto& f = fixture();
  const auto strategy = static_cast<SamplingStrategy>(state.range(0));
  Rng rng(7);
  VisitedSet visited(50'000);
  std::vector<std::uint32_t> keys(50);
  std::vector<std::span<const Index>> buckets;
  std::vector<Index> out;
  auto q = dense_input(8);
  SamplingConfig cfg;
  cfg.strategy = strategy;
  cfg.target = 1'000;
  cfg.hard_threshold_m = 2;
  for (auto _ : state) {
    f.group.query_keys_dense(q.data(), keys);
    f.group.buckets(keys, buckets);
    sample_neurons(cfg, buckets, visited, rng, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(to_string(strategy));
}
BENCHMARK(BM_TableQueryAndSample)
    ->Arg(static_cast<int>(SamplingStrategy::kVanilla))
    ->Arg(static_cast<int>(SamplingStrategy::kTopK))
    ->Arg(static_cast<int>(SamplingStrategy::kHardThreshold));

}  // namespace
}  // namespace slide
