// Micro-benchmarks (google-benchmark) for the SIMD math kernels: the
// dispatched vector paths against their scalar references at the fan-in
// sizes the engine actually uses (128 = hidden width; 4096 = wide-embedding
// column strips). Each row takes an on/off argument (1 = best detected
// level, 0 = scalar) so the historical BENCH metric names stay stable;
// bench/micro_backend sweeps the explicit per-level tables.
// BM_BackwardApply times a layer's backward and its whole apply stage (the
// per-row gradient sums and lazy Adam), the step these kernels feed.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/layer.h"
#include "simd/kernels.h"
#include "sys/rng.h"
#include "sys/thread_pool.h"

namespace slide {
namespace {

std::vector<float> vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

void BM_Dot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  simd::set_simd_level(state.range(1) != 0 ? simd::detected_level()
                                           : simd::SimdLevel::kScalar);
  const auto a = vec(n, 1), b = vec(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::dot(a.data(), b.data(), n));
  }
  state.SetLabel(simd::to_string(simd::active_level()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          2 * sizeof(float));
  simd::set_simd_level(simd::detected_level());
}
BENCHMARK(BM_Dot)->Args({128, 1})->Args({128, 0})->Args({4096, 1})->Args({4096, 0});

void BM_Axpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  simd::set_simd_level(state.range(1) != 0 ? simd::detected_level()
                                           : simd::SimdLevel::kScalar);
  const auto x = vec(n, 3);
  auto y = vec(n, 4);
  for (auto _ : state) {
    simd::axpy(0.37f, x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel(simd::to_string(simd::active_level()));
  simd::set_simd_level(simd::detected_level());
}
BENCHMARK(BM_Axpy)->Args({128, 1})->Args({128, 0})->Args({4096, 1})->Args({4096, 0});

void BM_Softmax(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto x = vec(n, 7);
  std::vector<float> work(n);
  for (auto _ : state) {
    work = x;
    simd::softmax_inplace(work.data(), n);
    benchmark::DoNotOptimize(work.data());
  }
}
BENCHMARK(BM_Softmax)->Arg(1000)->Arg(16'000);

void BM_AdamStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  simd::set_simd_level(state.range(1) != 0 ? simd::detected_level()
                                           : simd::SimdLevel::kScalar);
  auto w = vec(n, 8), m = vec(n, 9), v = vec(n, 10);
  for (auto& x : v) x = x * x;  // second moment must be non-negative
  const auto g = vec(n, 11);
  for (auto _ : state) {
    simd::adam_step(w.data(), m.data(), v.data(), g.data(), n, 1e-3f, 0.9f,
                    0.999f, 1e-8f, 0.1f, 0.001f);
    benchmark::DoNotOptimize(w.data());
  }
  state.SetLabel(simd::to_string(simd::active_level()));
  simd::set_simd_level(simd::detected_level());
}
BENCHMARK(BM_AdamStep)->Args({128, 1})->Args({128, 0});

// One SampledLayer backward + apply_updates at train-amazon's output shape
// (24k labels x 128 hidden), apply on a pool of range(0) threads. A batch
// of 256 samples x 480 sampled rows touches each row with probability
// 1 - (1 - 480/24000)^256, about 99%, first in sampled (random) order. Both
// calls are timed: backward only propagates the error and records the
// slot, and apply_updates sums each row's gradient before its Adam step.
void BM_BackwardApply(benchmark::State& state) {
  constexpr Index kUnits = 24'000;
  constexpr Index kFanIn = 128;
  SampledLayer::Config cfg;
  cfg.units = kUnits;
  cfg.fan_in = kFanIn;
  cfg.hashed = false;
  SampledLayer layer(cfg, /*batch_slots=*/1, /*max_threads=*/1);
  ThreadPool pool(static_cast<int>(state.range(0)));

  Rng rng(12);
  ActiveSet& active = layer.slot(0);
  for (Index u = 0; u < kUnits; ++u) {
    if (rng.uniform_double() < 0.994) active.ids.push_back(u);
  }
  std::shuffle(active.ids.begin(), active.ids.end(), rng);
  active.err.resize(active.ids.size());
  for (auto& e : active.err) e = 1e-3f * rng.normal();
  ActiveSet prev;  // the dense hidden layer below
  prev.dense_width = kFanIn;
  prev.act.resize(kFanIn);
  prev.err.resize(kFanIn);
  for (auto& a : prev.act) a = std::abs(rng.normal());

  for (auto _ : state) {
    state.PauseTiming();
    std::fill(prev.err.begin(), prev.err.end(), 0.0f);
    state.ResumeTiming();
    layer.backward(0, prev, 0);
    layer.apply_updates(1e-3f, &pool);
    benchmark::DoNotOptimize(layer.weight_row(0));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(active.ids.size()));
}
BENCHMARK(BM_BackwardApply)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace slide
