// Micro-benchmarks for the runtime-dispatched compute backend: the hot
// kernels (dot / axpy / adam_step) and their int8 variants at EVERY
// dispatch level this host supports, at the fan-in sizes the engine
// actually uses (128 = hidden width; 4096 = wide strips), plus wta_codes
// at the dense DWTA training shape (K*L = 400) and sign_project at the
// Simhash serving shape (K*L = 450, 1 and 64 rows). Row names carry the
// scoring precision (dot_fp32, dot_i8, ...) and the int8 rows additionally
// carry the instruction path the level's table bound (vnni / maddubs-512 /
// maddubs-256 / scalar), so a
// BENCH_backend.json from a VNNI host is distinguishable from the
// graceful-downgrade path on one without.
//
// Unlike bench/micro_kernels (which A/Bs best level against scalar for
// Figure-10 continuity), this bench pins an explicit SimdLevel per
// registration, so the emitted BENCH_backend.json carries one entry per
// (kernel, size, level) — the artifact the CI regression gate diffs
// against bench/baselines/BENCH_backend.json. Levels the runner does not
// support simply produce no entries; bench_compare treats the missing
// metrics as non-fatal.
//
//   ./build/bench/micro_backend --benchmark_out=BENCH_backend.json
//                               --benchmark_out_format=json   (one line)
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "simd/backend.h"
#include "simd/kernels.h"
#include "sys/rng.h"

namespace slide {
namespace {

using simd::SimdLevel;

std::vector<float> vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

void bm_dot(benchmark::State& state, SimdLevel level, std::size_t n) {
  const simd::Backend& be = *simd::backend_for(level);
  const auto a = vec(n, 1), b = vec(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(be.dot(a.data(), b.data(), n));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          2 * sizeof(float));
}

void bm_axpy(benchmark::State& state, SimdLevel level, std::size_t n) {
  const simd::Backend& be = *simd::backend_for(level);
  const auto x = vec(n, 3);
  auto y = vec(n, 4);
  for (auto _ : state) {
    be.axpy(0.37f, x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
}

void bm_adam(benchmark::State& state, SimdLevel level, std::size_t n) {
  const simd::Backend& be = *simd::backend_for(level);
  auto w = vec(n, 8), m = vec(n, 9), v = vec(n, 10);
  for (auto& x : v) x = x * x;  // second moment must be non-negative
  const auto g = vec(n, 11);
  for (auto _ : state) {
    be.adam_step(w.data(), m.data(), v.data(), g.data(), n, 1e-3f, 0.9f,
                 0.999f, 1e-8f, 0.1f, 0.001f);
    benchmark::DoNotOptimize(w.data());
  }
}

std::vector<simd::I8> i8_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<simd::I8> v(n);
  for (auto& x : v)
    x = static_cast<simd::I8>(static_cast<int>(rng.uniform(255)) - 127);
  return v;
}

std::vector<simd::U8> u8_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<simd::U8> v(n);
  for (auto& x : v) x = static_cast<simd::U8>(rng.uniform(128));
  return v;
}

void bm_dot_i8(benchmark::State& state, SimdLevel level, std::size_t n) {
  const simd::Backend& be = *simd::backend_for(level);
  const auto w = i8_vec(n, 19);
  const auto x = u8_vec(n, 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(be.dot_i8(w.data(), x.data(), n));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          2);
}

void bm_axpy_i8(benchmark::State& state, SimdLevel level, std::size_t n) {
  const simd::Backend& be = *simd::backend_for(level);
  const auto x = i8_vec(n, 21);
  auto y = vec(n, 22);
  for (auto _ : state) {
    be.axpy_i8(0.013f, x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
}

void bm_quantize_i8(benchmark::State& state, SimdLevel level, std::size_t n) {
  const simd::Backend& be = *simd::backend_for(level);
  const auto src = vec(n, 23);
  std::vector<simd::I8> dst(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(be.quantize_i8(src.data(), dst.data(), n));
  }
}

/// Dense DWTA hashing at the training shape: K*L = 400 codes over
/// bins of 8 coordinates of a 128-wide row, cycling through 256 distinct
/// rows so the scalar level cannot learn the winners.
void bm_wta_codes(benchmark::State& state, SimdLevel level) {
  const simd::Backend& be = *simd::backend_for(level);
  constexpr std::size_t kCodes = 400, kGroup = 8, kDim = 128, kRows = 256;
  Rng rng(24);
  std::vector<std::int32_t> idx(kCodes * kGroup);
  std::vector<std::uint32_t> label(idx.size());
  for (std::size_t s = 0; s < idx.size(); ++s) {
    idx[s] = static_cast<std::int32_t>(rng.uniform(kDim));
    label[s] = static_cast<std::uint32_t>(s / kCodes);
  }
  const auto rows = vec(kRows * kDim, 25);
  std::vector<std::uint32_t> out(kCodes);
  std::size_t row = 0;
  for (auto _ : state) {
    be.wta_codes(rows.data() + row * kDim, idx.data(), label.data(), kGroup,
                 kCodes, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    row = (row + 1) % kRows;
  }
}

/// Dense Simhash projection at the serving shape: K*L = 450 sign
/// projections (density 1/3) of 128-wide rows, `rows` rows per call (1 is
/// a query, 64 a block of a table build), cycling through 256 distinct
/// rows. items_per_second counts rows.
void bm_sign_project(benchmark::State& state, SimdLevel level,
                     std::size_t rows) {
  const simd::Backend& be = *simd::backend_for(level);
  constexpr std::size_t kProj = 450, kDim = 128, kPool = 256;
  constexpr std::size_t kStride =
      (kProj + simd::kSignLanes - 1) / simd::kSignLanes * simd::kSignLanes;
  Rng rng(26);
  std::vector<simd::I8> w(kDim * kStride, 0);
  for (std::size_t d = 0; d < kDim; ++d) {
    for (std::size_t p = 0; p < kProj; ++p) {
      if (rng.uniform(3) == 0)
        w[d * kStride + p] = rng.uniform(2) == 0 ? 1 : -1;
    }
  }
  const auto x = vec(kPool * kDim, 27);
  std::vector<float> out(rows * kProj);
  std::size_t first = 0;
  for (auto _ : state) {
    be.sign_project(w.data(), kStride, kDim, kProj, x.data() + first * kDim,
                    kDim, rows, out.data(), kProj);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    first = (first + rows) % kPool;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
}

void register_all() {
  using Fn = void (*)(benchmark::State&, SimdLevel, std::size_t);
  // Every row name carries its scoring precision; int8 dot/axpy rows are
  // additionally tagged with the instruction path the level's bound table
  // scores through (resolved from the table at registration time).
  struct Kernel {
    const char* name;
    Fn fn;
    bool i8_path = false;
  };
  const Kernel kernels[] = {
      {"dot_fp32", bm_dot},
      {"axpy_fp32", bm_axpy},
      {"adam_step_fp32", bm_adam},
      {"dot_i8", bm_dot_i8, true},
      {"axpy_i8", bm_axpy_i8, true},
      {"quantize_i8", bm_quantize_i8},
  };
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAVX2, SimdLevel::kAVX512}) {
    if (!simd::level_supported(level)) continue;
    const simd::Backend& table = *simd::backend_for(level);
    for (const Kernel& kernel : kernels) {
      for (std::size_t n : {std::size_t{128}, std::size_t{4096}}) {
        std::string name = std::string("BM_backend/") + kernel.name + "/" +
                           std::to_string(n) + "/" +
                           simd::to_string(level);
        if (kernel.i8_path) name += std::string("/") + table.i8_path;
        benchmark::RegisterBenchmark(
            name.c_str(),
            [fn = kernel.fn, level, n](benchmark::State& state) {
              fn(state, level, n);
            });
      }
    }
    benchmark::RegisterBenchmark(
        (std::string("BM_backend/wta_codes/400/") + simd::to_string(level))
            .c_str(),
        [level](benchmark::State& state) { bm_wta_codes(state, level); });
    for (std::size_t rows : {std::size_t{1}, std::size_t{64}}) {
      benchmark::RegisterBenchmark(
          (std::string("BM_backend/sign_project/450x128/") +
           std::to_string(rows) + "/" + simd::to_string(level))
              .c_str(),
          [level, rows](benchmark::State& state) {
            bm_sign_project(state, level, rows);
          });
    }
  }
}

}  // namespace
}  // namespace slide

int main(int argc, char** argv) {
  slide::register_all();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
