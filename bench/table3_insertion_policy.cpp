// Table 3 — "Time taken by hash table insertion schemes": Reservoir
// Sampling vs FIFO, separated into pure table insertion ("Insertion to
// HT") and the full pipeline including hash-code computation ("Full
// Insertion"), for the Delicious output layer's 205,443 neurons.
//
// Paper values: Reservoir 0.371s vs FIFO 0.762s insertion-only; both ~18s
// full insertion — i.e. hashing dominates and the policy choice is nearly
// free, which is why the paper uses FIFO in its experiments.
#include "bench_common.h"

using namespace slide;

int main() {
  const Scale scale = bench::env_scale();
  const int threads = bench::env_threads();
  bench::print_header(
      "Table 3: hash-table insertion policy timing",
      "Reservoir 0.371s vs FIFO 0.762s (insert-only); ~18s full (hashing "
      "dominates)");
  bench::print_env(scale, threads);

  // The paper inserts the full Delicious label layer; smaller scales shrink
  // the neuron count but keep K=9, L=50 and bucket size 128.
  const Index neurons = scale == Scale::kPaper    ? 205'443
                        : scale == Scale::kMedium ? 100'000
                        : scale == Scale::kSmall  ? 50'000
                                                  : 10'000;
  const Index fan_in = 128;
  Rng rng(3);
  std::vector<float> rows(static_cast<std::size_t>(neurons) * fan_in);
  for (auto& w : rows) w = 0.2f * rng.normal();

  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 9;
  family.l = 50;
  family.dim = fan_in;
  const auto hasher = make_hash_family(family);

  // Precompute all keys once so "Insertion to HT" excludes hashing. The
  // table build reads them table-major: keys[t * neurons + i].
  WallTimer hash_timer;
  std::vector<std::uint32_t> keys(static_cast<std::size_t>(neurons) * 50);
  {
    ThreadPool pool(threads);
    pool.parallel_range(neurons, [&](std::size_t b, std::size_t e, int) {
      std::uint32_t row_keys[50];
      for (std::size_t i = b; i < e; ++i) {
        hasher->hash_dense(rows.data() + i * fan_in, row_keys);
        for (std::size_t t = 0; t < 50; ++t) keys[t * neurons + i] = row_keys[t];
      }
    });
  }
  const double hashing_seconds = hash_timer.seconds();

  MarkdownTable table({"policy", "insertion to HT (s)", "full insertion (s)",
                       "hash-code share"});
  for (auto policy : {InsertionPolicy::kReservoir, InsertionPolicy::kFifo}) {
    LshTableGroup tables(make_hash_family(family),
                         {.range_pow = 12, .bucket_size = 128,
                          .policy = policy});
    // Insertion-only: keys precomputed (the counting-sort build).
    WallTimer insert_timer;
    tables.build_from_keys(keys, neurons);
    const double insert_seconds = insert_timer.seconds();

    // Full insertion: hash + build (single-threaded like the paper table).
    WallTimer full_timer;
    tables.build_from_rows(rows.data(), fan_in, neurons);
    const double full_seconds = full_timer.seconds();

    table.add_row({policy == InsertionPolicy::kReservoir ? "Reservoir"
                                                         : "FIFO",
                   fmt(insert_seconds, 3), fmt(full_seconds, 3),
                   fmt_pct(1.0 - insert_seconds / full_seconds, 1)});
  }
  std::printf("%s", table.str().c_str());
  std::printf("\n(parallel hashing of all %u neurons for reference: %.3fs "
              "on %d threads)\n", neurons, hashing_seconds, threads);
  std::printf("Reading: hashing dominates full insertion, so either policy "
              "is viable — the paper picks FIFO.\n");
  return 0;
}
