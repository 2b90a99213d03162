// The perfbench workloads and what they share. README.md says why
// each exists and what each metric means on it.
#pragma once

#include <cstdint>
#include <string>

#include "harness.h"
#include "slide/slide.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// churn-sharded: the checkpoint written by `prepare`.
  std::string checkpoint;
};

/// Deterministic per-purpose seeds derived from the run's --seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose);

/// Amazon-like kSmall training run: 2 trainer threads, sync maintenance.
void run_train_amazon(const RunArgs& args, Result& result, Tracer& tracer);

/// The delicious-like checkpoint served as an S=4 sharded snapshot while an
/// updater grows, retires, trains and republishes on a fixed tick.
void run_churn_sharded(const RunArgs& args, Result& result, Tracer& tracer);

/// Untimed preparation of the served model: trains the
/// delicious-like network on one thread with sync maintenance and fixed
/// seeds (so the checkpoint is a pure function of the commit) and writes it
/// to `path`.
void prepare_delicious(const std::string& path);

/// The delicious-like kSmall dataset (the generator's own seed) and the
/// served network's config (`shards` = 0 for the monolithic layer).
slide::SyntheticDataset delicious_data();
slide::NetworkConfig delicious_config(const slide::Dataset& train, int shards);

/// Single-threaded decomposition of the first 500 queries through the
/// inference path's public calls (embedding, hashing, bucket probes,
/// retrieval, top-k), plus retrieval quality. `monolithic` (optional) is an
/// unsharded twin of a sharded `network`, timed on the same queries for
/// core.shard_overhead_us. Traced runs only.
void decompose_queries(const slide::Network& network,
                       const slide::Dataset& queries, Tracer& tracer,
                       Result& result,
                       const slide::Network* monolithic = nullptr);

/// Memory and LSH table-health metrics read from the network's counters.
void report_memory(const slide::Network& network, Result& result,
                   Tracer& tracer);

/// Runs the host-noise probe and reports it (a human-readable line, and
/// the bench.host_* metrics in the traced run).
void report_host(Result& result);

}  // namespace perfbench
