// Per-layer decomposition of the inference path, the memory counters and
// the host-noise report, shared by every workload.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "workloads.h"

namespace perfbench {
namespace {

using namespace slide;

/// The SampledLayer parts that own LSH tables: the output layer itself, or
/// each shard of a sharded output layer.
std::vector<const SampledLayer*> table_owners(const Network& network) {
  const Layer& out = network.stack(network.stack_depth() - 1);
  std::vector<const SampledLayer*> parts;
  if (const auto* sharded = dynamic_cast<const ShardedSampledLayer*>(&out)) {
    for (int s = 0; s < sharded->shards(); ++s)
      parts.push_back(&sharded->shard(s));
  } else {
    parts.push_back(&network.output_layer());
  }
  return parts;
}

double micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Top-k time of `network`'s output layer on `hidden`, microseconds.
double topk_us(const Network& network, std::span<const float> hidden,
               InferenceContext& ctx) {
  const Layer& layer = network.stack(network.stack_depth() - 1);
  std::vector<Index>& out = ctx.ids_a;
  const auto t0 = Clock::now();
  layer.forward_inference_topk({}, hidden, 1, /*exact=*/false, ctx.rng,
                               ctx.visited, ctx.topk, out);
  return micros(t0, Clock::now());
}

}  // namespace

void decompose_queries(const Network& network, const Dataset& queries,
                       Tracer& tracer, Result& result,
                       const Network* monolithic) {
  SLIDE_CHECK(network.stack_depth() == 1,
              "decompose_queries: expects embedding + output layer");
  const std::size_t count = std::min<std::size_t>(500, queries.size());
  const Layer& out = network.stack(0);
  const auto parts = table_owners(network);
  InferenceContext ctx(network, 0xDEC0);
  std::unique_ptr<InferenceContext> mono_ctx;
  if (monolithic != nullptr)
    mono_ctx = std::make_unique<InferenceContext>(*monolithic, 0xDEC0);
  std::vector<float> hidden(static_cast<std::size_t>(network.embedding().units()));
  std::vector<std::uint32_t> keys;
  std::vector<std::span<const Index>> buckets;
  std::vector<Index> candidates, top, exact_top, ids;
  std::vector<float> acts;
  std::vector<double> embed, hash, probe, retrieve, topk, overhead;
  double cands = 0.0, hits = 0.0, active = 0.0, bytes = 0.0;
  for (std::size_t q = 0; q < count; ++q) {
    const SparseVector& x = queries[q].features;
    ScopedSpan query(tracer, "decompose.query", q);
    auto t0 = Clock::now();
    network.embedding().forward_inference(x, hidden.data());
    auto t1 = Clock::now();
    embed.push_back(micros(t0, t1));
    tracer.record("core.embed", t0, t1, tracer.next_id(), query.id(), q);

    double hash_q = 0.0, probe_q = 0.0, retrieve_q = 0.0;
    for (const SampledLayer* part : parts) {
      const MaintainedTables& tables = *part->tables();
      keys.resize(static_cast<std::size_t>(tables.l()));
      t0 = Clock::now();
      tables.query_keys_dense(hidden.data(), keys);
      t1 = Clock::now();
      hash_q += micros(t0, t1);
      tracer.record("lsh.hash", t0, t1, tracer.next_id(), query.id(), q);
      t0 = Clock::now();
      tables.buckets(keys, buckets);
      t1 = Clock::now();
      probe_q += micros(t0, t1);
      tracer.record("lsh.probe", t0, t1, tracer.next_id(), query.id(), q);
      const SamplingConfig& sampling = part->config().sampling;
      const Index budget = sampling.inference_budget > 0
                               ? sampling.inference_budget
                               : sampling.target;
      candidates.clear();
      t0 = Clock::now();
      part->retriever()->retrieve({}, hidden, budget, ctx.rng, ctx.visited,
                                  candidates);
      t1 = Clock::now();
      retrieve_q += micros(t0, t1);
      tracer.record("retrieval.retrieve", t0, t1, tracer.next_id(),
                    query.id(), q);
      cands += static_cast<double>(candidates.size());
    }
    hash.push_back(hash_q);
    probe.push_back(probe_q);
    retrieve.push_back(retrieve_q);

    t0 = Clock::now();
    out.forward_inference_topk({}, hidden, 1, /*exact=*/false, ctx.rng,
                               ctx.visited, ctx.topk, top);
    t1 = Clock::now();
    topk.push_back(micros(t0, t1));
    tracer.record("core.topk", t0, t1, tracer.next_id(), query.id(), q);
    if (monolithic != nullptr)
      overhead.push_back(topk.back() - topk_us(*monolithic, hidden, *mono_ctx));

    // Retrieval quality: is the exact top-1 among the sampled candidates?
    out.forward_inference({}, hidden, /*exact=*/false, ctx.rng, ctx.visited,
                          ids, acts);
    out.forward_inference_topk({}, hidden, 1, /*exact=*/true, ctx.rng,
                               ctx.visited, ctx.topk, exact_top);
    if (!exact_top.empty() &&
        std::find(ids.begin(), ids.end(), exact_top[0]) != ids.end())
      hits += 1.0;
    active += static_cast<double>(ids.size()) / static_cast<double>(out.units());
    bytes += static_cast<double>(ids.size()) *
             static_cast<double>(out.fan_in()) * sizeof(float);
  }
  const double n = static_cast<double>(std::max<std::size_t>(count, 1));
  result.layer("core.embed_us", mean(embed), embed.size());
  result.layer("lsh.hash_us", mean(hash), hash.size());
  result.layer("lsh.probe_us", mean(probe), probe.size());
  result.layer("retrieval.retrieve_us", mean(retrieve), retrieve.size());
  result.layer("retrieval.candidates", cands / n, count);
  result.layer("core.topk_us", mean(topk), topk.size());
  result.layer("core.shard_overhead_us", mean(overhead), overhead.size());
  result.layer("retrieval.recall_at_1", hits / n, count);
  result.layer("retrieval.active_fraction", active / n, count);
  result.layer("simd.score_bytes", bytes / n, count);
}

void report_memory(const Network& network, Result& result, Tracer& tracer) {
  const MemoryFootprint m = network.memory_footprint();
  constexpr double kMB = 1024.0 * 1024.0;
  tracer.count("memory.master_weight_bytes",
               static_cast<double>(m.master_weight_bytes));
  tracer.count("memory.optimizer_bytes",
               static_cast<double>(m.optimizer_bytes));
  tracer.count("memory.retriever_bytes",
               static_cast<double>(m.retriever_bytes));
  tracer.count("memory.mirror_bytes", static_cast<double>(m.mirror_bytes));
  result.layer("lsh.index_mb", static_cast<double>(m.retriever_bytes) / kMB);
  result.layer("core.weights_mb",
               static_cast<double>(m.master_weight_bytes) / kMB);
  result.layer("optim.state_mb", static_cast<double>(m.optimizer_bytes) / kMB);
  double occupied = 0.0, buckets = 0.0;
  for (const SampledLayer* part : table_owners(network)) {
    const MaintainedTables& tables = *part->tables();
    for (int t = 0; t < tables.l(); ++t) {
      occupied += static_cast<double>(tables.table(t).occupied_buckets());
      buckets += static_cast<double>(tables.table(t).num_buckets());
    }
  }
  result.layer("lsh.bucket_occupancy", buckets > 0 ? occupied / buckets : 0.0);
}

void report_host(Result& result) {
  const HostNoise noise = probe_host();
  std::printf("host noise: wake p99 %.1f us (n=%zu, %zu beyond) | compute "
              "%.4g iter/s\n",
              noise.wake_p99_us.value, noise.wake_p99_us.samples,
              noise.wake_p99_us.beyond, noise.compute_rate);
  result.layer("bench.host_wake_p99_us", noise.wake_p99_us.value,
               noise.wake_p99_us.samples);
  result.layer("bench.host_compute_rate", noise.compute_rate);
}

}  // namespace perfbench
