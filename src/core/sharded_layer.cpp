#include "core/sharded_layer.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "simd/kernels.h"

namespace slide {

namespace {

/// Golden-ratio stride between per-shard seed streams. Shard 0 keeps the
/// global seed unchanged — that is what makes shards = 1 reproduce the
/// monolithic layer bit for bit.
constexpr std::uint64_t kShardSeedStride = 0x9E3779B97F4A7C15ull;

}  // namespace

std::vector<Index> shard_partition(Index units, int shards) {
  SLIDE_CHECK(shards >= 1, "shard_partition: shards must be >= 1");
  SLIDE_CHECK(units >= static_cast<Index>(shards),
              "shard_partition: more shards than units");
  // Near-equal contiguous partition: the first units % shards shards own
  // one extra row. Deterministic in (units, shards), which is what lets a
  // checkpoint loader recompute any writer's partition from the block
  // sizes alone.
  const Index base = units / static_cast<Index>(shards);
  const Index rem = units % static_cast<Index>(shards);
  std::vector<Index> offsets;
  offsets.reserve(static_cast<std::size_t>(shards) + 1);
  offsets.push_back(0);
  for (int s = 0; s < shards; ++s)
    offsets.push_back(offsets.back() + base +
                      (s < static_cast<int>(rem) ? 1 : 0));
  return offsets;
}

SampledLayer::Config derive_shard_config(const SampledLayer::Config& global,
                                         Index shard_size, int shard_index) {
  const Index units = global.units;
  SampledLayer::Config sc = global;
  sc.units = shard_size;
  // Proportional share of the global sampling target, rounded up so the
  // merged active count lands at or slightly above the monolithic
  // target. shards = 1 keeps the target exactly.
  const Index global_target = std::min<Index>(global.sampling.target, units);
  sc.sampling.target = static_cast<Index>(
      (static_cast<std::uint64_t>(global_target) * shard_size + units - 1) /
      units);
  // The inference candidate budget is global too: split it the same way so
  // the summed per-shard candidate counts land at ~budget instead of
  // budget x S (the shard oversampling fix; 0 = knob off).
  if (global.sampling.inference_budget > 0) {
    const Index global_budget =
        std::min<Index>(global.sampling.inference_budget, units);
    sc.sampling.inference_budget = static_cast<Index>(
        (static_cast<std::uint64_t>(global_budget) * shard_size + units - 1) /
        units);
  }
  // Keep per-bucket occupancy constant across shard counts: a shard
  // holding 1/S of the rows gets tables with ~1/S of the buckets
  // (floored), so total table memory — and the fixed clear/allocate cost
  // of every rebuild — stays flat as S grows instead of multiplying.
  // shards = 1 keeps the configured range exactly (bit-identity anchor).
  int pow_shrink = 0;
  while ((units >> (pow_shrink + 1)) >= shard_size) ++pow_shrink;
  sc.table.range_pow = std::max(4, global.table.range_pow - pow_shrink);
  sc.seed = global.seed +
            kShardSeedStride * static_cast<std::uint64_t>(shard_index);
  return sc;
}

ShardedSampledLayer::ShardedSampledLayer(const SampledLayer::Config& config,
                                         int shards, int batch_slots,
                                         int max_threads, ParamInit init)
    : config_(config), units_(config.units), fan_in_(config.fan_in) {
  SLIDE_CHECK(config.hashed,
              "ShardedSampledLayer: sharding requires an LSH (hashed) layer");
  SLIDE_CHECK(!config.random_sampled,
              "ShardedSampledLayer: random_sampled cannot be sharded");
  offsets_ = shard_partition(units_, shards);
  for (int s = 0; s < shards; ++s) {
    const Index lo = offsets_[static_cast<std::size_t>(s)];
    const Index size = offsets_[static_cast<std::size_t>(s) + 1] - lo;
    shards_.push_back(std::make_unique<SampledLayer>(
        derive_shard_config(config, size, s), batch_slots, max_threads,
        init));
  }
  slots_.resize(static_cast<std::size_t>(batch_slots));
}

int ShardedSampledLayer::shard_of(Index unit) const noexcept {
  SLIDE_ASSERT(unit < units_);
  return static_cast<int>(
             std::upper_bound(offsets_.begin(), offsets_.end(), unit) -
             offsets_.begin()) -
         1;
}

// ---------------------------------------------------------------------------
// Training path
// ---------------------------------------------------------------------------

void ShardedSampledLayer::forward(int slot, const ActiveSet& prev,
                                  std::span<const Index> forced, Rng& rng,
                                  VisitedSet& visited, int tid) {
  // Each shard selects and scores its own candidates (forced labels are
  // routed to their owning shard in shard-local coordinates); the shard
  // slots then merge into this layer's globally-indexed slot. Shard order
  // is fixed, so the RNG consumption order is deterministic — and for a
  // single shard identical to the monolithic layer's.
  thread_local std::vector<Index> forced_local;
  const int num = shards();
  for (int s = 0; s < num; ++s) {
    const Index lo = offsets_[static_cast<std::size_t>(s)];
    const Index hi = offsets_[static_cast<std::size_t>(s) + 1];
    forced_local.clear();
    for (Index f : forced) {
      SLIDE_ASSERT(f < units_);
      if (f >= lo && f < hi) forced_local.push_back(f - lo);
    }
    shards_[static_cast<std::size_t>(s)]->forward(slot, prev, forced_local,
                                                  rng, visited, tid);
  }

  // Merge: concatenate the shard active sets in shard order, globalizing
  // ids by the shard row offset. A shard whose selection came up empty
  // contributes nothing (ActiveSet::size() is 0 for it).
  ActiveSet& ms = slots_[static_cast<std::size_t>(slot)];
  std::size_t total = 0;
  for (int s = 0; s < num; ++s)
    total += shards_[static_cast<std::size_t>(s)]->slot(slot).size();
  ms.ids.clear();
  ms.ids.reserve(total);
  ms.act.resize(total);
  ms.err.assign(total, 0.0f);
  std::size_t pos = 0;
  for (int s = 0; s < num; ++s) {
    const ActiveSet& ss = shards_[static_cast<std::size_t>(s)]->slot(slot);
    const Index off = offsets_[static_cast<std::size_t>(s)];
    const std::size_t n = ss.size();
    for (std::size_t i = 0; i < n; ++i) ms.ids.push_back(off + ss.ids[i]);
    std::copy(ss.act.begin(),
              ss.act.begin() + static_cast<std::ptrdiff_t>(n),
              ms.act.begin() + static_cast<std::ptrdiff_t>(pos));
    pos += n;
  }
}

float ShardedSampledLayer::compute_softmax_ce_deltas(
    int slot, std::span<const Index> labels, float inv_batch) {
  ActiveSet& ms = slots_[static_cast<std::size_t>(slot)];
  const std::size_t n = ms.ids.size();
  if (n == 0) return 0.0f;

  // Softmax over the merged active set: the normalizing constant spans all
  // shards' candidates, exactly like the monolithic layer's active-set
  // softmax (paper §3.1) — sharding must not change the loss surface.
  simd::softmax_inplace(ms.act.data(), n);
  for (std::size_t i = 0; i < n; ++i) ms.err[i] = ms.act[i] * inv_batch;

  // Label positions in the merged set: each shard's forced labels sit at
  // the head of its segment, in the order forward() routed them. Walk the
  // labels in caller order, keeping one running forced-counter per shard.
  const int num = shards();
  thread_local std::vector<std::size_t> seg_begin;
  thread_local std::vector<Index> forced_seen;
  seg_begin.assign(static_cast<std::size_t>(num), 0);
  forced_seen.assign(static_cast<std::size_t>(num), 0);
  std::size_t pos = 0;
  for (int s = 0; s < num; ++s) {
    seg_begin[static_cast<std::size_t>(s)] = pos;
    pos += shards_[static_cast<std::size_t>(s)]->slot(slot).size();
  }

  const float y =
      labels.empty() ? 0.0f : 1.0f / static_cast<float>(labels.size());
  float loss = 0.0f;
  for (Index label : labels) {
    const int s = shard_of(label);
    const std::size_t i = seg_begin[static_cast<std::size_t>(s)] +
                          forced_seen[static_cast<std::size_t>(s)]++;
    SLIDE_ASSERT(i < n && ms.ids[i] == label);
    ms.err[i] -= y * inv_batch;
    loss -= y * std::log(std::max(ms.act[i], 1e-30f));
  }
  return loss;
}

void ShardedSampledLayer::scatter_errors(int slot) {
  const ActiveSet& ms = slots_[static_cast<std::size_t>(slot)];
  std::size_t pos = 0;
  for (auto& shard : shards_) {
    ActiveSet& ss = shard->slot(slot);
    const std::size_t n = ss.size();
    std::copy(ms.err.begin() + static_cast<std::ptrdiff_t>(pos),
              ms.err.begin() + static_cast<std::ptrdiff_t>(pos + n),
              ss.err.begin());
    pos += n;
  }
}

void ShardedSampledLayer::backward(int slot, ActiveSet& prev, int tid) {
  // Route the merged deltas back to the shards that produced the active
  // neurons, then let each shard run its own backward (prev-error
  // propagation and its own pending record). A shard with an empty active
  // set propagates nothing, and its apply_updates finds no row to step.
  scatter_errors(slot);
  for (auto& shard : shards_) shard->backward(slot, prev, tid);
}

void ShardedSampledLayer::apply_updates(float lr, ThreadPool* pool) {
  for (auto& shard : shards_) shard->apply_updates(lr, pool);
}

// ---------------------------------------------------------------------------
// LSH lifecycle
// ---------------------------------------------------------------------------

bool ShardedSampledLayer::maybe_rebuild(long iteration, ThreadPool* pool) {
  // Fan the shards out across the pool (each shard builds its own table
  // group on one thread).
  if (pool != nullptr && pool->num_threads() > 1 && shards() > 1) {
    std::atomic<bool> fired{false};
    pool->parallel_for(shards_.size(), [&](std::size_t s, int) {
      if (shards_[s]->maybe_rebuild(iteration, nullptr))
        fired.store(true, std::memory_order_relaxed);
    });
    return fired.load(std::memory_order_relaxed);
  }
  bool fired = false;
  for (auto& shard : shards_) fired |= shard->maybe_rebuild(iteration, pool);
  return fired;
}

void ShardedSampledLayer::rebuild_tables(ThreadPool* pool) {
  if (pool != nullptr && pool->num_threads() > 1 && shards() > 1) {
    pool->parallel_for(shards_.size(), [&](std::size_t s, int) {
      shards_[s]->rebuild_tables(nullptr);
    });
    return;
  }
  for (auto& shard : shards_) shard->rebuild_tables(pool);
}

// ---------------------------------------------------------------------------
// Dynamic label lifecycle
// ---------------------------------------------------------------------------

Index ShardedSampledLayer::add_units(Index n) {
  SLIDE_CHECK(n > 0, "add_units: unit count must be positive");
  // Growth lands on the last shard: every other shard's global row offset
  // is unchanged, so existing ids — and the per-shard checkpoint blocks of
  // all earlier shards — stay stable.
  const Index first = units_;
  shards_.back()->add_units(n);
  offsets_.back() += n;
  units_ += n;
  config_.units = units_;
  return first;
}

void ShardedSampledLayer::retire_units(std::span<const Index> ids) {
  // All or nothing: every id is checked while routing, before any shard
  // retires one.
  std::vector<std::vector<Index>> per_shard(shards_.size());
  for (Index id : ids) {
    SLIDE_CHECK(id < units_, "retire_units: unit id out of range");
    const int s = shard_of(id);
    per_shard[static_cast<std::size_t>(s)].push_back(
        id - offsets_[static_cast<std::size_t>(s)]);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!per_shard[s].empty()) shards_[s]->retire_units(per_shard[s]);
  }
}

Index ShardedSampledLayer::retired_count() const noexcept {
  Index total = 0;
  for (const auto& shard : shards_) total += shard->retired_count();
  return total;
}

std::vector<Index> ShardedSampledLayer::retired_unit_ids() const {
  std::vector<Index> out;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::vector<Index> local = shards_[s]->retired_unit_ids();
    for (Index lid : local) out.push_back(offsets_[s] + lid);
  }
  return out;
}

Index ShardedSampledLayer::appended_units() const noexcept {
  Index total = 0;
  for (const auto& shard : shards_) total += shard->appended_units();
  return total;
}

long ShardedSampledLayer::rebuild_count() const {
  long total = 0;
  for (const auto& shard : shards_) total += shard->rebuild_count();
  return total;
}

TableHealth ShardedSampledLayer::table_health() const {
  TableHealth total;
  for (const auto& shard : shards_) total += shard->table_health();
  return total;
}

double ShardedSampledLayer::sampling_seconds() const {
  double total = 0.0;
  for (const auto& shard : shards_) total += shard->sampling_seconds();
  return total;
}

double ShardedSampledLayer::compute_seconds() const {
  double total = 0.0;
  for (const auto& shard : shards_) total += shard->compute_seconds();
  return total;
}

// ---------------------------------------------------------------------------
// Inference path
// ---------------------------------------------------------------------------

void ShardedSampledLayer::forward_inference(std::span<const Index> prev_ids,
                                            std::span<const float> prev_act,
                                            bool exact, Rng& rng,
                                            VisitedSet& visited,
                                            std::vector<Index>& ids_out,
                                            std::vector<float>& act_out) const {
  thread_local std::vector<Index> lids;
  thread_local std::vector<float> lact;
  ids_out.clear();
  act_out.clear();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->forward_inference(prev_ids, prev_act, exact, rng, visited,
                                  lids, lact);
    const Index off = offsets_[s];
    for (Index id : lids) ids_out.push_back(off + id);
    act_out.insert(act_out.end(), lact.begin(), lact.end());
  }
}

void ShardedSampledLayer::forward_inference_topk(
    std::span<const Index> prev_ids, std::span<const float> prev_act, int k,
    bool exact, Rng& rng, VisitedSet& visited, TopKScratch& scratch,
    std::vector<Index>& out) const {
  // Each shard's candidate run goes through the one bounded heap, with
  // the monolithic layer's order (descending score, ties toward the
  // earlier candidate position), so sharded and monolithic top-k agree
  // whenever their candidate sets do.
  scratch.heap.clear();
  scratch.position = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->forward_inference(prev_ids, prev_act, exact, rng, visited,
                                  scratch.ids, scratch.act);
    scratch.offer(static_cast<std::size_t>(k), offsets_[s]);
  }
  scratch.take(out);
}

// ---------------------------------------------------------------------------
// Misc hooks
// ---------------------------------------------------------------------------

void ShardedSampledLayer::on_weights_loaded() noexcept {
  for (auto& shard : shards_) shard->on_weights_loaded();
}

std::size_t ShardedSampledLayer::num_parameters() const noexcept {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->num_parameters();
  return total;
}

void ShardedSampledLayer::refresh_inference_mirror() noexcept {
  for (auto& shard : shards_) shard->refresh_inference_mirror();
}

std::size_t ShardedSampledLayer::inference_weight_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->inference_weight_bytes();
  return total;
}

LayerMemory ShardedSampledLayer::memory() const noexcept {
  LayerMemory m;
  for (const auto& shard : shards_) {
    const LayerMemory sm = shard->memory();
    m.master_bytes += sm.master_bytes;
    m.mirror_bytes += sm.mirror_bytes;
    m.optimizer_bytes += sm.optimizer_bytes;
    m.retriever_bytes += sm.retriever_bytes;
    m.mirror_hugepage_bytes += sm.mirror_hugepage_bytes;
  }
  return m;
}

double ShardedSampledLayer::average_active_fraction() const {
  // Weighted by shard width so the number reads as "fraction of the whole
  // layer active", same as the monolithic diagnostic.
  double weighted = 0.0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    weighted += shards_[s]->average_active_fraction() *
                static_cast<double>(offsets_[s + 1] - offsets_[s]);
  }
  return weighted / static_cast<double>(units_);
}

}  // namespace slide
