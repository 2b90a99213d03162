#include "lsh/table_group.h"

#include <functional>
#include <utility>

namespace slide {

namespace {

/// Runs work(begin, end, worker) over [0, count), split across the pool
/// when one with more than one thread is given, inline otherwise.
void for_ranges(std::size_t count, ThreadPool* pool,
                const std::function<void(std::size_t, std::size_t, int)>&
                    work) {
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->parallel_range(count, work);
  } else {
    work(0, count, 0);
  }
}

}  // namespace

LshTableGroup::LshTableGroup(std::unique_ptr<HashFamily> family,
                             const HashTable::Config& table_config,
                             std::uint64_t seed)
    : family_(std::move(family)), seed_(seed) {
  SLIDE_CHECK(family_ != nullptr, "LshTableGroup: null hash family");
  tables_.reserve(static_cast<std::size_t>(family_->l()));
  for (int t = 0; t < family_->l(); ++t) tables_.emplace_back(table_config);
}

void LshTableGroup::buckets(std::span<const std::uint32_t> keys,
                            std::vector<std::span<const Index>>& out) const {
  SLIDE_ASSERT(keys.size() == tables_.size());
  out.resize(tables_.size());
  for (std::size_t t = 0; t < tables_.size(); ++t)
    out[t] = tables_[t].bucket(keys[t]);
}

void LshTableGroup::build_from_rows(const float* rows, std::size_t row_stride,
                                    Index count, ThreadPool* pool) {
  // "Easily parallelized with multiple threads over different neurons"
  // (paper §3.1): each id's keys land in their own scratch cells.
  std::vector<std::uint32_t> keys(tables_.size() * count);
  for_ranges(count, pool, [&](std::size_t begin, std::size_t end, int) {
    family_->hash_dense_rows(rows + begin * row_stride, row_stride,
                             end - begin, keys.data() + begin, count);
  });
  build_from_keys(keys, count, pool);
}

void LshTableGroup::build_from_keys(std::span<const std::uint32_t> keys,
                                    Index count, ThreadPool* pool) {
  const std::size_t l = tables_.size();
  SLIDE_CHECK(keys.size() == l * count,
              "LshTableGroup: keys must hold l() keys per id");
  std::vector<std::vector<HashTable::Overflow>> overflow(l);
  for_ranges(l, pool, [&](std::size_t begin, std::size_t end, int) {
    for (std::size_t t = begin; t < end; ++t)
      tables_[t].build(keys.subspan(t * count, count), overflow[t]);
  });

  // Reservoir replacements draw from one stream, in the order inserting
  // ids one at a time (each into every table) would draw them: id first,
  // then table. Each table's overflows ascend by id, so a stable counting
  // sort by id, fed table by table, yields that order in linear time.
  std::size_t total = 0;
  for (const auto& o : overflow) total += o.size();
  if (total == 0) return;
  std::vector<std::uint32_t> next(static_cast<std::size_t>(count) + 1, 0);
  for (const auto& o : overflow)
    for (const HashTable::Overflow& e : o) ++next[e.id + 1];
  for (std::size_t i = 1; i < next.size(); ++i) next[i] += next[i - 1];
  std::vector<std::pair<std::uint32_t, std::uint32_t>> order(total);
  for (std::size_t t = 0; t < l; ++t)
    for (std::size_t k = 0; k < overflow[t].size(); ++k)
      order[next[overflow[t][k].id]++] = {static_cast<std::uint32_t>(t),
                                          static_cast<std::uint32_t>(k)};
  Rng rng(seed_);
  for (const auto& [t, k] : order) tables_[t].resolve(overflow[t][k], rng);
}

void LshTableGroup::splice_rows(Index first, const float* rows,
                                std::size_t row_stride, Index count,
                                Rng& rng) {
  const std::size_t l = tables_.size();
  std::vector<std::uint32_t> keys(l * count);
  family_->hash_dense_rows(rows, row_stride, count, keys.data(), count);
  for (std::size_t t = 0; t < l; ++t)
    tables_[t].splice(first, std::span(keys).subspan(t * count, count), rng);
}

TableHealth LshTableGroup::health() const noexcept {
  TableHealth h;
  for (const auto& table : tables_) {
    h.buckets += table.num_buckets();
    h.occupied += table.occupied_buckets();
    h.saturated += table.saturated_buckets();
  }
  return h;
}

std::size_t LshTableGroup::memory_bytes() const {
  std::size_t total = 0;
  for (const auto& table : tables_) total += table.memory_bytes();
  return total;
}

}  // namespace slide
