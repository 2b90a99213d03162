#include "retrieval/lsh_retriever.h"

namespace slide::retrieval {

LshRetriever::LshRetriever(std::unique_ptr<HashFamily> family,
                           const HashTable::Config& table_config,
                           const SamplingConfig& sampling, RowView rows,
                           std::uint64_t seed)
    : tables_(std::move(family), table_config, seed),
      sampling_(sampling),
      rows_(rows) {}

void LshRetriever::retrieve(std::span<const Index> query_ids,
                            std::span<const float> query_act, Index budget,
                            Rng& rng, VisitedSet& visited,
                            std::vector<Index>& out, bool fresh_epoch) const {
  // The historical SampledLayer hot path, moved here verbatim: hash the
  // query once per table, then union/select bucket ids.
  // sample_neurons stamps each selected id into `visited` — that is where
  // the retrieve() dedupe post-condition is enforced for this backend.
  SLIDE_CHECK(query_ids.empty(),
              "LshRetriever::retrieve: the query must be dense (query_ids "
              "empty)");
  thread_local std::vector<std::uint32_t> keys;
  keys.resize(static_cast<std::size_t>(tables_.l()));
  tables_.query_keys_dense(query_act.data(), keys);
  thread_local std::vector<std::span<const Index>> buckets;
  thread_local std::vector<Index> sampled;
  tables_.buckets(keys, buckets);
  SamplingConfig sampling = sampling_;
  sampling.target = budget;
  sample_neurons(sampling, buckets, visited, rng, sampled, fresh_epoch);
  if (!any_masked()) {
    out.insert(out.end(), sampled.begin(), sampled.end());
  } else {
    for (Index id : sampled) {
      if (!masked(id)) out.push_back(id);
    }
  }
}

void LshRetriever::rebuild(ThreadPool* pool) {
  tables_.build_from_rows(rows_.data, rows_.dim, rows_.count, pool);
}

}  // namespace slide::retrieval
