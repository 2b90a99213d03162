#include "retrieval/exact_retriever.h"

namespace slide::retrieval {

void ExactRetriever::retrieve(std::span<const Index> query_ids,
                              std::span<const float> query_act, Index budget,
                              Rng& rng, VisitedSet& visited,
                              std::vector<Index>& out,
                              bool fresh_epoch) const {
  // The query and budget do not narrow an exact scan; the signature is the
  // shared contract, not a promise to use every argument.
  SLIDE_CHECK(query_ids.empty(),
              "ExactRetriever::retrieve: the query must be dense (query_ids "
              "empty)");
  (void)query_act;
  (void)budget;
  (void)rng;
  if (fresh_epoch) visited.begin_epoch();
  const Index n = rows_.count;
  out.reserve(out.size() + static_cast<std::size_t>(n));
  for (Index id = 0; id < n; ++id) {
    if (masked(id)) continue;
    if (visited.insert(id)) out.push_back(id);
  }
}

}  // namespace slide::retrieval
