// HNSW graph retrieval (Malkov & Yashunin, 2016) over MIPS "distance".
//
// A hierarchical small-world graph: every node gets a geometrically
// distributed top level; upper levels form coarse express lanes (≤ m
// neighbors per node), level 0 carries the full navigable graph with
// heuristic-pruned neighbor lists of ≤ 2*m. A query greedily descends the
// upper levels to a good entry point, then runs a best-first beam of width
// ef over level 0. Distance is the negated inner product, matching the
// sampled layer's activation ranking (and the MIPS framing of paper §2).
//
// Determinism: the build is single-threaded, inserts ids in ascending
// order, draws levels from one seeded Rng, and breaks every distance tie
// by id — the same (rows, config, seed) always yields the same graph bit
// for bit (pinned by the seeded-build test), which is what makes the
// checkpoint-v4 graph blocks optional: a loader may skip them and rebuild.
//
// Concurrency: the graph is immutable behind a shared_ptr; rebuild()
// builds a fresh graph off to the side and swaps the pointer, so readers
// (retrieve is const) stay safe during background maintenance.
#pragma once

#include <memory>
#include <mutex>
#include <utility>

#include "retrieval/retriever.h"

namespace slide::retrieval {

class HnswRetriever final : public Retriever {
 public:
  /// Does NOT build: the graph is empty (retrieve yields nothing) until
  /// the first rebuild(). The layer builds at construction; standalone
  /// users build after filling their rows.
  HnswRetriever(RowView rows, const HnswConfig& config, std::uint64_t seed);

  RetrieverKind kind() const noexcept override { return RetrieverKind::kHnsw; }
  Index size() const noexcept override { return rows_.count; }

  void retrieve(std::span<const Index> query_ids,
                std::span<const float> query_act, Index budget, Rng& rng,
                VisitedSet& visited, std::vector<Index>& out,
                bool fresh_epoch = true) const override;

  /// Deterministic serial build + atomic publish. The pool is accepted for
  /// interface parity but unused — parallel insertion would break the
  /// seeded bit-stability contract.
  void rebuild(ThreadPool* pool) override;

  bool has_serialized_state() const noexcept override { return true; }
  void save_state(std::ostream& out) const override;
  bool load_state(std::istream& in) override;

  std::size_t memory_bytes() const noexcept override;

  const HnswConfig& config() const noexcept { return config_; }

 private:
  /// Immutable once published. links[node][level] is the pruned neighbor
  /// list; links[node].size() - 1 is the node's top level.
  struct Graph {
    Index entry = 0;
    int max_level = -1;  // -1: empty (nothing indexed yet)
    std::vector<std::vector<std::vector<Index>>> links;
  };

  /// Per-thread search state: an epoch-stamped visited array plus the two
  /// beam heaps, so concurrent retrieves never contend or allocate.
  struct Scratch {
    std::vector<std::uint32_t> stamp;
    std::uint32_t epoch = 0;
    std::vector<std::pair<float, Index>> cand;  // min-heap (closest first)
    std::vector<std::pair<float, Index>> top;   // max-heap (worst first)

    void begin(Index n);
    bool visit(Index id) {
      if (stamp[id] == epoch) return false;
      stamp[id] = epoch;
      return true;
    }
  };
  static Scratch& scratch();

  std::shared_ptr<const Graph> snapshot() const;
  void publish(std::shared_ptr<const Graph> graph);
  std::shared_ptr<const Graph> build() const;

  template <typename DistFn>
  static void greedy_descend(const Graph& g, DistFn&& dist, int level,
                             Index& curr, float& curr_dist);
  /// Best-first beam at `level` from `curr`; results land in s.top
  /// (heap order). Caller begins s's epoch and stamps `curr`.
  template <typename DistFn>
  static void search_layer(const Graph& g, DistFn&& dist, Index curr,
                           float curr_dist, int level, std::size_t ef,
                           Scratch& s);
  /// HNSW heuristic prune: walk candidates (ascending by distance-to-base,
  /// ties by id), keep one only if no already-kept neighbor is closer to
  /// it than the base is; backfill with the nearest pruned ones up to
  /// max_m so degrees stay full.
  void select_neighbors(std::vector<std::pair<float, Index>>& cand,
                        std::size_t max_m, std::vector<Index>& out) const;

  float node_dist(Index a, Index b) const;

  /// The published graph indexes ids, not row addresses, so it stays valid
  /// over the grown view; appended ids are simply unreachable until the
  /// next rebuild() (the layer rebuilds after growing an HNSW index).
  void do_resize(RowView rows) override { rows_ = rows; }

  RowView rows_;
  HnswConfig config_;
  std::uint64_t seed_;

  mutable std::mutex graph_mutex_;
  std::shared_ptr<const Graph> graph_;
};

}  // namespace slide::retrieval
