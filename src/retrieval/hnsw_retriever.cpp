#include "retrieval/hnsw_retriever.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "simd/kernels.h"

namespace slide::retrieval {

namespace {

/// Geometric level cap: P(level > 30) is astronomically small for any
/// usable m; the cap only bounds the per-node vector in adversarial draws.
constexpr int kMaxLevel = 30;

/// (distance, id) ordered lexicographically — the id tie-break is what
/// makes every heap/sort decision, and hence the whole graph,
/// deterministic.
using Scored = std::pair<float, Index>;

struct MinFirst {
  bool operator()(const Scored& a, const Scored& b) const { return a > b; }
};
struct MaxFirst {
  bool operator()(const Scored& a, const Scored& b) const { return a < b; }
};

void write_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

std::uint32_t read_u32(std::istream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  SLIDE_CHECK(static_cast<bool>(in), "hnsw state: truncated stream");
  return v;
}

}  // namespace

HnswRetriever::HnswRetriever(RowView rows, const HnswConfig& config,
                             std::uint64_t seed)
    : rows_(rows), config_(config), seed_(seed) {
  SLIDE_CHECK(config_.m >= 2, "hnsw: m must be >= 2");
  SLIDE_CHECK(config_.ef_construction >= config_.m,
              "hnsw: ef_construction must be >= m");
  SLIDE_CHECK(config_.ef_search >= 1, "hnsw: ef_search must be >= 1");
}

HnswRetriever::Scratch& HnswRetriever::scratch() {
  thread_local Scratch s;
  return s;
}

void HnswRetriever::Scratch::begin(Index n) {
  if (stamp.size() < static_cast<std::size_t>(n))
    stamp.resize(static_cast<std::size_t>(n), 0);
  if (++epoch == 0) {
    std::fill(stamp.begin(), stamp.end(), 0u);
    epoch = 1;
  }
}

std::shared_ptr<const HnswRetriever::Graph> HnswRetriever::snapshot() const {
  const std::lock_guard<std::mutex> lock(graph_mutex_);
  return graph_;
}

void HnswRetriever::publish(std::shared_ptr<const Graph> graph) {
  const std::lock_guard<std::mutex> lock(graph_mutex_);
  graph_ = std::move(graph);
}

float HnswRetriever::node_dist(Index a, Index b) const {
  return -simd::dot(rows_.row(a), rows_.row(b),
                    static_cast<std::size_t>(rows_.dim));
}

template <typename DistFn>
void HnswRetriever::greedy_descend(const Graph& g, DistFn&& dist, int level,
                                   Index& curr, float& curr_dist) {
  bool improved = true;
  while (improved) {
    improved = false;
    for (Index nb :
         g.links[static_cast<std::size_t>(curr)][static_cast<std::size_t>(
             level)]) {
      const float d = dist(nb);
      if (d < curr_dist || (d == curr_dist && nb < curr)) {
        curr = nb;
        curr_dist = d;
        improved = true;
      }
    }
  }
}

template <typename DistFn>
void HnswRetriever::search_layer(const Graph& g, DistFn&& dist, Index curr,
                                 float curr_dist, int level, std::size_t ef,
                                 Scratch& s) {
  s.cand.clear();
  s.top.clear();
  s.cand.emplace_back(curr_dist, curr);
  s.top.emplace_back(curr_dist, curr);
  while (!s.cand.empty()) {
    std::pop_heap(s.cand.begin(), s.cand.end(), MinFirst{});
    const Scored c = s.cand.back();
    s.cand.pop_back();
    if (s.top.size() >= ef && c.first > s.top.front().first) break;
    for (Index nb :
         g.links[static_cast<std::size_t>(c.second)][static_cast<std::size_t>(
             level)]) {
      if (!s.visit(nb)) continue;
      const float d = dist(nb);
      if (s.top.size() < ef || d < s.top.front().first ||
          (d == s.top.front().first && nb < s.top.front().second)) {
        s.cand.emplace_back(d, nb);
        std::push_heap(s.cand.begin(), s.cand.end(), MinFirst{});
        s.top.emplace_back(d, nb);
        std::push_heap(s.top.begin(), s.top.end(), MaxFirst{});
        if (s.top.size() > ef) {
          std::pop_heap(s.top.begin(), s.top.end(), MaxFirst{});
          s.top.pop_back();
        }
      }
    }
  }
}

void HnswRetriever::select_neighbors(std::vector<Scored>& cand,
                                     std::size_t max_m,
                                     std::vector<Index>& out) const {
  std::sort(cand.begin(), cand.end());
  out.clear();
  for (const auto& [d, id] : cand) {
    if (out.size() >= max_m) return;
    bool keep = true;
    for (Index sel : out) {
      // An already-selected neighbor closer to the candidate than the base
      // point occludes it — the candidate is reachable through `sel`.
      if (node_dist(id, sel) < d) {
        keep = false;
        break;
      }
    }
    if (keep) out.push_back(id);
  }
  if (out.size() >= max_m) return;
  // Backfill with the nearest pruned candidates: full degrees keep the
  // graph navigable when the heuristic is aggressive (clustered rows).
  for (const auto& [d, id] : cand) {
    if (out.size() >= max_m) return;
    if (std::find(out.begin(), out.end(), id) == out.end()) out.push_back(id);
  }
}

std::shared_ptr<const HnswRetriever::Graph> HnswRetriever::build() const {
  auto g = std::make_shared<Graph>();
  const Index n = rows_.count;
  g->links.resize(static_cast<std::size_t>(n));
  if (n == 0) return g;

  // All level draws up front, one per node in id order, from one seeded
  // stream — the insertion loop below consumes no randomness at all.
  const double ml = 1.0 / std::log(static_cast<double>(config_.m));
  Rng rng(seed_);
  std::vector<int> levels(static_cast<std::size_t>(n));
  for (auto& level : levels) {
    const double u = std::max(rng.uniform_double(), 1e-300);
    level = std::min(kMaxLevel, static_cast<int>(-std::log(u) * ml));
  }

  const std::size_t m = static_cast<std::size_t>(config_.m);
  const std::size_t ef = static_cast<std::size_t>(config_.ef_construction);
  Scratch& s = scratch();
  std::vector<Scored> pool;
  std::vector<Scored> rescored;
  std::vector<Index> pruned;
  for (Index i = 0; i < n; ++i) {
    const int li = levels[static_cast<std::size_t>(i)];
    g->links[static_cast<std::size_t>(i)].assign(
        static_cast<std::size_t>(li) + 1, {});
    if (g->max_level < 0) {
      g->entry = i;
      g->max_level = li;
      continue;
    }
    const float* qrow = rows_.row(i);
    auto dist = [&](Index v) {
      return -simd::dot(qrow, rows_.row(v),
                        static_cast<std::size_t>(rows_.dim));
    };
    Index curr = g->entry;
    float curr_dist = dist(curr);
    for (int lc = g->max_level; lc > li; --lc)
      greedy_descend(*g, dist, lc, curr, curr_dist);
    for (int lc = std::min(g->max_level, li); lc >= 0; --lc) {
      s.begin(n);
      s.visit(curr);
      search_layer(*g, dist, curr, curr_dist, lc, ef, s);
      pool.assign(s.top.begin(), s.top.end());
      const std::size_t cap = lc == 0 ? 2 * m : m;
      std::vector<Index>& own =
          g->links[static_cast<std::size_t>(i)][static_cast<std::size_t>(lc)];
      select_neighbors(pool, cap, own);  // sorts pool ascending
      for (Index nb : own) {
        std::vector<Index>& back = g->links[static_cast<std::size_t>(
            nb)][static_cast<std::size_t>(lc)];
        back.push_back(i);
        if (back.size() > cap) {
          rescored.clear();
          for (Index id : back) rescored.emplace_back(node_dist(nb, id), id);
          select_neighbors(rescored, cap, pruned);
          back = pruned;
        }
      }
      if (!pool.empty()) {
        curr = pool.front().second;
        curr_dist = pool.front().first;
      }
    }
    if (li > g->max_level) {
      g->max_level = li;
      g->entry = i;
    }
  }
  return g;
}

void HnswRetriever::rebuild(ThreadPool* pool) {
  (void)pool;
  publish(build());
}

void HnswRetriever::retrieve(std::span<const Index> query_ids,
                             std::span<const float> query_act, Index budget,
                             Rng& rng, VisitedSet& visited,
                             std::vector<Index>& out, bool fresh_epoch) const {
  (void)rng;  // the search is deterministic; the Rng is contract surface
  if (fresh_epoch) visited.begin_epoch();
  const std::shared_ptr<const Graph> g = snapshot();
  if (g == nullptr || g->max_level < 0 || budget <= 0) return;

  auto dist = [&](Index v) {
    const float* row = rows_.row(v);
    return query_ids.empty()
               ? -simd::dot(query_act.data(), row,
                            static_cast<std::size_t>(rows_.dim))
               : -simd::sparse_dot(query_ids.data(), query_act.data(),
                                   query_ids.size(), row);
  };

  Index curr = g->entry;
  float curr_dist = dist(curr);
  for (int lc = g->max_level; lc >= 1; --lc)
    greedy_descend(*g, dist, lc, curr, curr_dist);

  const std::size_t ef = std::max<std::size_t>(
      static_cast<std::size_t>(config_.ef_search),
      static_cast<std::size_t>(budget));
  Scratch& s = scratch();
  s.begin(rows_.count);
  s.visit(curr);
  search_layer(*g, dist, curr, curr_dist, 0, ef, s);

  // Emit best-first so a caller truncating to `budget` keeps the closest.
  std::sort(s.top.begin(), s.top.end());
  Index emitted = 0;
  for (const auto& [d, id] : s.top) {
    if (emitted >= budget) break;
    if (masked(id)) continue;
    if (visited.insert(id)) {
      out.push_back(id);
      ++emitted;
    }
  }
}

void HnswRetriever::save_state(std::ostream& out) const {
  const std::shared_ptr<const Graph> g = snapshot();
  write_u32(out, static_cast<std::uint32_t>(rows_.count));
  write_u32(out, static_cast<std::uint32_t>(config_.m));
  write_u32(out, g == nullptr ? 0u : static_cast<std::uint32_t>(g->entry));
  write_u32(out, static_cast<std::uint32_t>(
                     g == nullptr ? -1 : g->max_level));
  if (g == nullptr || g->max_level < 0) return;
  for (const auto& node : g->links) {
    write_u32(out, static_cast<std::uint32_t>(node.size()));
    for (const auto& level : node) {
      write_u32(out, static_cast<std::uint32_t>(level.size()));
      for (Index id : level) write_u32(out, id);
    }
  }
}

bool HnswRetriever::load_state(std::istream& in) {
  const std::uint32_t count = read_u32(in);
  const std::uint32_t m = read_u32(in);
  if (count != static_cast<std::uint32_t>(rows_.count)) {
    // A graph saved over a different universe (e.g. the layer grew or
    // shrank relative to this checkpoint) indexes the wrong id space:
    // decline and let the caller rebuild from the rows.
    return false;
  }
  SLIDE_CHECK(m == static_cast<std::uint32_t>(config_.m),
              "hnsw state: m mismatch");
  auto g = std::make_shared<Graph>();
  g->entry = read_u32(in);
  g->max_level = static_cast<std::int32_t>(read_u32(in));
  if (g->max_level < 0) {
    // An empty graph was saved (never built): nothing usable to restore.
    return false;
  }
  SLIDE_CHECK(g->max_level <= kMaxLevel, "hnsw state: corrupt max level");
  SLIDE_CHECK(g->entry < rows_.count, "hnsw state: entry out of range");
  const auto top = static_cast<std::uint32_t>(g->max_level) + 1;
  g->links.resize(count);
  for (auto& node : g->links) {
    const std::uint32_t nlevels = read_u32(in);
    SLIDE_CHECK(nlevels >= 1 && nlevels <= top,
                "hnsw state: corrupt level count");
    node.resize(nlevels);
    for (auto& level : node) {
      const std::uint32_t deg = read_u32(in);
      SLIDE_CHECK(deg <= count, "hnsw state: corrupt degree");
      level.resize(deg);
      for (Index& id : level) {
        id = read_u32(in);
        SLIDE_CHECK(id < rows_.count, "hnsw state: neighbor out of range");
      }
    }
  }
  // A search enters at the top level and follows level-l links only to
  // nodes that have level l, as build() guarantees: check both, or a
  // corrupt graph would index past a node's links at query time.
  SLIDE_CHECK(g->links[g->entry].size() == top,
              "hnsw state: entry below the top level");
  for (const auto& node : g->links) {
    for (std::size_t l = 0; l < node.size(); ++l) {
      for (Index id : node[l])
        SLIDE_CHECK(g->links[id].size() > l,
                    "hnsw state: neighbor missing a level");
    }
  }
  publish(std::move(g));
  return true;
}

std::size_t HnswRetriever::memory_bytes() const noexcept {
  const std::shared_ptr<const Graph> g = snapshot();
  if (g == nullptr) return 0;
  std::size_t bytes = 0;
  for (const auto& node : g->links) {
    bytes += sizeof(node);
    for (const auto& level : node)
      bytes += sizeof(level) + level.capacity() * sizeof(Index);
  }
  return bytes;
}

}  // namespace slide::retrieval
