// Hash-table and table-group tests: bucket addressing, both replacement
// policies (including the reservoir's equal-retention property), the
// counting-sort build against the one-id-at-a-time insert loop it
// replaced, pool-size independence, splices, memory, and retrieval
// quality of the full (K, L) structure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "lsh/factory.h"
#include "lsh/hash_table.h"
#include "lsh/table_group.h"
#include "sys/rng.h"
#include "sys/thread_pool.h"

namespace slide {
namespace {

/// One table's build as the group runs it: reservoir overflows resolve
/// in id order from `rng`.
void build(HashTable& table, std::span<const std::uint32_t> keys, Rng& rng) {
  std::vector<HashTable::Overflow> overflow;
  table.build(keys, overflow);
  for (const HashTable::Overflow& o : overflow) table.resolve(o, rng);
}

TEST(HashTable, InsertThenQueryReturnsId) {
  HashTable table({.range_pow = 8, .bucket_size = 16});
  Rng rng(1);
  std::vector<std::uint32_t> keys(10);
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = static_cast<std::uint32_t>(i) * 977u;
  keys[7] = 12345u;
  build(table, keys, rng);
  const auto bucket = table.bucket(12345u);
  ASSERT_EQ(std::count(bucket.begin(), bucket.end(), 7u), 1);
  EXPECT_EQ(table.total_stored(), keys.size());
}

TEST(HashTable, DistinctKeysUsuallyLandInDistinctBuckets) {
  HashTable table({.range_pow = 12, .bucket_size = 4});
  Rng rng(2);
  std::vector<std::uint32_t> keys(64);
  for (Index id = 0; id < 64; ++id) keys[id] = id * 2'654'435'761u;
  build(table, keys, rng);
  EXPECT_GT(table.occupied_buckets(), 48u);  // few aliases at 4096 buckets
}

TEST(HashTable, BucketNeverExceedsCapacity) {
  HashTable table({.range_pow = 4, .bucket_size = 8,
                   .policy = InsertionPolicy::kReservoir});
  Rng rng(3);
  build(table, std::vector<std::uint32_t>(1'000, 42u), rng);
  EXPECT_EQ(table.bucket(42u).size(), 8u);
  EXPECT_EQ(table.total_stored(), 8u);
  EXPECT_EQ(table.saturated_buckets(), 1u);
}

TEST(HashTable, FifoKeepsTheNewestEntries) {
  HashTable table({.range_pow = 4, .bucket_size = 4,
                   .policy = InsertionPolicy::kFifo});
  Rng rng(4);
  build(table, std::vector<std::uint32_t>(10, 7u), rng);
  const auto bucket = table.bucket(7u);
  std::set<Index> got(bucket.begin(), bucket.end());
  // Ring overwrite: ids 6..9 survive.
  EXPECT_EQ(got, (std::set<Index>{6, 7, 8, 9}));
}

TEST(HashTable, ReservoirRetainsItemsUniformly) {
  // Vitter's property: after inserting N items into capacity C, every item
  // survives with probability C/N. Check per-item retention across trials.
  constexpr int kTrials = 2'000;
  constexpr Index kItems = 20;
  constexpr int kCap = 5;
  std::vector<int> survived(kItems, 0);
  for (int trial = 0; trial < kTrials; ++trial) {
    HashTable table({.range_pow = 2, .bucket_size = kCap,
                     .policy = InsertionPolicy::kReservoir});
    Rng rng(static_cast<std::uint64_t>(trial) + 10);
    build(table, std::vector<std::uint32_t>(kItems, 0u), rng);
    for (Index id : table.bucket(0u)) ++survived[id];
  }
  const double expected = static_cast<double>(kCap) / kItems;
  for (Index id = 0; id < kItems; ++id) {
    const double rate = static_cast<double>(survived[id]) / kTrials;
    EXPECT_NEAR(rate, expected, 0.04) << "id=" << id;
  }
}

TEST(HashTable, ClearEmptiesEverything) {
  // A build replaces the whole table: rebuilding from no ids empties it.
  HashTable table({.range_pow = 6, .bucket_size = 8});
  Rng rng(5);
  std::vector<std::uint32_t> keys(100);
  for (Index id = 0; id < 100; ++id) keys[id] = id * 77u;
  build(table, keys, rng);
  EXPECT_GT(table.occupied_buckets(), 0u);
  build(table, {}, rng);
  EXPECT_EQ(table.total_stored(), 0u);
  EXPECT_EQ(table.occupied_buckets(), 0u);
  EXPECT_EQ(table.saturated_buckets(), 0u);
}

TEST(HashTable, RejectsBadConfig) {
  EXPECT_THROW(HashTable({.range_pow = 0}), Error);
  EXPECT_THROW(HashTable({.range_pow = 29}), Error);
  EXPECT_THROW(HashTable({.range_pow = 8, .bucket_size = 0}), Error);
}

TEST(HashTable, SpliceIntoFullBucketRetainsItemsUniformly) {
  // A full bucket keeps Vitter's rule across a splice: 5 built ids fill
  // it, 15 spliced ids follow, and each of the 20 survives with ~5/20.
  constexpr int kTrials = 2'000;
  constexpr Index kBuilt = 5, kSpliced = 15;
  constexpr int kCap = 5;
  std::vector<int> survived(kBuilt + kSpliced, 0);
  for (int trial = 0; trial < kTrials; ++trial) {
    HashTable table({.range_pow = 2, .bucket_size = kCap});
    Rng rng(static_cast<std::uint64_t>(trial) + 10);
    build(table, std::vector<std::uint32_t>(kBuilt, 0u), rng);
    table.splice(kBuilt, std::vector<std::uint32_t>(kSpliced, 0u), rng);
    ASSERT_EQ(table.bucket(0u).size(), static_cast<std::size_t>(kCap));
    for (Index id : table.bucket(0u)) ++survived[id];
  }
  const double expected = static_cast<double>(kCap) / (kBuilt + kSpliced);
  for (Index id = 0; id < kBuilt + kSpliced; ++id) {
    const double rate = static_cast<double>(survived[id]) / kTrials;
    EXPECT_NEAR(rate, expected, 0.04) << "id=" << id;
  }
}

class PolicyParam : public ::testing::TestWithParam<InsertionPolicy> {};

TEST_P(PolicyParam, OverflowKeepsExactlyCapacityEntriesFromTheStream) {
  HashTable table({.range_pow = 3, .bucket_size = 16, .policy = GetParam()});
  Rng rng(6);
  build(table, std::vector<std::uint32_t>(500, 99u), rng);
  const auto bucket = table.bucket(99u);
  EXPECT_EQ(bucket.size(), 16u);
  std::set<Index> unique(bucket.begin(), bucket.end());
  EXPECT_EQ(unique.size(), 16u);  // all distinct
  for (Index id : bucket) EXPECT_LT(id, 500u);
}

INSTANTIATE_TEST_SUITE_P(Policies, PolicyParam,
                         ::testing::Values(InsertionPolicy::kReservoir,
                                           InsertionPolicy::kFifo));

// ---------------------------------------------------------------------------
// LshTableGroup
// ---------------------------------------------------------------------------

std::unique_ptr<HashFamily> simhash_family(int k, int l, Index dim,
                                           std::uint64_t seed = 31) {
  HashFamilyConfig cfg;
  cfg.kind = HashFamilyKind::kSimhash;
  cfg.k = k;
  cfg.l = l;
  cfg.dim = dim;
  cfg.seed = seed;
  return make_hash_family(cfg);
}

/// Rows: `count` unit vectors, row i = normalized random vector.
std::vector<float> random_rows(Index count, Index dim, Rng& rng) {
  std::vector<float> rows(static_cast<std::size_t>(count) * dim);
  for (Index r = 0; r < count; ++r) {
    float norm = 0.0f;
    float* row = rows.data() + static_cast<std::size_t>(r) * dim;
    for (Index d = 0; d < dim; ++d) {
      row[d] = rng.normal();
      norm += row[d] * row[d];
    }
    norm = std::sqrt(norm);
    for (Index d = 0; d < dim; ++d) row[d] /= norm;
  }
  return rows;
}

TEST(TableGroup, BuildAndQueryRetrievesSelf) {
  const Index n = 200, dim = 32;
  Rng rng(7);
  const auto rows = random_rows(n, dim, rng);
  LshTableGroup group(simhash_family(4, 16, dim),
                      {.range_pow = 10, .bucket_size = 32});
  group.build_from_rows(rows.data(), dim, n);

  // Querying with a stored vector must find its own id in some bucket.
  int self_hits = 0;
  std::vector<std::uint32_t> keys(static_cast<std::size_t>(group.l()));
  std::vector<std::span<const Index>> buckets;
  for (Index i = 0; i < 50; ++i) {
    group.query_keys_dense(rows.data() + static_cast<std::size_t>(i) * dim,
                           keys);
    group.buckets(keys, buckets);
    bool found = false;
    for (const auto& b : buckets)
      if (std::find(b.begin(), b.end(), i) != b.end()) found = true;
    self_hits += found ? 1 : 0;
  }
  EXPECT_EQ(self_hits, 50);
}

TEST(TableGroup, ParallelBuildMatchesSerialContentApproximately) {
  // K=6 gives 64 addressable fingerprints, so no bucket exceeds the
  // capacity of 64 and both builds must store every insert.
  const Index n = 500, dim = 16;
  Rng rng(8);
  const auto rows = random_rows(n, dim, rng);
  LshTableGroup serial(simhash_family(6, 8, dim),
                       {.range_pow = 9, .bucket_size = 64});
  serial.build_from_rows(rows.data(), dim, n);

  ThreadPool pool(4);
  LshTableGroup parallel(simhash_family(6, 8, dim),
                         {.range_pow = 9, .bucket_size = 64});
  parallel.build_from_rows(rows.data(), dim, n, &pool);

  // Same hash family seeds -> same buckets addressed; contents may be
  // ordered differently but totals must match when no bucket overflows.
  std::size_t serial_total = 0, parallel_total = 0;
  for (int t = 0; t < serial.l(); ++t) {
    serial_total += serial.table(t).total_stored();
    parallel_total += parallel.table(t).total_stored();
  }
  EXPECT_EQ(serial_total, parallel_total);
  EXPECT_EQ(serial_total, static_cast<std::size_t>(n) * serial.l());
}

TEST(TableGroup, NearbyVectorRetrievesNeighborMoreThanRandom) {
  const Index n = 400, dim = 64;
  Rng rng(9);
  auto rows = random_rows(n, dim, rng);
  LshTableGroup group(simhash_family(6, 30, dim),
                      {.range_pow = 11, .bucket_size = 32});
  group.build_from_rows(rows.data(), dim, n);

  std::vector<std::uint32_t> keys(static_cast<std::size_t>(group.l()));
  std::vector<std::span<const Index>> buckets;
  int neighbor_hits = 0, random_hits = 0;
  for (Index trial = 0; trial < 40; ++trial) {
    const Index target = trial * 10 % n;
    // Query = slightly perturbed copy of the target row.
    std::vector<float> q(rows.begin() + static_cast<std::ptrdiff_t>(target) * dim,
                         rows.begin() + static_cast<std::ptrdiff_t>(target + 1) * dim);
    for (auto& v : q) v += 0.05f * rng.normal();
    group.query_keys_dense(q.data(), keys);
    group.buckets(keys, buckets);
    const Index random_id = rng.uniform(n);
    for (const auto& b : buckets) {
      if (std::find(b.begin(), b.end(), target) != b.end()) {
        ++neighbor_hits;
        break;
      }
    }
    for (const auto& b : buckets) {
      if (std::find(b.begin(), b.end(), random_id) != b.end()) {
        ++random_hits;
        break;
      }
    }
  }
  EXPECT_GT(neighbor_hits, random_hits + 10);
}

TEST(TableGroup, ClearThenRebuildRestoresContent) {
  // A build from no ids empties every table; the next build refills them.
  const Index n = 100, dim = 16;
  Rng rng(10);
  const auto rows = random_rows(n, dim, rng);
  LshTableGroup group(simhash_family(3, 6, dim),
                      {.range_pow = 8, .bucket_size = 32});
  group.build_from_rows(rows.data(), dim, n);
  group.build_from_rows(rows.data(), dim, 0);
  std::size_t total = 0;
  for (int t = 0; t < group.l(); ++t) total += group.table(t).total_stored();
  EXPECT_EQ(total, 0u);
  group.build_from_rows(rows.data(), dim, n);
  for (int t = 0; t < group.l(); ++t)
    EXPECT_EQ(group.table(t).total_stored(), n);
}

TEST(TableGroup, MemoryAccountingIsPlausible) {
  LshTableGroup group(simhash_family(3, 10, 16),
                      {.range_pow = 8, .bucket_size = 16});
  // Empty: 10 tables x (257 offsets + 256 seen counts) x 4B, no id slots.
  const std::size_t empty = 10u * (257u + 256u) * 4u;
  EXPECT_EQ(group.memory_bytes(), empty);
  // Built: plus 4B per stored id (K=3 spreads 100 ids over 8 fingerprints,
  // so a full 16-slot bucket may drop some).
  Rng rng(11);
  const auto rows = random_rows(100, 16, rng);
  group.build_from_rows(rows.data(), 16, 100);
  std::size_t stored = 0;
  for (int t = 0; t < group.l(); ++t) stored += group.table(t).total_stored();
  EXPECT_GT(stored, 0u);
  EXPECT_LE(stored, 10u * 100u);
  EXPECT_EQ(group.memory_bytes(), empty + stored * 4u);
}

/// Test-local copy of the table before the compact layout: every bucket a
/// dense array of bucket_size slots, written one id at a time.
class SlotArrayTable {
 public:
  explicit SlotArrayTable(const HashTable::Config& config)
      : config_(config),
        shift_(32u - static_cast<unsigned>(config.range_pow)),
        slots_(std::size_t{1} << config.range_pow),
        seen_(std::size_t{1} << config.range_pow, 0) {}

  void insert(std::uint32_t key, Index id, Rng& rng) {
    const std::uint32_t b = bucket_of(key);
    const auto cap = static_cast<std::uint32_t>(config_.bucket_size);
    const std::uint32_t n = seen_[b]++;
    std::vector<Index>& slots = slots_[b];
    if (n < cap) {
      slots.push_back(id);
    } else if (config_.policy == InsertionPolicy::kReservoir) {
      const std::uint32_t j = rng.uniform(n + 1);
      if (j < cap) slots[j] = id;
    } else {
      slots[n % cap] = id;
    }
  }
  const std::vector<Index>& bucket(std::uint32_t key) const {
    return slots_[bucket_of(key)];
  }

 private:
  std::uint32_t bucket_of(std::uint32_t key) const {
    return (key * 2654435761u) >> shift_;
  }
  HashTable::Config config_;
  unsigned shift_;
  std::vector<std::vector<Index>> slots_;
  std::vector<std::uint32_t> seen_;
};

/// All L keys of every row, row-major.
std::vector<std::uint32_t> row_keys(const LshTableGroup& group,
                                    const std::vector<float>& rows, Index n,
                                    Index dim) {
  const auto l = static_cast<std::size_t>(group.l());
  std::vector<std::uint32_t> keys(static_cast<std::size_t>(n) * l);
  for (Index i = 0; i < n; ++i)
    group.query_keys_dense(rows.data() + static_cast<std::size_t>(i) * dim,
                           std::span(keys).subspan(i * l, l));
  return keys;
}

/// Every bucket any of `keys` addresses holds the same ids, in the same
/// order, in both groups.
void expect_same_buckets(const LshTableGroup& a, const LshTableGroup& b,
                         const std::vector<std::uint32_t>& keys) {
  const auto l = static_cast<std::size_t>(a.l());
  for (std::size_t t = 0; t < l; ++t) {
    const HashTable& ta = a.table(static_cast<int>(t));
    const HashTable& tb = b.table(static_cast<int>(t));
    ASSERT_EQ(ta.total_stored(), tb.total_stored()) << "table " << t;
    ASSERT_EQ(ta.occupied_buckets(), tb.occupied_buckets()) << "table " << t;
    for (std::size_t i = t; i < keys.size(); i += l) {
      const auto x = ta.bucket(keys[i]);
      const auto y = tb.bucket(keys[i]);
      ASSERT_EQ(std::vector<Index>(x.begin(), x.end()),
                std::vector<Index>(y.begin(), y.end()))
          << "table " << t << " id " << i / l;
    }
  }
}

class GroupPolicyParam : public ::testing::TestWithParam<InsertionPolicy> {};

TEST_P(GroupPolicyParam, BuildEqualsTheOneIdAtATimeInsertLoop) {
  // K=3 gives 8 fingerprints per table, so 600 ids overflow the 16-slot
  // buckets many times over and every replacement decision is exercised.
  const Index n = 600, dim = 16;
  Rng rng(12);
  const auto rows = random_rows(n, dim, rng);
  const HashTable::Config config{
      .range_pow = 6, .bucket_size = 16, .policy = GetParam()};
  constexpr std::uint64_t kSeed = 99;
  LshTableGroup group(simhash_family(3, 7, dim), config, kSeed);
  group.build_from_rows(rows.data(), dim, n);

  const auto keys = row_keys(group, rows, n, dim);
  const auto l = static_cast<std::size_t>(group.l());
  std::vector<SlotArrayTable> old(l, SlotArrayTable(config));
  Rng old_rng(kSeed);
  for (Index i = 0; i < n; ++i)
    for (std::size_t t = 0; t < l; ++t)
      old[t].insert(keys[i * l + t], i, old_rng);

  std::size_t saturated = 0;
  for (std::size_t t = 0; t < l; ++t) {
    saturated += group.table(static_cast<int>(t)).saturated_buckets();
    for (Index i = 0; i < n; ++i) {
      const auto got = group.table(static_cast<int>(t)).bucket(keys[i * l + t]);
      ASSERT_EQ(std::vector<Index>(got.begin(), got.end()),
                old[t].bucket(keys[i * l + t]))
          << "table " << t << " id " << i;
    }
  }
  EXPECT_GT(saturated, 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, GroupPolicyParam,
                         ::testing::Values(InsertionPolicy::kReservoir,
                                           InsertionPolicy::kFifo));

TEST(TableGroup, BuildIsIdenticalForEveryPoolSize) {
  const Index n = 3'000, dim = 24;
  Rng rng(13);
  const auto rows = random_rows(n, dim, rng);
  const HashTable::Config config{.range_pow = 7, .bucket_size = 24};
  LshTableGroup serial(simhash_family(5, 12, dim), config);
  serial.build_from_rows(rows.data(), dim, n);
  const auto keys = row_keys(serial, rows, n, dim);
  for (int threads : {1, 2, 3}) {
    ThreadPool pool(threads);
    LshTableGroup pooled(simhash_family(5, 12, dim), config);
    pooled.build_from_rows(rows.data(), dim, n, &pool);
    SCOPED_TRACE(threads);
    expect_same_buckets(serial, pooled, keys);
  }
}

TEST(TableGroup, SpliceIntoNonFullBucketsEqualsAFreshBuild) {
  // 6 bits of fingerprint and buckets of 512: nothing fills up, so
  // appending ids to their buckets must give what one build of all rows
  // gives.
  const Index n0 = 400, n1 = 150, dim = 16;
  Rng rng(14);
  const auto rows = random_rows(n0 + n1, dim, rng);
  const HashTable::Config config{.range_pow = 8, .bucket_size = 512};
  LshTableGroup spliced(simhash_family(6, 9, dim), config);
  spliced.build_from_rows(rows.data(), dim, n0);
  Rng splice_rng(15);
  spliced.splice_rows(n0, rows.data() + static_cast<std::size_t>(n0) * dim,
                      dim, n1, splice_rng);
  LshTableGroup fresh(simhash_family(6, 9, dim), config);
  fresh.build_from_rows(rows.data(), dim, n0 + n1);
  expect_same_buckets(spliced, fresh, row_keys(fresh, rows, n0 + n1, dim));
  EXPECT_EQ(spliced.health().saturated, 0u);
}

TEST(TableGroup, CompactAtTrainAmazonShape) {
  // The output layer of the train-amazon benchmark: 24k labels over a
  // 128-wide hidden layer, DWTA K=8 L=50, 2^12 buckets of 128. The slot
  // array this layout replaced took 2^12 * 128 * 4 B per table.
  const Index n = 24'000, dim = 128;
  HashFamilyConfig cfg;
  cfg.kind = HashFamilyKind::kDwta;
  cfg.k = 8;
  cfg.l = 50;
  cfg.bin_size = 8;
  cfg.dim = dim;
  LshTableGroup group(make_hash_family(cfg),
                      {.range_pow = 12, .bucket_size = 128});
  Rng rng(16);
  std::vector<float> rows(static_cast<std::size_t>(n) * dim);
  for (auto& w : rows) w = rng.normal();
  group.build_from_rows(rows.data(), dim, n);
  const std::size_t slot_array = (std::size_t{1} << 12) * 128u * 4u * 50u;
  EXPECT_LE(group.memory_bytes(), slot_array / 10);
  const TableHealth health = group.health();
  EXPECT_EQ(health.buckets, 50u << 12);
  EXPECT_GT(health.occupancy(), 0.5);
  EXPECT_LE(health.saturation(), health.occupancy());
}

}  // namespace
}  // namespace slide
