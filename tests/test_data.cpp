// Data substrate tests: sparse vectors, datasets, the XC-format reader
// (including round-trips and malformed-input rejection), the synthetic
// generators' statistical properties, and batching.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "data/batching.h"
#include "sys/rng.h"
#include "data/dataset.h"
#include "data/sparse_vector.h"
#include "data/synthetic.h"
#include "data/xc_reader.h"

namespace slide {
namespace {

// ---------------------------------------------------------------------------
// SparseVector
// ---------------------------------------------------------------------------

TEST(SparseVector, ConstructorSortsAndMergesDuplicates) {
  SparseVector v({5, 2, 5, 1}, {1.0f, 2.0f, 3.0f, 4.0f});
  ASSERT_EQ(v.nnz(), 3u);
  EXPECT_EQ(v.indices()[0], 1u);
  EXPECT_EQ(v.indices()[1], 2u);
  EXPECT_EQ(v.indices()[2], 5u);
  EXPECT_FLOAT_EQ(v.values()[2], 4.0f);  // 1 + 3 merged at index 5
  EXPECT_FLOAT_EQ(v.values()[0], 4.0f);
}

TEST(SparseVector, CompactIsIdempotentOnSortedInput) {
  SparseVector v;
  v.push_back(1, 1.0f);
  v.push_back(5, 2.0f);
  v.compact();
  const SparseVector before = v;
  v.compact();
  EXPECT_EQ(v, before);
}

TEST(SparseVector, L2NormalizeGivesUnitNorm) {
  SparseVector v({0, 3, 7}, {3.0f, 4.0f, 12.0f});
  v.l2_normalize();
  EXPECT_NEAR(v.l2_norm(), 1.0f, 1e-5f);
}

TEST(SparseVector, NormalizeZeroVectorIsNoop) {
  SparseVector v;
  v.l2_normalize();
  EXPECT_EQ(v.nnz(), 0u);
}

TEST(SparseVector, DotDenseMatchesManual) {
  // The embedding's forward sums one weight row per nonzero: the
  // index/value spans pair each value with its coordinate.
  SparseVector v({4, 1}, {3.0f, 2.0f});
  std::vector<float> dense = {10, 20, 30, 40, 50};
  float dot = 0.0f;
  for (std::size_t i = 0; i < v.nnz(); ++i)
    dot += v.values()[i] * dense[v.indices()[i]];
  EXPECT_FLOAT_EQ(dot, 2 * 20 + 3 * 50);
}

TEST(SparseVector, DenseRoundTrip) {
  SparseVector v({2, 9}, {1.5f, -2.5f});
  const auto dense = to_dense(v, 12);
  ASSERT_EQ(dense.size(), 12u);
  EXPECT_FLOAT_EQ(dense[2], 1.5f);
  EXPECT_FLOAT_EQ(dense[9], -2.5f);
  const SparseVector back = from_dense(dense);
  EXPECT_EQ(back, v);
}

TEST(SparseVector, MismatchedLengthsThrow) {
  EXPECT_THROW(SparseVector({1, 2}, {1.0f}), Error);
}

// ---------------------------------------------------------------------------
// Dataset
// ---------------------------------------------------------------------------

TEST(Dataset, AddValidatesRanges) {
  Dataset d(10, 5);
  Sample ok;
  ok.features = SparseVector({0, 9}, {1.0f, 1.0f});
  ok.labels = {4};
  d.add(ok);
  EXPECT_EQ(d.size(), 1u);

  Sample bad_feature;
  bad_feature.features = SparseVector({10}, {1.0f});
  EXPECT_THROW(d.add(bad_feature), Error);

  Sample bad_label;
  bad_label.labels = {5};
  EXPECT_THROW(d.add(bad_label), Error);
}

TEST(Dataset, AddSortsAndDedupesLabels) {
  Dataset d(4, 10);
  Sample s;
  s.labels = {7, 2, 7, 5};
  d.add(s);
  ASSERT_EQ(d[0].labels.size(), 3u);
  EXPECT_EQ(d[0].labels[0], 2u);
  EXPECT_EQ(d[0].labels[2], 7u);
}

TEST(Dataset, StatsMatchHandComputation) {
  Dataset d(100, 50);
  for (int i = 0; i < 4; ++i) {
    Sample s;
    s.features = SparseVector({0, 1}, {1.0f, 1.0f});
    s.labels = {static_cast<Index>(i)};
    d.add(s);
  }
  const DatasetStats st = d.stats();
  EXPECT_EQ(st.num_samples, 4u);
  EXPECT_DOUBLE_EQ(st.avg_nnz_per_sample, 2.0);
  EXPECT_DOUBLE_EQ(st.feature_density, 0.02);
  EXPECT_DOUBLE_EQ(st.avg_labels_per_sample, 1.0);
}

// ---------------------------------------------------------------------------
// XC reader
// ---------------------------------------------------------------------------

TEST(XcReader, ParsesWellFormedInput) {
  std::istringstream in(
      "2 10 5\n"
      "0,3 1:0.5 7:1.5\n"
      "2 0:2.0\n");
  const Dataset d = read_xc(in, /*l2_normalize=*/false);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.feature_dim(), 10u);
  EXPECT_EQ(d.label_dim(), 5u);
  ASSERT_EQ(d[0].labels.size(), 2u);
  EXPECT_EQ(d[0].labels[1], 3u);
  ASSERT_EQ(d[0].features.nnz(), 2u);
  EXPECT_FLOAT_EQ(d[0].features.values()[1], 1.5f);
  EXPECT_EQ(d[1].labels[0], 2u);
}

TEST(XcReader, HandlesUnlabeledLinesAndCrLf) {
  std::istringstream in(
      "1 4 3\r\n"
      " 0:1.0 2:1.0\r\n");
  const Dataset d = read_xc(in, false);
  EXPECT_TRUE(d[0].labels.empty());
  EXPECT_EQ(d[0].features.nnz(), 2u);
}

TEST(XcReader, NormalizesWhenRequested) {
  std::istringstream in(
      "1 4 3\n"
      "0 0:3.0 1:4.0\n");
  const Dataset d = read_xc(in, true);
  EXPECT_NEAR(d[0].features.l2_norm(), 1.0f, 1e-5f);
}

TEST(XcReader, RejectsMalformedInput) {
  {
    std::istringstream in("not a header\n");
    EXPECT_THROW(read_xc(in), Error);
  }
  {
    std::istringstream in("2 4 3\n0 0:1.0\n");  // declares 2, provides 1
    EXPECT_THROW(read_xc(in), Error);
  }
  {
    std::istringstream in("1 4 3\n0 0=1.0\n");  // bad separator
    EXPECT_THROW(read_xc(in), Error);
  }
  {
    std::istringstream in("1 4 3\n0 9:1.0\n");  // feature out of range
    EXPECT_THROW(read_xc(in), Error);
  }
}

// ---------------------------------------------------------------------------
// XC reader: property/fuzz tests. A seeded generator produces valid files,
// injects one corruption from a catalogue of real-world failure shapes
// (truncated pairs, out-of-range indices, NaN/Inf values, overflow, CRLF,
// empty label tokens, missing lines), and asserts the reader rejects the
// file with a line-numbered slide::Error — never UB, never silent
// acceptance. The ASan+UBSan CI job runs this suite.
// ---------------------------------------------------------------------------

namespace {

struct XcFuzzFile {
  std::string text;
  std::size_t corrupted_line = 0;  // 1-based; 0 = corruption is file-level
};

std::string valid_data_line(Rng& rng, Index feature_dim, Index label_dim) {
  std::string line;
  const int num_labels = static_cast<int>(rng.uniform(3));  // 0..2
  for (int l = 0; l < num_labels; ++l) {
    if (l) line += ',';
    line += std::to_string(rng.uniform(label_dim));
  }
  const int nnz = 1 + static_cast<int>(rng.uniform(4));
  for (int f = 0; f < nnz; ++f) {
    line += ' ';
    line += std::to_string(rng.uniform(feature_dim));
    line += ':';
    line += std::to_string(0.25f * (1.0f + rng.uniform_float()));
  }
  return line;
}

/// Builds a valid file, then applies corruption `kind` (9 = file-level
/// truncation). Every kind must make read_xc throw.
XcFuzzFile make_corrupted(Rng& rng, int kind) {
  const Index feature_dim = 5 + rng.uniform(50);
  const Index label_dim = 2 + rng.uniform(20);
  const std::size_t samples = 1 + rng.uniform(6);
  std::vector<std::string> lines;
  lines.push_back(std::to_string(samples) + ' ' +
                  std::to_string(feature_dim) + ' ' +
                  std::to_string(label_dim));
  for (std::size_t i = 0; i < samples; ++i)
    lines.push_back(valid_data_line(rng, feature_dim, label_dim));

  XcFuzzFile file;
  const std::size_t victim = 2 + rng.uniform(static_cast<Index>(samples));
  file.corrupted_line = victim;
  std::string& line = lines[victim - 1];
  switch (kind) {
    case 0:  // truncated pair: index with no value
      line += ' ' + std::to_string(rng.uniform(feature_dim)) + ':';
      break;
    case 1:  // feature index out of range
      line += ' ' + std::to_string(feature_dim + rng.uniform(1000)) + ":1.0";
      break;
    case 2:  // label out of range
      line = std::to_string(label_dim + rng.uniform(1000)) + " 0:1.0";
      break;
    case 3:  // NaN feature value
      line += " 1:nan";
      break;
    case 4:  // Inf feature value
      line += rng.uniform(2) ? " 1:inf" : " 1:-inf";
      break;
    case 5:  // bad pair separator
      line += " 1=0.5";
      break;
    case 6:  // empty label token (double comma)
      line = "0,," + std::to_string(label_dim - 1) + " 0:1.0";
      break;
    case 7:  // negative feature index
      line += " -3:1.0";
      break;
    case 8:  // integer overflow in the label list
      line = "99999999999999999999 0:1.0";
      break;
    case 9:  // file-level: fewer data lines than the header declares
      lines.pop_back();
      file.corrupted_line = 0;
      break;
    default:
      ADD_FAILURE() << "unknown corruption kind " << kind;
  }
  const char* eol = rng.uniform(2) ? "\r\n" : "\n";
  for (const std::string& l : lines) file.text += l + eol;
  return file;
}

}  // namespace

TEST(XcReaderFuzz, SeededValidFilesAlwaysParse) {
  Rng rng(20260730);
  for (int round = 0; round < 60; ++round) {
    const Index feature_dim = 5 + rng.uniform(50);
    const Index label_dim = 2 + rng.uniform(20);
    const std::size_t samples = 1 + rng.uniform(6);
    std::string text = std::to_string(samples) + ' ' +
                       std::to_string(feature_dim) + ' ' +
                       std::to_string(label_dim) + '\n';
    for (std::size_t i = 0; i < samples; ++i)
      text += valid_data_line(rng, feature_dim, label_dim) + '\n';
    std::istringstream in(text);
    const Dataset d = read_xc(in, /*l2_normalize=*/false);
    EXPECT_EQ(d.size(), samples);
    for (std::size_t i = 0; i < d.size(); ++i) {
      for (Index l : d[i].labels) EXPECT_LT(l, label_dim);
      for (std::size_t k = 0; k < d[i].features.nnz(); ++k) {
        EXPECT_LT(d[i].features.indices()[k], feature_dim);
        EXPECT_TRUE(std::isfinite(d[i].features.values()[k]));
      }
    }
  }
}

TEST(XcReaderFuzz, CorruptionsAreRejectedWithLineNumbers) {
  Rng rng(42);
  for (int round = 0; round < 40; ++round) {
    for (int kind = 0; kind < 10; ++kind) {
      const XcFuzzFile file = make_corrupted(rng, kind);
      std::istringstream in(file.text);
      try {
        read_xc(in);
        ADD_FAILURE() << "corruption kind " << kind
                      << " was silently accepted:\n"
                      << file.text;
      } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line "), std::string::npos)
            << "kind " << kind << ": error lacks a line number: " << what;
        if (file.corrupted_line != 0) {
          const std::string tag =
              "line " + std::to_string(file.corrupted_line) + ":";
          EXPECT_NE(what.find(tag), std::string::npos)
              << "kind " << kind << ": expected \"" << tag
              << "\" in: " << what << "\nfile:\n"
              << file.text;
        }
      }
    }
  }
}

TEST(XcReaderFuzz, OverflowAndOutOfRangeFloatsAreRejected) {
  {
    std::istringstream in("1 4 3\n0 1:1e40\n");  // beyond float range
    EXPECT_THROW(read_xc(in), Error);
  }
  {
    // Overflowing feature index (fits in no uint32).
    std::istringstream in("1 4 3\n0 4294967296:1.0\n");
    EXPECT_THROW(read_xc(in), Error);
  }
  {
    // Unlabeled CRLF line with a tab separator still parses.
    std::istringstream in("1 4 3\r\n \t0:1.0\t2:0.5\r\n");
    const Dataset d = read_xc(in, false);
    EXPECT_TRUE(d[0].labels.empty());
    EXPECT_EQ(d[0].features.nnz(), 2u);
  }
}

TEST(XcReader, WriteReadRoundTrip) {
  Dataset d(8, 4);
  for (int i = 0; i < 5; ++i) {
    Sample s;
    s.features = SparseVector({static_cast<Index>(i), 7},
                              {0.25f * (i + 1), 1.0f});
    s.labels = {static_cast<Index>(i % 4)};
    d.add(s);
  }
  std::stringstream buffer;
  write_xc(buffer, d);
  const Dataset back = read_xc(buffer, false);
  ASSERT_EQ(back.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(back[i].labels, d[i].labels);
    ASSERT_EQ(back[i].features.nnz(), d[i].features.nnz());
    for (std::size_t k = 0; k < d[i].features.nnz(); ++k) {
      EXPECT_EQ(back[i].features.indices()[k], d[i].features.indices()[k]);
      EXPECT_NEAR(back[i].features.values()[k], d[i].features.values()[k],
                  1e-5f);
    }
  }
}

// ---------------------------------------------------------------------------
// Synthetic generators
// ---------------------------------------------------------------------------

TEST(Synthetic, DeterministicInSeed) {
  SyntheticConfig cfg;
  cfg.feature_dim = 500;
  cfg.label_dim = 100;
  cfg.num_train = 50;
  cfg.num_test = 10;
  const auto a = make_synthetic_xc(cfg);
  const auto b = make_synthetic_xc(cfg);
  ASSERT_EQ(a.train.size(), b.train.size());
  for (std::size_t i = 0; i < a.train.size(); ++i) {
    EXPECT_EQ(a.train[i].labels, b.train[i].labels);
    EXPECT_EQ(a.train[i].features, b.train[i].features);
  }
}

TEST(Synthetic, RespectsDimensionsAndLabelBounds) {
  SyntheticConfig cfg;
  cfg.feature_dim = 300;
  cfg.label_dim = 40;
  cfg.num_train = 200;
  cfg.num_test = 50;
  const auto ds = make_synthetic_xc(cfg);
  EXPECT_EQ(ds.train.size(), 200u);
  EXPECT_EQ(ds.test.size(), 50u);
  for (const auto& s : ds.train.samples()) {
    ASSERT_FALSE(s.labels.empty());
    ASSERT_LE(s.labels.size(),
              static_cast<std::size_t>(cfg.max_labels_per_sample));
    for (Index l : s.labels) ASSERT_LT(l, cfg.label_dim);
    ASSERT_LE(s.features.min_dim(), cfg.feature_dim);
    ASSERT_NEAR(s.features.l2_norm(), 1.0f, 1e-4f);
  }
}

TEST(Synthetic, ZipfSkewsLabelFrequencies) {
  SyntheticConfig cfg;
  cfg.feature_dim = 500;
  cfg.label_dim = 200;
  cfg.num_train = 3000;
  cfg.num_test = 1;
  cfg.zipf_exponent = 1.1;
  const auto ds = make_synthetic_xc(cfg);
  std::vector<int> counts(cfg.label_dim, 0);
  for (const auto& s : ds.train.samples())
    for (Index l : s.labels) ++counts[l];
  // Head labels must be much more frequent than tail labels.
  int head = 0, tail = 0;
  for (int i = 0; i < 20; ++i) head += counts[static_cast<std::size_t>(i)];
  for (Index i = cfg.label_dim - 20; i < cfg.label_dim; ++i)
    tail += counts[i];
  EXPECT_GT(head, 5 * std::max(tail, 1));
}

TEST(Synthetic, SharedLabelMeansSharedFeatures) {
  // Two samples with the same (single) label should overlap in features far
  // more than two samples with different labels — that is the planted
  // structure a classifier can learn.
  SyntheticConfig cfg;
  cfg.feature_dim = 5'000;
  cfg.label_dim = 50;
  cfg.num_train = 400;
  cfg.num_test = 1;
  cfg.min_labels_per_sample = 1;
  cfg.max_labels_per_sample = 1;
  const auto ds = make_synthetic_xc(cfg);

  auto overlap = [](const SparseVector& a, const SparseVector& b) {
    std::set<Index> sa(a.indices().begin(), a.indices().end());
    int hits = 0;
    for (Index i : b.indices()) hits += sa.count(i) ? 1 : 0;
    return hits;
  };
  double same = 0, diff = 0;
  int same_n = 0, diff_n = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    for (std::size_t j = i + 1; j < 100; ++j) {
      const int ov = overlap(ds.train[i].features, ds.train[j].features);
      if (ds.train[i].labels == ds.train[j].labels) {
        same += ov;
        ++same_n;
      } else {
        diff += ov;
        ++diff_n;
      }
    }
  }
  ASSERT_GT(same_n, 0);
  ASSERT_GT(diff_n, 0);
  EXPECT_GT(same / same_n, 3.0 * (diff / diff_n + 0.1));
}

TEST(Synthetic, PresetsMatchPaperScaleAtKPaper) {
  const auto d = delicious_like(Scale::kPaper);
  EXPECT_EQ(d.feature_dim, 782'585u);
  EXPECT_EQ(d.label_dim, 205'443u);
  EXPECT_EQ(d.num_train, 196'606u);
  const auto a = amazon_like(Scale::kPaper);
  EXPECT_EQ(a.feature_dim, 135'909u);
  EXPECT_EQ(a.label_dim, 670'091u);
}

TEST(Synthetic, ParseScale) {
  EXPECT_EQ(parse_scale("tiny"), Scale::kTiny);
  EXPECT_EQ(parse_scale("paper"), Scale::kPaper);
  EXPECT_THROW(parse_scale("huge"), Error);
}

TEST(Synthetic, InvalidConfigThrows) {
  SyntheticConfig cfg;
  cfg.active_per_label = cfg.features_per_label + 1;
  EXPECT_THROW(make_synthetic_xc(cfg), Error);
}

// ---------------------------------------------------------------------------
// Batching
// ---------------------------------------------------------------------------

Dataset tiny_dataset(std::size_t n) {
  Dataset d(4, 2);
  for (std::size_t i = 0; i < n; ++i) {
    Sample s;
    s.features = SparseVector({0}, {1.0f});
    s.labels = {static_cast<Index>(i % 2)};
    d.add(s);
  }
  return d;
}

TEST(Batcher, CoversEverySampleOncePerEpoch) {
  const Dataset d = tiny_dataset(10);
  Batcher b(d, 3, /*shuffle=*/true, 5);
  std::multiset<std::size_t> seen;
  std::size_t batches = 0;
  while (b.epoch() == 0) {
    for (std::size_t idx : b.next()) seen.insert(idx);
    ++batches;
    if (batches > 10) break;
  }
  // epoch() flips when next() rolls over, so the last inserted batch began
  // epoch 1 — drain carefully: instead verify counts for exactly one epoch.
  EXPECT_EQ(b.batches_per_epoch(), 4u);
}

TEST(Batcher, ExactCoverageOverOneEpoch) {
  const Dataset d = tiny_dataset(10);
  Batcher b(d, 4, true, 9);
  std::vector<int> count(10, 0);
  for (std::size_t i = 0; i < b.batches_per_epoch(); ++i) {
    for (std::size_t idx : b.next()) ++count[idx];
  }
  for (int c : count) EXPECT_EQ(c, 1);
}

TEST(Batcher, NoShuffleKeepsOrder) {
  const Dataset d = tiny_dataset(6);
  Batcher b(d, 2, false);
  auto batch = b.next();
  EXPECT_EQ(batch[0], 0u);
  EXPECT_EQ(batch[1], 1u);
  batch = b.next();
  EXPECT_EQ(batch[0], 2u);
}

TEST(Batcher, LastBatchMayBeShort) {
  const Dataset d = tiny_dataset(5);
  Batcher b(d, 3, false);
  EXPECT_EQ(b.next().size(), 3u);
  EXPECT_EQ(b.next().size(), 2u);
  EXPECT_EQ(b.next().size(), 3u);  // next epoch
  EXPECT_EQ(b.epoch(), 1u);
}

TEST(Batcher, RejectsInvalidArguments) {
  const Dataset d = tiny_dataset(5);
  EXPECT_THROW(Batcher(d, 0, true), Error);
  const Dataset empty(4, 2);
  EXPECT_THROW(Batcher(empty, 2, true), Error);
}

}  // namespace
}  // namespace slide
