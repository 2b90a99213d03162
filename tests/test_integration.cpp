// End-to-end integration tests across the whole stack: SLIDE vs dense
// parity on learnability, per-iteration convergence equivalence (the paper
// Figure 5 right-panels claim, at test scale), XC round-trip into training,
// DWTA on a sparse-input configuration, and the speed mechanism itself
// (fewer active neurons => less work per iteration).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "slide/slide.h"

namespace slide {
namespace {

SyntheticDataset planted(std::uint64_t seed, Index features = 500,
                         Index labels = 100) {
  SyntheticConfig cfg;
  cfg.feature_dim = features;
  cfg.label_dim = labels;
  cfg.num_train = 800;
  cfg.num_test = 200;
  cfg.features_per_label = 12;
  cfg.active_per_label = 7;
  cfg.noise_features = 2;
  cfg.max_labels_per_sample = 2;
  cfg.seed = seed;
  return make_synthetic_xc(cfg);
}

NetworkConfig slide_config(const SyntheticDataset& data, Index target,
                           HashFamilyKind kind = HashFamilyKind::kSimhash) {
  HashFamilyConfig family;
  family.kind = kind;
  family.k = 5;
  family.l = 16;
  family.bin_size = 4;
  NetworkConfig cfg = make_paper_network(data.train.feature_dim(),
                                         data.train.label_dim(), family,
                                         target, /*hidden=*/16);
  cfg.max_batch_size = 32;
  cfg.layers[0].table.range_pow = 9;
  cfg.layers[0].table.bucket_size = 32;
  cfg.layers[0].rebuild.initial_period = 25;
  return cfg;
}

TEST(Integration, SlideReachesDenseAccuracyBallpark) {
  const auto data = planted(101);

  // SLIDE with ~30% active neurons.
  Network net(slide_config(data, 32), 2);
  TrainerConfig tc;
  tc.batch_size = 32;
  tc.num_threads = 2;
  tc.learning_rate = 5e-3f;
  Trainer trainer(net, tc);
  trainer.train(data.train, 250);
  const double slide_acc =
      evaluate_p_at_1(net, data.test, trainer.pool(), {.exact = true});

  // Dense baseline, same architecture/optimizer/schedule.
  Network dense = NetworkBuilder(data.train.feature_dim())
                      .dense(16)
                      .dense(data.train.label_dim())
                      .max_batch(32)
                      .build(2);
  Trainer dense_trainer(dense, tc);
  dense_trainer.train(data.train, 250);
  const double dense_acc = evaluate_p_at_1(dense, data.test,
                                           dense_trainer.pool(),
                                           {.exact = true});

  EXPECT_GT(slide_acc, 0.35);
  EXPECT_GT(dense_acc, 0.35);
  // "Adaptively selecting neurons does not hurt convergence": within a
  // tolerance band of the dense result.
  EXPECT_GT(slide_acc, dense_acc - 0.12);
}

TEST(Integration, DwtaHandlesSparseInputConfiguration) {
  // Amazon-style configuration: DWTA family on the output layer.
  const auto data = planted(103);
  Network net(slide_config(data, 32, HashFamilyKind::kDwta), 2);
  TrainerConfig tc;
  tc.batch_size = 32;
  tc.num_threads = 2;
  tc.learning_rate = 5e-3f;
  Trainer trainer(net, tc);
  trainer.train(data.train, 200);
  const double acc =
      evaluate_p_at_1(net, data.test, trainer.pool(), {.exact = true});
  EXPECT_GT(acc, 0.3);
}

TEST(Integration, XcRoundTripFeedsTraining) {
  const auto data = planted(105, 300, 50);
  std::stringstream buffer;
  write_xc(buffer, data.train);
  const Dataset loaded = read_xc(buffer, /*l2_normalize=*/false);
  ASSERT_EQ(loaded.size(), data.train.size());

  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 4;
  family.l = 12;
  NetworkConfig cfg =
      make_paper_network(loaded.feature_dim(), loaded.label_dim(), family,
                         24, 16);
  cfg.max_batch_size = 32;
  cfg.layers[0].table.range_pow = 8;
  Network net(cfg, 2);
  TrainerConfig tc;
  tc.batch_size = 32;
  tc.num_threads = 2;
  tc.learning_rate = 5e-3f;
  Trainer trainer(net, tc);
  trainer.train(loaded, 150);
  const double acc =
      evaluate_p_at_1(net, data.test, trainer.pool(), {.exact = true});
  EXPECT_GT(acc, 0.3);
}

TEST(Integration, SmallerActiveSetDoesLessWorkPerIteration) {
  // The core systems claim: per-iteration compute scales with the active
  // set, not the layer width. Compare layer-compute seconds at two targets.
  const auto data = planted(107, 500, 400);
  auto run = [&](Index target) {
    Network net(slide_config(data, target), 2);
    net.output_layer().reset_phase_timers();
    TrainerConfig tc;
    tc.batch_size = 32;
    tc.num_threads = 1;
    Trainer trainer(net, tc);
    trainer.train(data.train, 30);
    return net.output_layer().compute_seconds();
  };
  // Fastest of three interleaved runs per arm: one ~40 ms run of either
  // can lose a scheduler quantum to the rest of the host.
  double small = run(8);
  double large = run(200);
  for (int rep = 1; rep < 3; ++rep) {
    small = std::min(small, run(8));
    large = std::min(large, run(200));
  }
  EXPECT_LT(small * 2.0, large);
}

TEST(Integration, SampledInferenceApproachesExactAfterTraining) {
  const auto data = planted(109);
  Network net(slide_config(data, 48), 2);
  TrainerConfig tc;
  tc.batch_size = 32;
  tc.num_threads = 2;
  tc.learning_rate = 5e-3f;
  Trainer trainer(net, tc);
  trainer.train(data.train, 250);
  net.rebuild_all(&trainer.pool());
  const double exact =
      evaluate_p_at_1(net, data.test, trainer.pool(), {.exact = true});
  const double sampled =
      evaluate_p_at_1(net, data.test, trainer.pool(), {.exact = false});
  EXPECT_GT(sampled, exact * 0.6);  // hash-sampled inference stays close
}

TEST(Integration, HugepagesToggleDoesNotChangeResults) {
  const auto data = planted(111, 300, 50);
  auto run = [&](bool huge) {
    set_hugepages_enabled(huge);
    NetworkConfig cfg = slide_config(data, 16);
    Network net(cfg, 1);
    TrainerConfig tc;
    tc.batch_size = 16;
    tc.num_threads = 1;
    tc.seed = 5;
    Trainer trainer(net, tc);
    Batcher batcher(data.train, 16, true, 3);
    float total = 0.0f;
    for (int i = 0; i < 20; ++i)
      total += trainer.step(data.train, batcher.next());
    set_hugepages_enabled(true);
    return total;
  };
  EXPECT_EQ(run(true), run(false));  // bit-identical: allocation-only change
}

TEST(Integration, SimdToggleKeepsTrainingCorrect) {
  const auto data = planted(113, 300, 50);
  auto run = [&](bool simd_on) {
    simd::set_simd_level(simd_on ? simd::detected_level()
                                 : simd::SimdLevel::kScalar);
    NetworkConfig cfg = slide_config(data, 16);
    Network net(cfg, 2);
    TrainerConfig tc;
    tc.batch_size = 16;
    tc.num_threads = 2;
    tc.learning_rate = 5e-3f;
    Trainer trainer(net, tc);
    trainer.train(data.train, 100);
    const double acc =
        evaluate_p_at_1(net, data.test, trainer.pool(), {.exact = true});
    simd::set_simd_level(simd::detected_level());
    return acc;
  };
  EXPECT_GT(run(true), 0.25);
  EXPECT_GT(run(false), 0.25);
}

// ---------------------------------------------------------------------------
// Golden end-to-end determinism: a fixed-seed, single-threaded,
// scalar-kernel 2-epoch train must reproduce the exact same
// weights (FNV-1a digest) and clear an accuracy floor. This is the
// regression tripwire that catches refactors which change numerics or RNG
// consumption anywhere in the stack — beyond what unit-level parity tests
// see. If a PR changes the trajectory *intentionally* (new init, different
// sampling order), re-pin the digest printed in the failure message and
// say why in the PR.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, std::span<const float> data) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data.data());
  const std::size_t n = data.size() * sizeof(float);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t weight_digest(const Network& net) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  h = fnv1a(h, net.embedding().weights_span());
  h = fnv1a(h, net.embedding().bias_span());
  const Layer& layer = net.stack(0);
  for (int s = 0; s < layer.num_shards(); ++s) {
    h = fnv1a(h, layer.shard_weights(s));
    h = fnv1a(h, layer.shard_bias(s));
  }
  return h;
}

TEST(Integration, GoldenFixedSeedDigestAndAccuracyFloor) {
  // Pin the dispatch to the scalar kernels: the digest must not depend on
  // the host's vector ISA. (Restored on every exit path.)
  struct LevelGuard {
    simd::SimdLevel entry = simd::active_level();
    ~LevelGuard() { simd::set_simd_level(entry); }
  } guard;
  simd::set_simd_level(simd::SimdLevel::kScalar);

  const auto data = planted(1234);
  auto run_once = [&]() -> std::pair<std::uint64_t, double> {
    NetworkConfig cfg = slide_config(data, 24);
    Network net(cfg, 1);
    TrainerConfig tc;
    tc.batch_size = 32;
    tc.num_threads = 1;  // every pool size gives the same weights
    tc.learning_rate = 5e-3f;
    tc.seed = 99;
    Trainer trainer(net, tc);
    // 2 epochs over 800 samples at batch 32.
    trainer.train(data.train, 2 * 25);
    const double acc =
        evaluate_p_at_1(net, data.test, trainer.pool(), {.exact = true});
    return {weight_digest(net), acc};
  };

  // Hard determinism: two in-process runs must agree to the last bit —
  // any RNG misuse, uninitialized read, or state leaking between
  // constructions shows up here, in every build flavor.
  const auto [digest, acc] = run_once();
  const auto [digest2, acc2] = run_once();
  EXPECT_EQ(digest, digest2) << "fixed-seed training is not deterministic";
  EXPECT_EQ(acc, acc2);
  EXPECT_GE(acc, 0.35) << "accuracy floor breached (got " << acc << ")";

  // Cross-PR drift tripwire: the digest is pinned in every build. Only the
  // two vector kernel TUs get ISA flags; everything else, the scalar table
  // the guard above selects included, compiles for generic x86-64, which
  // has no FMA to contract a*b+c into, so Release, Debug and sanitizer
  // builds follow one trajectory on every host. A different compiler or
  // libm may still round differently; re-pin only for such a toolchain
  // change or an intended change to the numerics.
  const std::uint64_t kPinnedDigest = 0xa55aca7e2e36eebbull;
  EXPECT_EQ(digest, kPinnedDigest)
      << "golden weight digest moved: got 0x" << std::hex << digest
      << " — if the numeric trajectory changed intentionally, re-pin "
         "kPinnedDigest to this value";
}

}  // namespace
}  // namespace slide
