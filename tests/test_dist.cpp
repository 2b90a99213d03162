// Distributed model-parallelism tests (src/dist/): frame codec fuzzing
// over every corruption kind (the xc_reader malformed-input contract),
// message round-trips, TCP + shared-memory transport semantics, the RPC
// client's retry/timeout/degrade failure model, and the headline
// equivalence anchor — a ShardedSampledLayer over 2 remote shards trains
// bit-identically to one over 2 in-process shards under sync maintenance.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <sstream>
#include <thread>
#include <vector>

#include "core/builder.h"
#include "core/serialize.h"
#include "core/sharded_layer.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "dist/client.h"
#include "dist/remote_shard.h"
#include "dist/transport.h"
#include "dist/worker.h"
#include "serve/engine.h"
#include "serve/snapshot.h"

namespace slide {
namespace {

using dist::Frame;
using dist::FrameError;
using dist::FrameErrorKind;
using dist::MsgType;

// ---- Shared fixtures (mirrors tests/test_sharded_layer.cpp) ----------------

SyntheticDataset planted(Index features = 300, Index labels = 61,
                         std::uint64_t seed = 911) {
  SyntheticConfig cfg;
  cfg.feature_dim = features;
  cfg.label_dim = labels;
  cfg.num_train = 400;
  cfg.num_test = 100;
  cfg.features_per_label = 10;
  cfg.active_per_label = 6;
  cfg.noise_features = 2;
  cfg.seed = seed;
  return make_synthetic_xc(cfg);
}

HashFamilyConfig small_family() {
  HashFamilyConfig family;
  family.kind = HashFamilyKind::kSimhash;
  family.k = 5;
  family.l = 12;
  return family;
}

/// A fleet of in-process shard workers on loopback TCP ephemeral ports.
struct Fleet {
  std::vector<std::unique_ptr<dist::InProcessWorker>> workers;
  std::vector<std::string> endpoints;

  explicit Fleet(int n) {
    for (int s = 0; s < n; ++s) {
      workers.push_back(
          std::make_unique<dist::InProcessWorker>("tcp:127.0.0.1:0"));
      endpoints.push_back(workers.back()->endpoint());
    }
  }
  void stop() {
    for (auto& w : workers) w->stop();
  }
};

/// Builder-backed config; shards > 0 -> in-process sharded layer,
/// endpoints non-empty -> remote shards. Identical otherwise — the
/// equivalence tests rely on that.
NetworkConfig net_config(const SyntheticDataset& data, int shards,
                         const std::vector<std::string>& endpoints = {},
                         Index target = 20) {
  NetworkBuilder b(data.train.feature_dim());
  b.dense(16).sampled(data.train.label_dim(), small_family(), target);
  b.table({.range_pow = 9, .bucket_size = 64});
  if (shards > 0) b.shards(shards);
  if (!endpoints.empty()) b.distributed(endpoints);
  b.max_batch(32).seed(123);
  return b.to_config();
}

ShardedSampledLayer& dist_output(Network& net) {
  auto* layer = dynamic_cast<ShardedSampledLayer*>(
      &net.stack(net.stack_depth() - 1));
  EXPECT_NE(layer, nullptr);
  return *layer;
}

std::span<const float> global_row(const Layer& layer, Index u) {
  for (int s = layer.num_shards() - 1; s >= 0; --s) {
    const Index off = layer.shard_row_offset(s);
    const std::span<const float> w = layer.shard_weights(s);
    const Index rows = static_cast<Index>(w.size() / layer.fan_in());
    if (u >= off && u < off + rows) {
      return w.subspan(static_cast<std::size_t>(u - off) * layer.fan_in(),
                       layer.fan_in());
    }
  }
  ADD_FAILURE() << "row " << u << " not covered by any shard";
  return {};
}

float global_bias(const Layer& layer, Index u) {
  for (int s = layer.num_shards() - 1; s >= 0; --s) {
    const Index off = layer.shard_row_offset(s);
    const std::span<const float> b = layer.shard_bias(s);
    if (u >= off && u < off + static_cast<Index>(b.size()))
      return b[u - off];
  }
  ADD_FAILURE() << "bias " << u << " not covered by any shard";
  return 0.0f;
}

bool bytes_equal(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Asserts every logical weight row and bias of two same-shape layers is
/// bit-identical, regardless of either layer's shard partition.
void expect_same_parameters(const Layer& a, const Layer& b) {
  ASSERT_EQ(a.units(), b.units());
  ASSERT_EQ(a.fan_in(), b.fan_in());
  for (Index u = 0; u < a.units(); ++u) {
    ASSERT_TRUE(bytes_equal(global_row(a, u), global_row(b, u)))
        << "weight row " << u;
    const float ba = global_bias(a, u), bb = global_bias(b, u);
    ASSERT_EQ(std::memcmp(&ba, &bb, sizeof(float)), 0) << "bias " << u;
  }
}

void train(Network& net, const SyntheticDataset& data, long iterations) {
  TrainerConfig tc;
  tc.batch_size = 32;
  tc.num_threads = 1;  // the bit-exactness contract is single-threaded
  tc.learning_rate = 5e-3f;
  Trainer trainer(net, tc);
  trainer.train(data.train, iterations);
}

/// Decodes a raw byte buffer the way a transport does: header, then
/// whatever payload bytes follow. Surfaces every corruption as FrameError.
Frame decode_buffer(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < dist::kFrameHeaderBytes)
    throw FrameError(FrameErrorKind::kTruncated, "short header");
  const dist::FrameHeader h = dist::decode_frame_header(bytes.data());
  std::vector<std::uint8_t> payload(bytes.begin() + dist::kFrameHeaderBytes,
                                    bytes.end());
  return dist::assemble_frame(h, std::move(payload));
}

FrameErrorKind kind_of(const std::vector<std::uint8_t>& bytes) {
  try {
    (void)decode_buffer(bytes);
  } catch (const FrameError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "corrupt buffer decoded cleanly";
  return FrameErrorKind::kBadFormat;
}

Frame sample_frame() {
  Frame f;
  f.type = static_cast<std::uint8_t>(MsgType::kForwardActive);
  dist::PayloadWriter w(f.payload);
  w.u32(7);
  w.str("payload-under-test");
  std::vector<float> values(37);
  for (std::size_t i = 0; i < values.size(); ++i)
    values[i] = 0.25f * static_cast<float>(i);
  w.floats(values);
  return f;
}

// ---- Frame codec + corruption-kind fuzzing (satellite 2) -------------------

TEST(DistFrame, RoundTripPreservesTypeFlagsAndPayload) {
  const Frame f = sample_frame();
  std::vector<std::uint8_t> encoded;
  dist::encode_frame(f, encoded);
  ASSERT_EQ(encoded.size(), dist::kFrameHeaderBytes + f.payload.size());

  const Frame back = decode_buffer(encoded);
  EXPECT_EQ(back.type, f.type);
  EXPECT_EQ(back.payload, f.payload);
}

TEST(DistFrame, EveryCorruptionKindIsRejectedTyped) {
  const Frame f = sample_frame();
  std::vector<std::uint8_t> good;
  dist::encode_frame(f, good);

  // Bad magic: any of the first four bytes off by one.
  for (std::size_t i = 0; i < 4; ++i) {
    std::vector<std::uint8_t> bad = good;
    bad[i] ^= 0x01;
    EXPECT_EQ(kind_of(bad), FrameErrorKind::kBadMagic) << "magic byte " << i;
  }

  // Bad format: any reserved header byte (5..7) set.
  for (std::size_t i = 5; i < 8; ++i) {
    std::vector<std::uint8_t> bad = good;
    bad[i] = 0x01;
    EXPECT_EQ(kind_of(bad), FrameErrorKind::kBadFormat) << "header byte " << i;
  }

  // Oversized: length field beyond kMaxFramePayload.
  {
    std::vector<std::uint8_t> bad = good;
    const std::uint32_t huge =
        static_cast<std::uint32_t>(dist::kMaxFramePayload) + 1;
    std::memcpy(bad.data() + 8, &huge, sizeof(huge));
    EXPECT_EQ(kind_of(bad), FrameErrorKind::kOversized);
  }

  // Bad CRC: any payload byte flipped.
  for (std::size_t i : {std::size_t{0}, f.payload.size() / 2,
                        f.payload.size() - 1}) {
    std::vector<std::uint8_t> bad = good;
    bad[dist::kFrameHeaderBytes + i] ^= 0x80;
    EXPECT_EQ(kind_of(bad), FrameErrorKind::kBadCrc) << "payload byte " << i;
  }

  // Truncated: stream ends inside the header or inside the payload.
  for (std::size_t keep :
       {std::size_t{0}, std::size_t{7}, dist::kFrameHeaderBytes - 1,
        dist::kFrameHeaderBytes, good.size() - 1}) {
    std::vector<std::uint8_t> bad(good.begin(),
                                  good.begin() + static_cast<long>(keep));
    EXPECT_EQ(kind_of(bad), FrameErrorKind::kTruncated) << "kept " << keep;
  }
}

TEST(DistFrame, FuzzedMutationsNeverEscapeTheTypedErrorContract) {
  // Mirror of the xc_reader corruption fuzz: random single-byte mutations,
  // truncations, and garbage buffers must either decode to the original
  // frame (mutation hit a dont-care bit) or throw FrameError — nothing
  // else, no crashes, no allocation bombs.
  const Frame f = sample_frame();
  std::vector<std::uint8_t> good;
  dist::encode_frame(f, good);
  Rng rng(2024);
  int rejected = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<std::uint8_t> bytes = good;
    switch (rng.uniform(3)) {
      case 0:  // flip a random byte
        bytes[rng.uniform(static_cast<std::uint32_t>(bytes.size()))] ^=
            static_cast<std::uint8_t>(1u << rng.uniform(8));
        break;
      case 1:  // truncate at a random point
        bytes.resize(rng.uniform(static_cast<std::uint32_t>(bytes.size())));
        break;
      default:  // pure garbage of random length
        bytes.resize(rng.uniform(64));
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform(256));
        break;
    }
    try {
      const Frame back = decode_buffer(bytes);
      // Survivors must be byte-exact or have mutated only the type (opaque
      // at the frame layer; the message layer validates it).
      EXPECT_EQ(back.payload, f.payload);
    } catch (const FrameError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 300) << "fuzzer stopped corrupting anything";
}

// A kHello frame whose u32 version field is cut to two bytes.
Frame hello_half_payload() {
  Frame f = dist::HelloMsg{}.to_frame();
  f.payload.resize(2);
  return f;
}

TEST(DistFrame, PayloadReaderRejectsOverrunsAndAllocationBombs) {
  // Overrun: scalar reads past the end.
  {
    const std::uint8_t small[2] = {1, 2};
    dist::PayloadReader r({small, 2});
    EXPECT_THROW((void)r.u64(), FrameError);
  }
  // Allocation bomb: a count whose elements cannot fit in the remaining
  // bytes must be rejected before resize(), not after a 16 GiB new[].
  {
    std::vector<std::uint8_t> buf;
    dist::PayloadWriter w(buf);
    w.u32(0xFFFFFFFFu);  // "4 billion floats follow" (they do not)
    dist::PayloadReader r({buf.data(), buf.size()});
    std::vector<float> out;
    EXPECT_THROW(r.floats(out), FrameError);
    EXPECT_TRUE(out.empty());
  }
  // Same for strings and index runs.
  {
    std::vector<std::uint8_t> buf;
    dist::PayloadWriter w(buf);
    w.u32(1000);
    w.u8('x');
    dist::PayloadReader r({buf.data(), buf.size()});
    EXPECT_THROW((void)r.str(), FrameError);
  }
  // Unknown message type byte.
  Frame f;
  f.type = 200;
  EXPECT_THROW((void)dist::msg_type_of(f), FrameError);
  try {
    (void)dist::msg_type_of(f);
  } catch (const FrameError& e) {
    EXPECT_EQ(e.kind(), FrameErrorKind::kBadFormat);
  }
  // Truncated *message* payloads surface as kBadFormat too: a valid frame
  // whose payload stops mid-struct.
  EXPECT_THROW((void)dist::HelloMsg::from_frame(hello_half_payload()),
               FrameError);
}

// ---- Message round-trips ---------------------------------------------------

void expect_same_rng(const Rng::State& a, const Rng::State& b) {
  Rng ra(1), rb(2);
  ra.set_state(a);
  rb.set_state(b);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(ra.uniform(1u << 20), rb.uniform(1u << 20));
}

TEST(DistProtocol, ForwardAndQueryMessagesRoundTrip) {
  Rng rng(99);
  (void)rng.uniform(17);  // advance off the seed state

  dist::ForwardMsg fwd;
  fwd.slot = 3;
  fwd.rng = rng.state();
  fwd.forced_local = {2, 11, 29};
  ActiveSet dense;
  dense.dense_width = 16;
  dense.act.resize(16, 0.0f);
  dense.act[1] = 0.5f;
  dense.act[7] = -2.25f;
  fwd.prev = dist::WireActiveSet::capture(dense);
  // Sparse on the wire: the zeros of the dense set are dropped...
  EXPECT_EQ(fwd.prev.ids.size(), 2u);

  const dist::ForwardMsg fwd2 =
      dist::ForwardMsg::from_frame(fwd.to_frame());
  EXPECT_EQ(fwd2.slot, 3);
  EXPECT_EQ(fwd2.forced_local, fwd.forced_local);
  expect_same_rng(fwd2.rng, fwd.rng);
  // ...and the reconstruction restores the exact dense shape.
  ActiveSet back;
  fwd2.prev.reconstruct(back);
  ASSERT_TRUE(back.ids.empty());
  ASSERT_EQ(back.dense_width, 16u);
  ASSERT_EQ(back.act.size(), 16u);
  for (Index i = 0; i < 16; ++i) EXPECT_EQ(back.act[i], dense.act[i]);
  ASSERT_EQ(back.err.size(), 16u);
  for (float e : back.err) EXPECT_EQ(e, 0.0f);

  // A sparse prev set keeps its id run.
  ActiveSet sparse;
  sparse.ids = {4, 9, 13};
  sparse.act = {1.0f, 2.0f, 3.0f};
  dist::QueryTopkMsg q;
  q.rng = rng.state();
  q.exact = true;
  q.budget = 12;
  q.prev = dist::WireActiveSet::capture(sparse);
  const dist::QueryTopkMsg q2 =
      dist::QueryTopkMsg::from_frame(q.to_frame());
  EXPECT_TRUE(q2.exact);
  EXPECT_EQ(q2.budget, 12u);
  ActiveSet sback;
  q2.prev.reconstruct(sback);
  EXPECT_EQ(sback.ids, sparse.ids);
  EXPECT_EQ(sback.act, sparse.act);
  EXPECT_EQ(sback.dense_width, 0u);
}

TEST(DistProtocol, ControlMessagesRoundTrip) {
  // InitShard carries the derived per-shard config verbatim.
  SampledLayer::Config global;
  global.units = 61;
  global.fan_in = 16;
  global.family = small_family();
  global.table.range_pow = 9;
  global.sampling.target = 20;
  global.sampling.inference_budget = 12;
  global.seed = 123;
  dist::InitShardMsg init;
  init.shard_index = 1;
  init.num_shards = 2;
  init.row_offset = 31;
  init.global_units = 61;
  init.batch_slots = 32;
  init.config = derive_shard_config(global, 30, 1);
  init.checkpoint_path = "/tmp/some.ckpt.shard1of2";
  const dist::InitShardMsg i2 =
      dist::InitShardMsg::from_frame(init.to_frame());
  EXPECT_EQ(i2.shard_index, 1);
  EXPECT_EQ(i2.num_shards, 2);
  EXPECT_EQ(i2.row_offset, 31u);
  EXPECT_EQ(i2.global_units, 61u);
  EXPECT_EQ(i2.batch_slots, 32);
  EXPECT_EQ(i2.checkpoint_path, init.checkpoint_path);
  EXPECT_EQ(i2.config.units, init.config.units);
  EXPECT_EQ(i2.config.sampling.target, init.config.sampling.target);
  EXPECT_EQ(i2.config.sampling.inference_budget,
            init.config.sampling.inference_budget);
  EXPECT_EQ(i2.config.table.range_pow, init.config.table.range_pow);
  EXPECT_EQ(i2.config.seed, init.config.seed);

  // Precision byte 2 (the removed fp16 tier) is refused, typed. The byte is
  // the one place an fp32 and a bf16 config encode differently.
  init.config.precision = Precision::kFP32;
  const Frame fp32_init = init.to_frame();
  init.config.precision = Precision::kBF16;
  Frame tagged = init.to_frame();
  ASSERT_EQ(tagged.payload.size(), fp32_init.payload.size());
  std::vector<std::size_t> differ;
  for (std::size_t i = 0; i < tagged.payload.size(); ++i)
    if (tagged.payload[i] != fp32_init.payload[i]) differ.push_back(i);
  ASSERT_EQ(differ.size(), 1u);
  EXPECT_EQ(dist::InitShardMsg::from_frame(tagged).config.precision,
            Precision::kBF16);
  tagged.payload[differ[0]] = 2;
  EXPECT_THROW(dist::InitShardMsg::from_frame(tagged), Error);

  dist::BackwardMsg bwd;
  bwd.slot = 7;
  bwd.err = {0.25f, -1.0f};
  bwd.prev_err = {0.0f, 1.0f, 2.0f};
  const dist::BackwardMsg b2 = dist::BackwardMsg::from_frame(bwd.to_frame());
  EXPECT_EQ(b2.slot, 7);
  EXPECT_EQ(b2.err, bwd.err);
  EXPECT_EQ(b2.prev_err, bwd.prev_err);

  dist::SetShardWeightsMsg sw;
  sw.weights = {1.0f, 2.0f, 3.0f, 4.0f};
  sw.bias = {-1.0f, -2.0f};
  const dist::SetShardWeightsMsg sw2 =
      dist::SetShardWeightsMsg::from_frame(sw.to_frame());
  EXPECT_EQ(sw2.weights, sw.weights);
  EXPECT_EQ(sw2.bias, sw.bias);

  dist::FetchShardResp fetch;
  fetch.row_offset = 31;
  fetch.rows = 30;
  fetch.fan_in = 16;
  fetch.weights.assign(480, 0.5f);
  fetch.bias.assign(30, 0.125f);
  const dist::FetchShardResp f2 =
      dist::FetchShardResp::from_frame(fetch.to_frame());
  EXPECT_EQ(f2.row_offset, 31u);
  EXPECT_EQ(f2.rows, 30u);
  EXPECT_EQ(f2.fan_in, 16u);
  EXPECT_EQ(f2.weights, fetch.weights);
  EXPECT_EQ(f2.bias, fetch.bias);

  dist::ErrorResp err;
  err.message = "shard exploded (test)";
  EXPECT_EQ(dist::ErrorResp::from_frame(err.to_frame()).message, err.message);

  dist::StatsResp stats;
  stats.active_fraction = 0.015;
  stats.rebuild_count = 42;
  const dist::StatsResp s2 = dist::StatsResp::from_frame(stats.to_frame());
  EXPECT_DOUBLE_EQ(s2.active_fraction, 0.015);
  EXPECT_EQ(s2.rebuild_count, 42);

  dist::MaybeRebuildMsg mr;
  mr.iteration = 1234;
  EXPECT_EQ(dist::MaybeRebuildMsg::from_frame(mr.to_frame()).iteration, 1234);
  dist::MaybeRebuildResp mrr;
  mrr.fired = true;
  EXPECT_TRUE(dist::MaybeRebuildResp::from_frame(mrr.to_frame()).fired);
  dist::ApplyUpdatesMsg au;
  au.lr = 0.005f;
  EXPECT_EQ(dist::ApplyUpdatesMsg::from_frame(au.to_frame()).lr, 0.005f);
  dist::CheckpointShardMsg cs;
  cs.path = "/tmp/base";
  EXPECT_EQ(dist::CheckpointShardMsg::from_frame(cs.to_frame()).path, "/tmp/base");
}

TEST(DistProtocol, FamilyBytePastDwtaIsRejectedTyped) {
  // The layer config's family byte admits simhash (0) and dwta (1) only;
  // 2 was DWTA's byte in v5. The byte is the one place a simhash and a
  // dwta config encode differently.
  dist::InitShardMsg init;
  init.num_shards = 1;
  init.global_units = 40;
  init.batch_slots = 8;
  init.config.units = 40;
  init.config.fan_in = 16;
  init.config.family = small_family();
  const Frame simhash = init.to_frame();
  init.config.family.kind = HashFamilyKind::kDwta;
  Frame dwta = init.to_frame();
  ASSERT_EQ(dwta.payload.size(), simhash.payload.size());
  std::vector<std::size_t> differ;
  for (std::size_t i = 0; i < dwta.payload.size(); ++i)
    if (dwta.payload[i] != simhash.payload[i]) differ.push_back(i);
  ASSERT_EQ(differ.size(), 1u);
  EXPECT_EQ(dwta.payload[differ[0]], 1u);
  EXPECT_EQ(dist::InitShardMsg::from_frame(dwta).config.family.kind,
            HashFamilyKind::kDwta);
  for (const std::uint8_t bad : {2, 255}) {
    dwta.payload[differ[0]] = bad;
    try {
      (void)dist::InitShardMsg::from_frame(dwta);
      ADD_FAILURE() << "family byte " << int{bad} << " decoded cleanly";
    } catch (const FrameError& e) {
      EXPECT_EQ(e.kind(), FrameErrorKind::kBadFormat) << int{bad};
    }
  }
}

// ---- Transports ------------------------------------------------------------

struct Pair {
  std::unique_ptr<dist::Transport> client;
  std::unique_ptr<dist::Transport> server;
};

Pair connect_pair(const std::string& endpoint) {
  Pair pair;
  auto listener = dist::listen_endpoint(endpoint);
  std::thread dial([&pair, &listener] {
    pair.client = dist::connect_endpoint(listener->endpoint());
  });
  pair.server = listener->accept(/*timeout_ms=*/5000);
  dial.join();
  return pair;
}

void exercise_transport(Pair& p, int frames) {
  const Frame f = sample_frame();
  std::thread echo([&p, frames] {
    for (int i = 0; i < frames; ++i) p.server->send(p.server->recv(10000));
  });
  for (int i = 0; i < frames; ++i) {
    p.client->send(f);
    const Frame back = p.client->recv(10000);
    ASSERT_EQ(back.payload, f.payload);
    ASSERT_EQ(back.type, f.type);
  }
  echo.join();
  const dist::WireCounters c = p.client->counters();
  EXPECT_EQ(c.frames_sent, static_cast<std::uint64_t>(frames));
  EXPECT_EQ(c.frames_received, static_cast<std::uint64_t>(frames));
  const std::uint64_t min_bytes =
      static_cast<std::uint64_t>(frames) *
      (dist::kFrameHeaderBytes + f.payload.size());
  EXPECT_GE(c.bytes_sent, min_bytes);
  EXPECT_GE(c.bytes_received, min_bytes);
}

TEST(DistTransport, TcpLoopbackRoundTripsFramesAndCounts) {
  Pair p = connect_pair("tcp:127.0.0.1:0");
  EXPECT_STREQ(p.client->kind(), "tcp");
  exercise_transport(p, 32);
}

TEST(DistTransport, ShmRingRoundTripsFramesAcrossWrap) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "slide_test_dist_ring")
          .string();
  Pair p = connect_pair("shm:" + path);
  EXPECT_STREQ(p.client->kind(), "shm");
  // Enough ~200-byte frames to lap any reasonable ring several times: a
  // wrap bug shows up as a CRC mismatch or a hang, either fails the test.
  exercise_transport(p, 4096);
  p.client->close();
  p.server->close();
  std::filesystem::remove(path);
}

TEST(DistTransport, TimeoutsAndClosesAreTyped) {
  // accept() with nobody dialing times out.
  auto listener = dist::listen_endpoint("tcp:127.0.0.1:0");
  EXPECT_THROW((void)listener->accept(50), dist::TransportTimeout);
  // The resolved endpoint is dialable: "tcp:127.0.0.1:<real port>".
  const std::string resolved = listener->endpoint();
  EXPECT_EQ(resolved.rfind("tcp:127.0.0.1:", 0), 0u);
  EXPECT_NE(resolved.substr(resolved.rfind(':') + 1), "0");
  listener->close();

  Pair p = connect_pair("tcp:127.0.0.1:0");
  // recv with a silent peer times out without closing the stream...
  EXPECT_THROW((void)p.client->recv(50), dist::TransportTimeout);
  // ...and the stream still works afterwards.
  p.server->send(sample_frame());
  EXPECT_EQ(p.client->recv(1000).payload, sample_frame().payload);

  // Peer shutdown surfaces as TransportClosed on both ends.
  p.server->close();
  EXPECT_THROW((void)p.client->recv(1000), dist::TransportClosed);
  EXPECT_THROW(p.server->send(sample_frame()), dist::TransportClosed);

  // Unknown endpoint schemes are rejected.
  EXPECT_THROW((void)dist::connect_endpoint("carrier-pigeon:coop:7"), Error);
  EXPECT_THROW((void)dist::listen_endpoint("carrier-pigeon:coop:7"), Error);
}

TEST(DistTransport, StopWithAnIdleClientShutsDownWithoutClosingTheFd) {
  // The coordinator never sends kShutdown, so each worker's serve thread is
  // blocked in poll/recv on its socket when stop() runs. stop() may only
  // shut that socket down; the serve thread's transport closes the fd when
  // it is destroyed. A close from stop() would race that recv (TSan reports
  // it), and the kernel could hand the fd number to the next socket opened
  // here. Repeated so a race has many chances to show.
  for (int round = 0; round < 25; ++round) {
    dist::InProcessWorker worker("tcp:127.0.0.1:0");
    dist::ShardClient client(worker.endpoint(), {});
    client.connect();
    ASSERT_TRUE(client.healthy()) << round;
    worker.stop();
    EXPECT_THROW((void)client.call(dist::make_frame(MsgType::kQuiesce),
                                   MsgType::kAck),
                 dist::TransportError)
        << round;
    EXPECT_FALSE(client.healthy()) << round;
  }
}

// ---- RPC client failure model (satellite 6) --------------------------------

TEST(DistClient, TimeoutExhaustionMarksUnhealthyAndFailsFast) {
  // A fake worker that handshakes correctly, then goes silent: the client
  // must re-wait `recv_retries` slices, then declare the worker gone.
  auto listener = dist::listen_endpoint("tcp:127.0.0.1:0");
  std::thread fake([&listener] {
    auto t = listener->accept(5000);
    try {
      (void)dist::HelloMsg::from_frame(t->recv(5000));
      Frame ok = dist::make_frame(MsgType::kHelloOk);
      dist::PayloadWriter w(ok.payload);
      w.u32(dist::kProtocolVersion);
      t->send(ok);
      (void)t->recv(5000);  // swallow the request, never answer
      (void)t->recv(5000);  // wait for the client to give up and close
    } catch (const dist::TransportError&) {
      // client closed — expected
    }
  });

  dist::ClientConfig cfg;
  cfg.rpc_timeout_ms = 50;
  cfg.recv_retries = 1;
  dist::ShardClient client(listener->endpoint(), cfg);
  client.connect();
  EXPECT_TRUE(client.healthy());

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(
      (void)client.call(dist::make_frame(MsgType::kQuiesce), MsgType::kAck),
      dist::TransportTimeout);
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  // One timeout + one retry slice: at least 2x the budget, well under 10x.
  EXPECT_GE(waited, 90);
  EXPECT_LT(waited, 2000);
  EXPECT_FALSE(client.healthy());

  // Every later call fails fast with TransportClosed (no fresh timeout).
  EXPECT_THROW(
      (void)client.call(dist::make_frame(MsgType::kQuiesce), MsgType::kAck),
      dist::TransportClosed);
  fake.join();
  listener->close();
}

TEST(DistClient, WorkerSideErrorsKeepTheClientHealthy) {
  dist::InProcessWorker worker("tcp:127.0.0.1:0");
  dist::ShardClient client(worker.endpoint(), {});
  client.connect();

  // Forwarding before kInitShard is a worker-side slide::Error: it comes
  // back as kErrorResp, rethrown as Error, and the stream stays usable.
  EXPECT_THROW(
      (void)client.call(dist::make_frame(MsgType::kFetchShard),
                        MsgType::kFetchShardResp),
      Error);
  EXPECT_TRUE(client.healthy());

  // A proper init on the same stream succeeds afterwards.
  SampledLayer::Config global;
  global.units = 24;
  global.fan_in = 8;
  global.family = small_family();
  global.table.range_pow = 7;
  global.sampling.target = 8;
  global.seed = 77;
  dist::InitShardMsg init;
  init.shard_index = 0;
  init.num_shards = 1;
  init.row_offset = 0;
  init.global_units = 24;
  init.batch_slots = 2;
  init.config = derive_shard_config(global, 24, 0);
  (void)client.call(init.to_frame(), MsgType::kAck);

  const Frame resp =
      client.call(dist::make_frame(MsgType::kFetchShard), MsgType::kFetchShardResp);
  const dist::FetchShardResp fetch = dist::FetchShardResp::from_frame(resp);
  EXPECT_EQ(fetch.rows, 24u);
  EXPECT_EQ(fetch.fan_in, 8u);
  EXPECT_EQ(fetch.weights.size(), 24u * 8u);
  EXPECT_TRUE(client.healthy());

  client.shutdown_worker();
  client.close();
  worker.stop();
}

TEST(DistClient, V3PeersAreRefusedAtTheHandshake) {
  ASSERT_EQ(dist::kProtocolVersion, 6u);
  // A v3, v4 or v5 coordinator's kHello reaches a v6 worker: refused with
  // kErrorResp.
  for (std::uint32_t old : {3u, 4u, 5u}) {
    dist::InProcessWorker worker("tcp:127.0.0.1:0");
    auto t = dist::connect_endpoint(worker.endpoint());
    dist::HelloMsg hello;
    hello.version = old;
    t->send(hello.to_frame());
    const Frame resp = t->recv(5000);
    ASSERT_EQ(dist::msg_type_of(resp), MsgType::kErrorResp);
    EXPECT_NE(dist::ErrorResp::from_frame(resp).message.find("version"),
              std::string::npos);
    // Let the worker leave its serve loop before stop() closes the socket.
    t->send(dist::make_frame(MsgType::kShutdown));
    EXPECT_EQ(dist::msg_type_of(t->recv(5000)), MsgType::kAck);
    t->close();
    worker.stop();
  }
  // A v5 worker meets a v6 client: whether it refuses the kHello or
  // answers with its own version, connect() throws VersionMismatch.
  for (bool refuse : {true, false}) {
    auto listener = dist::listen_endpoint("tcp:127.0.0.1:0");
    std::thread fake([&listener, refuse] {
      auto t = listener->accept(5000);
      try {
        (void)dist::HelloMsg::from_frame(t->recv(5000));
        if (refuse) {
          t->send(dist::ErrorResp{"worker: protocol version mismatch "
                                  "(coordinator 6, worker 5)"}
                      .to_frame());
        } else {
          Frame ok = dist::make_frame(MsgType::kHelloOk);
          dist::PayloadWriter w(ok.payload);
          w.u32(5);
          t->send(ok);
        }
        (void)t->recv(5000);  // wait for the client to close
      } catch (const dist::TransportError&) {
        // client closed — expected
      }
    });
    dist::ShardClient client(listener->endpoint(), {});
    EXPECT_THROW(client.connect(), dist::VersionMismatch) << refuse;
    EXPECT_FALSE(client.healthy());
    client.close();
    fake.join();
    listener->close();
  }
}

// ---- Builder wiring --------------------------------------------------------

TEST(DistBuilder, DistributedAndShardsAreMutuallyExclusive) {
  const auto data = planted();
  {
    NetworkBuilder b(data.train.feature_dim());
    b.dense(16).sampled(data.train.label_dim(), small_family(), 20);
    b.shards(2);
    EXPECT_THROW(b.distributed({"tcp:127.0.0.1:1", "tcp:127.0.0.1:2"}), Error);
  }
  {
    NetworkBuilder b(data.train.feature_dim());
    b.dense(16).sampled(data.train.label_dim(), small_family(), 20);
    b.distributed({"tcp:127.0.0.1:1", "tcp:127.0.0.1:2"});
    EXPECT_THROW(b.shards(2), Error);
  }
  // .distributed on a dense (non-hashed) layer is rejected.
  {
    NetworkBuilder b(10);
    b.dense(8).dense(5, Activation::kSoftmax);
    EXPECT_THROW(b.distributed({"tcp:127.0.0.1:1"}), Error);
  }
  // .shard_checkpoint without a distributed layer is rejected.
  {
    NetworkBuilder b(data.train.feature_dim());
    b.dense(16).sampled(data.train.label_dim(), small_family(), 20);
    EXPECT_THROW(b.shard_checkpoint("/tmp/base"), Error);
  }
  // The config records the endpoints.
  {
    NetworkBuilder b(data.train.feature_dim());
    b.dense(16).sampled(data.train.label_dim(), small_family(), 20);
    b.distributed({"tcp:127.0.0.1:1", "tcp:127.0.0.1:2"});
    const NetworkConfig cfg = b.to_config();
    ASSERT_EQ(cfg.layers.back().endpoints.size(), 2u);
    EXPECT_EQ(cfg.layers.back().shards, 0);
  }
}

// ---- The equivalence anchor (satellite 3) ----------------------------------

TEST(DistEquivalence, TwoWorkerTrainingIsBitIdenticalToShardedS2) {
  const auto data = planted();
  Fleet fleet(2);

  Network sharded(net_config(data, 2), 1);
  Network distributed(net_config(data, 0, fleet.endpoints), 1);
  ASSERT_EQ(distributed.stack(0).kind(), LayerKind::kSharded);
  ASSERT_EQ(distributed.stack(0).num_shards(), 2);

  train(sharded, data, 40);
  train(distributed, data, 40);

  // The dense stack below the parallel layer trained on the gradients the
  // output layer folded back — byte equality here proves the whole
  // backward path, not just the output shard math.
  ASSERT_TRUE(bytes_equal(sharded.embedding().weights_span(),
                          distributed.embedding().weights_span()));
  ASSERT_TRUE(bytes_equal(sharded.embedding().bias_span(),
                          distributed.embedding().bias_span()));

  // Output-layer weights: refresh the coordinator cache from the workers,
  // then compare every logical row bit for bit.
  auto& dl = dist_output(distributed);
  dl.flush_maintenance();
  expect_same_parameters(sharded.stack(0), distributed.stack(0));

  // Inference parity, exact and sampled (same-seed contexts).
  InferenceContext ctx_a(sharded, 7), ctx_b(distributed, 7);
  for (std::size_t i = 0; i < 30; ++i) {
    const SparseVector& x = data.test[i].features;
    EXPECT_EQ(sharded.predict_top1(x, ctx_a, true),
              distributed.predict_top1(x, ctx_b, true));
    EXPECT_EQ(sharded.predict_topk(x, ctx_a, 5, true),
              distributed.predict_topk(x, ctx_b, 5, true));
    EXPECT_EQ(sharded.predict_topk(x, ctx_a, 5, false),
              distributed.predict_topk(x, ctx_b, 5, false));
  }

  // Wire accounting is monotonic and survives the whole run. (The <= 10%
  // sparse-vs-dense acceptance ratio is asserted on realistically wide
  // layers by examples/dist_quickstart and bench/dist_transport; this
  // 61-label test layer is far too narrow for it to be meaningful.)
  const dist::WireCounters wc = dist::wire_counters(dl);
  EXPECT_GT(wc.frames_sent, 0u);
  EXPECT_GT(wc.bytes_sent, 0u);
  EXPECT_EQ(wc.frames_sent, wc.frames_received);

  dist::shutdown_workers(dl);
  fleet.stop();
}

TEST(DistEquivalence, CheckpointV3RoundTripsAcrossLayerKinds) {
  const auto data = planted();
  Fleet fleet(2);
  Network sharded(net_config(data, 2), 1);
  Network distributed(net_config(data, 0, fleet.endpoints), 1);
  train(sharded, data, 20);

  // Sharded -> distributed: load pushes the cache into the workers
  // (kSetShardWeights); re-pulling it proves the workers really hold the
  // new parameters rather than the coordinator's cache masking them.
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_weights(sharded, buffer);
  buffer.seekg(0);
  load_weights(distributed, buffer);
  auto& dl = dist_output(distributed);
  dl.flush_maintenance();
  expect_same_parameters(sharded.stack(0), distributed.stack(0));

  // Distributed -> sharded: the flushed cache serializes worker state.
  train(distributed, data, 10);
  dl.flush_maintenance();
  std::stringstream buffer2(std::ios::in | std::ios::out | std::ios::binary);
  save_weights(distributed, buffer2);
  buffer2.seekg(0);
  Network reloaded(net_config(data, 2), 1);
  load_weights(reloaded, buffer2);
  expect_same_parameters(distributed.stack(0), reloaded.stack(0));

  dist::shutdown_workers(dl);
  fleet.stop();
}

// ---- Per-shard checkpoint files + serving boot -----------------------------

TEST(DistCheckpoint, ShardFilesBootFreshWorkersBitExact) {
  const auto data = planted();
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string base = (tmp / "slide_test_dist_shards").string();
  const std::string coord = (tmp / "slide_test_dist_coord.ckpt").string();

  std::vector<std::vector<float>> saved_w(2), saved_b(2);
  Index trained_top = 0;
  SparseVector probe = data.test[0].features;
  {
    Fleet fleet(2);
    Network net(net_config(data, 0, fleet.endpoints), 1);
    train(net, data, 20);
    auto& dl = dist_output(net);
    net.rebuild_all(nullptr);
    dl.flush_maintenance();
    dist::checkpoint_shards(dl, base);
    save_weights_file(net, coord);
    for (int s = 0; s < 2; ++s) {
      const auto w = dl.shard_weights(s);
      const auto b = dl.shard_bias(s);
      saved_w[s].assign(w.begin(), w.end());
      saved_b[s].assign(b.begin(), b.end());
    }
    InferenceContext ctx(net);
    trained_top = net.predict_top1(probe, ctx, /*exact=*/true);
    dist::shutdown_workers(dl);
    fleet.stop();
  }

  // The shard files exist and carry the right identity headers.
  for (int s = 0; s < 2; ++s) {
    const std::string path = shard_file_path(base, s, 2);
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    const ShardFileInfo info = peek_shard_file(path);
    EXPECT_EQ(info.shard_index, static_cast<std::uint32_t>(s));
    EXPECT_EQ(info.num_shards, 2u);
    EXPECT_EQ(info.fan_in, 16u);
  }

  // Fresh workers + ModelStore::from_shard_checkpoints: each worker loads
  // its OWN file during kInitShard (no weight bytes cross the wire), the
  // coordinator checkpoint restores the dense stack below.
  {
    Fleet fleet(2);
    NetworkConfig cfg = net_config(data, 0, fleet.endpoints);
    auto store = ModelStore::from_shard_checkpoints(cfg, base, coord);
    const Network& net = *store->current()->network;
    const auto* dlp = dynamic_cast<const ShardedSampledLayer*>(
        &net.stack(net.stack_depth() - 1));
    ASSERT_NE(dlp, nullptr);
    const auto& dl = *dlp;
    for (int s = 0; s < 2; ++s) {
      EXPECT_TRUE(bytes_equal(dl.shard_weights(s),
                              {saved_w[s].data(), saved_w[s].size()}))
          << "shard " << s << " weights";
      EXPECT_TRUE(bytes_equal(dl.shard_bias(s),
                              {saved_b[s].data(), saved_b[s].size()}))
          << "shard " << s << " bias";
    }
    InferenceContext ctx(net);
    EXPECT_EQ(net.predict_top1(probe, ctx, /*exact=*/true), trained_top);

    // Serve through the engine: the stats surface the distributed wiring.
    {
      ServeConfig serve_cfg;
      serve_cfg.num_workers = 1;
      serve_cfg.exact = true;
      InferenceEngine engine(store, serve_cfg);
      auto f = engine.submit(probe, {.top_k = 3});
      ASSERT_TRUE(f.has_value());
      EXPECT_FALSE(f->get().labels.empty());
      const ServeStats stats = engine.stats();
      EXPECT_TRUE(stats.distributed);
      EXPECT_GT(stats.wire_bytes_sent, 0u);
      EXPECT_GT(stats.wire_bytes_received, 0u);
      EXPECT_EQ(stats.unhealthy_shards, 0);
    }
    // The engine held the store; with it gone, the store's Network
    // destructor shuts the workers down (kShutdown) before fleet.stop()
    // closes anything a worker could still be reading.
    store.reset();
    fleet.stop();
  }

  for (int s = 0; s < 2; ++s)
    std::filesystem::remove(shard_file_path(base, s, 2));
  std::filesystem::remove(coord);
}

// ---- Degraded mode (satellite 6) -------------------------------------------

TEST(DistDegraded, InferenceSkipsDeadShardsTrainingPropagates) {
  const auto data = planted();
  Fleet fleet(2);
  Network net(net_config(data, 0, fleet.endpoints), 1);
  train(net, data, 10);
  net.rebuild_all(nullptr);
  auto& dl = dist_output(net);
  EXPECT_EQ(dist::unhealthy_shards(dl), 0);

  // Kill worker 1. The next inference marks it unhealthy and answers from
  // the surviving shard: every candidate id must come from shard 0's rows.
  fleet.workers[1]->stop();
  InferenceContext ctx(net);
  std::vector<Index> ids;
  std::vector<float> act;
  Rng rng(17);
  VisitedSet visited(net.max_sampled_units());
  std::vector<float> hidden(net.config().hidden_units);
  net.embedding().forward_inference(data.test[0].features, hidden.data());
  dl.forward_inference({}, hidden, /*exact=*/true, rng, visited, ids, act);
  ASSERT_FALSE(ids.empty());
  for (Index id : ids) EXPECT_LT(id, dl.shard_offset(1));
  EXPECT_EQ(dist::unhealthy_shards(dl), 1);

  // Top-k keeps answering too (degraded, but never hanging or throwing).
  const auto topk = net.predict_topk(data.test[1].features, ctx, 5, true);
  EXPECT_FALSE(topk.empty());
  for (Index id : topk) EXPECT_LT(id, dl.shard_offset(1));

  // Training against a dead shard must NOT silently degrade: dropping one
  // shard's gradients corrupts the model, so the failure propagates.
  EXPECT_THROW(dl.apply_updates(5e-3f, nullptr), dist::TransportError);

  dist::shutdown_workers(dl);
  fleet.stop();
}

// ---- Global inference budget (satellite 1) ---------------------------------

TEST(DistBudget, DeriveShardConfigSplitsBudgetProportionally) {
  SampledLayer::Config global;
  global.units = 100;
  global.fan_in = 8;
  global.family = small_family();
  global.sampling.target = 40;
  global.sampling.inference_budget = 32;
  global.seed = 9;

  const std::vector<Index> offsets = shard_partition(100, 3);
  ASSERT_EQ(offsets.size(), 4u);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), 100u);

  Index budget_sum = 0, target_sum = 0;
  for (int s = 0; s < 3; ++s) {
    const Index size = offsets[s + 1] - offsets[s];
    const SampledLayer::Config sc = derive_shard_config(global, size, s);
    EXPECT_EQ(sc.units, size);
    EXPECT_GT(sc.sampling.inference_budget, 0u);
    EXPECT_GT(sc.sampling.target, 0u);
    budget_sum += sc.sampling.inference_budget;
    target_sum += sc.sampling.target;
    if (s == 0) EXPECT_EQ(sc.seed, global.seed);  // bit-identity anchor
  }
  // Ceil rounding: the sums land at the global knob, +< S slack.
  EXPECT_GE(budget_sum, 32u);
  EXPECT_LT(budget_sum, 32u + 3u);
  EXPECT_GE(target_sum, 40u);
  EXPECT_LT(target_sum, 40u + 3u);

  // budget = 0 keeps the knob off in every shard.
  global.sampling.inference_budget = 0;
  EXPECT_EQ(derive_shard_config(global, 34, 0).sampling.inference_budget, 0u);
}

TEST(DistBudget, BudgetCapsSampledCandidatesButNotExactScoring) {
  SampledLayer::Config cfg;
  cfg.units = 64;
  cfg.fan_in = 16;
  cfg.family = small_family();
  cfg.table.range_pow = 8;
  cfg.sampling.target = 48;
  cfg.seed = 7;
  SampledLayer layer(cfg, /*batch_slots=*/1, /*max_threads=*/1);
  layer.rebuild_tables(nullptr);

  Rng init(3);
  std::vector<float> prev(16);
  for (float& v : prev) v = init.uniform_float();
  VisitedSet visited(64);
  std::vector<Index> ids;
  std::vector<float> act;

  // Unbudgeted: fill_random_to_target tops the candidates up to target.
  Rng r1(11);
  layer.forward_inference({}, prev, false, r1, visited, ids, act);
  EXPECT_EQ(ids.size(), 48u);

  // Per-query override caps the candidate count.
  Rng r2(11);
  layer.forward_inference_budgeted({}, prev, false, r2, visited,
                                   /*budget_override=*/8, ids, act);
  EXPECT_LE(ids.size(), 8u);
  EXPECT_GE(ids.size(), 1u);
  EXPECT_EQ(ids.size(), act.size());

  // The configured knob behaves identically to the override.
  SampledLayer::Config capped = cfg;
  capped.sampling.inference_budget = 8;
  SampledLayer capped_layer(capped, 1, 1);
  capped_layer.rebuild_tables(nullptr);
  Rng r3(11);
  capped_layer.forward_inference({}, prev, false, r3, visited, ids, act);
  EXPECT_LE(ids.size(), 8u);

  // Exact mode ignores the budget: every unit is scored by request.
  Rng r4(11);
  capped_layer.forward_inference({}, prev, true, r4, visited, ids, act);
  EXPECT_EQ(ids.size(), 64u);
}

TEST(DistBudget, GlobalBudgetFixesShardCandidateOversampling) {
  const auto data = planted();
  // The PR-5 artifact: S shards each sampling toward their own target can
  // return far more merged candidates than the monolithic layer would.
  // With the global budget set to the target, the merged candidate count
  // lands at ~budget (+ceil slack per shard) regardless of S.
  NetworkConfig plain = net_config(data, 4);
  NetworkConfig budgeted = net_config(data, 4);
  budgeted.layers[0].sampling.inference_budget = 10;
  Network plain_net(plain, 1);
  Network budget_net(budgeted, 1);
  train(plain_net, data, 10);
  plain_net.rebuild_all(nullptr);
  train(budget_net, data, 10);
  budget_net.rebuild_all(nullptr);

  Rng probe(29);
  std::vector<float> hidden(16);
  VisitedSet visited(data.train.label_dim());
  std::vector<Index> ids;
  std::vector<float> act;
  std::size_t plain_total = 0, budget_total = 0;
  Rng ra(41), rb(41);
  for (int q = 0; q < 50; ++q) {
    for (float& v : hidden) v = probe.uniform_float();
    plain_net.stack(0).forward_inference({}, hidden, false, ra, visited, ids,
                                         act);
    plain_total += ids.size();
    budget_net.stack(0).forward_inference({}, hidden, false, rb, visited, ids,
                                          act);
    budget_total += ids.size();
    EXPECT_LE(ids.size(), 10u + 4u) << "query " << q;  // budget + S slack
  }
  EXPECT_LT(budget_total, plain_total);
}

}  // namespace
}  // namespace slide
