// Distributed-transport bench: frame codec throughput, RPC round-trip
// latency over loopback TCP and same-host shared-memory rings, and the
// headline bytes-on-wire number — how much smaller the sparse active-set
// payloads are than dense model-parallel activation exchange.
//
//   ./build/bench/dist_transport
//
// Emits BENCH_dist.json. Gated keys: frame encode/decode throughput and
// RPC round-trips/sec per transport. The sparse/dense wire ratio is the
// acceptance number for the distributed subsystem (<= 10% of the dense
// equivalent at the paper's ~0.5-2% active fractions) and is asserted
// here, not just logged.
//
// Environment: SLIDE_BENCH_REPS, SLIDE_BENCH_JSON_DIR.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "dist/protocol.h"
#include "dist/transport.h"
#include "dist/worker.h"

namespace {

using namespace slide;

int env_reps() {
  const char* env = std::getenv("SLIDE_BENCH_REPS");
  const int n = env == nullptr ? 0 : std::atoi(env);
  return n > 0 ? n : 3;
}

/// A ForwardMsg-shaped frame with `active` sparse pairs out of a
/// `dense_width`-unit previous layer (the hot-path payload shape).
dist::Frame make_active_frame(Index dense_width, Index active) {
  ActiveSet prev;  // dense shape: ids empty, act indexed by unit
  prev.dense_width = dense_width;
  prev.act.resize(static_cast<std::size_t>(dense_width), 0.0f);
  Rng rng(7);
  for (Index i = 0; i < active; ++i)
    prev.act[rng.uniform(static_cast<std::uint32_t>(dense_width))] =
        rng.uniform_float();
  dist::ForwardMsg msg;
  msg.slot = 0;
  msg.rng = rng.state();
  msg.prev = dist::WireActiveSet::capture(prev);
  return msg.to_frame();
}

/// Round-trips `frames` echo exchanges over a connected transport pair
/// (client thread sends + receives; server thread echoes). Returns RTTs/s.
double measure_rtt(dist::Transport& a, dist::Transport& b,
                   const dist::Frame& frame, int frames) {
  std::thread echo([&b, frames] {
    for (int i = 0; i < frames; ++i) b.send(b.recv(/*timeout_ms=*/10'000));
  });
  WallTimer timer;
  for (int i = 0; i < frames; ++i) {
    a.send(frame);
    (void)a.recv(/*timeout_ms=*/10'000);
  }
  const double seconds = timer.seconds();
  echo.join();
  return static_cast<double>(frames) / seconds;
}

struct TransportPair {
  std::unique_ptr<dist::Transport> client;
  std::unique_ptr<dist::Transport> server;
};

TransportPair connect_pair(const std::string& endpoint) {
  TransportPair pair;
  auto listener = dist::listen_endpoint(endpoint);
  std::thread dial([&pair, &listener] {
    pair.client = dist::connect_endpoint(listener->endpoint());
  });
  pair.server = listener->accept(/*timeout_ms=*/5'000);
  dial.join();
  return pair;
}

}  // namespace

int main() {
  const int reps = env_reps();
  bench::print_header(
      "BENCH_dist — distributed transport (frame codec, RPC round-trips, "
      "bytes on the wire)",
      "Distributed SLIDE (arXiv:2201.12667): model parallelism that "
      "exchanges only the sparse active sets");
  std::printf("[env] reps=%d\n\n", reps);

  // Workload shape: a 128-unit hidden layer feeding a wide output layer
  // whose active set is ~1% — the paper architecture's hot-path frame.
  const Index dense_width = 128;
  const Index wide_units = 65'536;
  const Index wide_active = 656;  // ~1% of the wide layer

  // 1. Frame codec throughput (encode + header/CRC decode + assemble).
  const dist::Frame frame = make_active_frame(dense_width, 96);
  std::vector<std::uint8_t> encoded;
  dist::encode_frame(frame, encoded);
  const double frame_kb =
      static_cast<double>(encoded.size()) / 1024.0;
  const int codec_iters = 20'000;
  double best_codec = 1e100;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    for (int i = 0; i < codec_iters; ++i) {
      dist::encode_frame(frame, encoded);
      const dist::FrameHeader h = dist::decode_frame_header(encoded.data());
      std::vector<std::uint8_t> payload(
          encoded.begin() + static_cast<long>(dist::kFrameHeaderBytes),
          encoded.end());
      const dist::Frame decoded = dist::assemble_frame(h, std::move(payload));
      if (decoded.payload.size() != frame.payload.size()) return 1;
    }
    best_codec = std::min(best_codec, timer.seconds());
  }
  const double codec_per_sec = codec_iters / best_codec;
  std::printf("frame codec: %.0f encode+decode/s (%.1f KiB frame, CRC-32 "
              "both ways)\n",
              codec_per_sec, frame_kb);

  // 2. RPC round-trip rate, TCP loopback vs shared-memory ring.
  const int rtt_frames = 2'000;
  double tcp_rtt = 0.0, shm_rtt = 0.0;
  {
    TransportPair p = connect_pair("tcp:127.0.0.1:0");
    for (int r = 0; r < reps; ++r)
      tcp_rtt = std::max(tcp_rtt, measure_rtt(*p.client, *p.server, frame,
                                              rtt_frames));
  }
  const std::string shm_path =
      (std::filesystem::temp_directory_path() / "bench_dist_ring").string();
  {
    TransportPair p = connect_pair("shm:" + shm_path);
    for (int r = 0; r < reps; ++r)
      shm_rtt = std::max(shm_rtt, measure_rtt(*p.client, *p.server, frame,
                                              rtt_frames));
  }
  std::printf("rpc round-trips: tcp loopback %.0f/s | shm ring %.0f/s "
              "(%.2fx)\n",
              tcp_rtt, shm_rtt, shm_rtt / tcp_rtt);

  // 3. Bytes on the wire: the kForwardActive/kBackwardScatter exchange for
  //    one sample vs dense model parallelism shipping every output unit's
  //    activation out and error back as {u32 idx, f32 val} pairs.
  ActiveSet wide;  // sparse shape: parallel ids/act runs
  wide.ids.resize(static_cast<std::size_t>(wide_active));
  wide.act.resize(static_cast<std::size_t>(wide_active));
  Rng rng(13);
  for (Index i = 0; i < wide_active; ++i) {
    wide.ids[i] = rng.uniform(static_cast<std::uint32_t>(wide_units));
    wide.act[i] = rng.uniform_float();
  }
  const dist::WireActiveSet sparse_set = dist::WireActiveSet::capture(wide);
  std::vector<std::uint8_t> sparse_fp32;
  {
    dist::PayloadWriter w(sparse_fp32);
    sparse_set.write(w);
  }
  // x2: activations out + errors back cross the wire per sample either way.
  const double sparse_bytes =
      2.0 * (static_cast<double>(sparse_fp32.size()) + dist::kFrameHeaderBytes);
  const double dense_bytes = 2.0 * 8.0 * static_cast<double>(wide_units);
  const double ratio = sparse_bytes / dense_bytes;
  std::printf("bytes on wire per sample (%u-unit layer, %u active = %.1f%%): "
              "sparse %.1f KiB vs dense %.1f KiB -> %.2f%%\n",
              wide_units, wide_active,
              100.0 * wide_active / static_cast<double>(wide_units),
              sparse_bytes / 1024.0, dense_bytes / 1024.0, 100.0 * ratio);
  if (ratio > 0.10) {
    std::fprintf(stderr,
                 "FAIL: sparse wire bytes %.1f%% of dense (acceptance 10%%)\n",
                 100.0 * ratio);
    return 1;
  }

  bench::Json json;
  json.begin_object();
  json.key("bench").string("dist_transport");
  json.key("frame_kib").number(frame_kb);
  json.key("codec_frames_per_sec").number(codec_per_sec);
  json.key("tcp_roundtrips_per_sec").number(tcp_rtt);
  json.key("shm_roundtrips_per_sec").number(shm_rtt);
  json.key("speedup_shm_vs_tcp").number(shm_rtt / tcp_rtt);
  json.key("wide_units").number(static_cast<long long>(wide_units));
  json.key("wide_active").number(static_cast<long long>(wide_active));
  json.key("sparse_wire_bytes_info").number(sparse_bytes);
  json.key("dense_wire_bytes_info").number(dense_bytes);
  json.key("sparse_vs_dense_ratio_info").number(ratio);
  json.end_object();
  json.write_file(bench::json_path("BENCH_dist.json"));
  return 0;
}
