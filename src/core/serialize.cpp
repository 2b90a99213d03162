#include "core/serialize.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <vector>

namespace slide {

namespace {

constexpr std::uint32_t kMagic = 0x534C4944;  // "SLID"
// The one layout written and read (see serialize.h).
constexpr std::uint32_t kVersion = 5;
// The retriever descriptor's word: the LSH tables, rebuilt on load.
constexpr std::uint32_t kLshRetrieverWord = 0;

void write_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t read_u32(std::istream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  SLIDE_CHECK(in.good(), "load_weights: truncated stream");
  return v;
}

void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  SLIDE_CHECK(in.good(), "load_weights: truncated stream");
  return v;
}

void write_floats(std::ostream& out, std::span<const float> data) {
  write_u32(out, static_cast<std::uint32_t>(data.size()));
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size() * sizeof(float)));
}

void read_floats(std::istream& in, std::span<float> data) {
  const std::uint32_t n = read_u32(in);
  SLIDE_CHECK(n == data.size(),
              "load_weights: parameter block size mismatch (incompatible "
              "architecture)");
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(data.size() * sizeof(float)));
  SLIDE_CHECK(in.good(), "load_weights: truncated stream");
}

/// Reads the raw payload of a length-prefixed block whose length word was
/// already consumed by the caller.
void read_payload(std::istream& in, float* data, std::size_t n) {
  in.read(reinterpret_cast<char*>(data),
          static_cast<std::streamsize>(n * sizeof(float)));
  SLIDE_CHECK(in.good(), "load_weights: truncated stream");
}

/// Copies `count` global rows of `row_width` floats starting at row
/// `first` from `src` into whichever of the layer's shard blocks own them
/// (the reshard path: file partition != target partition).
void scatter_rows(Layer& layer, const float* src, Index first, Index count,
                  std::size_t row_width, bool bias) {
  for (int s = 0; s < layer.num_shards(); ++s) {
    const std::span<float> span =
        bias ? layer.shard_bias(s) : layer.shard_weights(s);
    const Index off = layer.shard_row_offset(s);
    const Index shard_rows = static_cast<Index>(span.size() / row_width);
    const Index lo = std::max(first, off);
    const Index hi = std::min<Index>(first + count, off + shard_rows);
    if (lo >= hi) continue;
    std::copy(src + static_cast<std::size_t>(lo - first) * row_width,
              src + static_cast<std::size_t>(hi - first) * row_width,
              span.data() + static_cast<std::size_t>(lo - off) * row_width);
  }
}

/// Reads one block (length word already pending in the stream) covering
/// `block_rows` global rows starting at `first`: straight into a matching
/// target shard span when the partitions line up, through a scatter buffer
/// otherwise.
void read_rows_into_layer(std::istream& in, Layer& layer, Index first,
                          Index block_rows, std::size_t row_width, bool bias,
                          std::vector<float>& scratch) {
  const std::size_t len =
      static_cast<std::size_t>(block_rows) * row_width;
  for (int s = 0; s < layer.num_shards(); ++s) {
    const std::span<float> span =
        bias ? layer.shard_bias(s) : layer.shard_weights(s);
    if (layer.shard_row_offset(s) == first && span.size() == len) {
      read_payload(in, span.data(), len);  // partitions align: no copy
      return;
    }
  }
  scratch.resize(len);
  read_payload(in, scratch.data(), len);
  scatter_rows(layer, scratch.data(), first, block_rows, row_width, bias);
}

/// fsync(2) on `path` (a file, or a directory for its entries). Returns
/// false if it cannot be opened or synced.
bool sync_path(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags | O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

/// Writes `path` so that a crash or a failed write never leaves it
/// truncated: `write` streams into "<path>.tmp" in the same directory,
/// which is flushed, fsynced and renamed over `path`; the directory is
/// then fsynced so the rename is durable too. On failure the temp file is
/// removed and `path` keeps its previous contents.
void write_file_atomically(const std::string& path, const std::string& what,
                           const std::function<void(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp";
  try {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    SLIDE_CHECK(out.good(), what + ": cannot open " + tmp);
    write(out);
    out.close();
    SLIDE_CHECK(!out.fail(), what + ": write failed for " + tmp);
    SLIDE_CHECK(sync_path(tmp, 0), what + ": fsync failed for " + tmp);
    SLIDE_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
                what + ": cannot rename " + tmp + " to " + path);
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  // Best effort: some filesystems refuse fsync on a directory.
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  sync_path(dir.empty() ? "." : dir.string(), O_DIRECTORY);
}

void write_header(std::ostream& out, std::uint32_t input_dim,
                  std::uint32_t hidden, std::uint32_t num_layers,
                  Precision precision) {
  write_u32(out, kMagic);
  write_u32(out, kVersion);
  write_u32(out, 0);  // kind: the unified stack, the only kind there is
  write_u32(out, input_dim);
  write_u32(out, hidden);
  write_u32(out, num_layers);
  write_u32(out, static_cast<std::uint32_t>(precision));
}

void read_version(std::istream& in) {
  SLIDE_CHECK(read_u32(in) == kMagic, "load_weights: not a SLIDE checkpoint");
  SLIDE_CHECK(read_u32(in) == kVersion,
              "load_weights: unsupported checkpoint version (only version "
              "5 is read)");
}

/// Reads the kind word, which must be 0 (the unified stack). Kind 1 was
/// the removed dense-baseline wrapper's layout.
void read_kind(std::istream& in) {
  const std::uint32_t kind = read_u32(in);
  SLIDE_CHECK(kind != 1,
              "load_weights: checkpoint kind 1 (legacy dense) was removed");
  SLIDE_CHECK(kind == 0, "load_weights: unknown checkpoint kind");
}

}  // namespace

void save_weights(const Network& network, std::ostream& out) {
  const EmbeddingLayer& emb = network.embedding();
  write_header(out, emb.input_dim(), emb.units(),
               static_cast<std::uint32_t>(network.stack_depth()),
               network.precision());
  write_floats(out, emb.weights_span());
  write_floats(out, emb.bias_span());
  for (int i = 0; i < network.stack_depth(); ++i) {
    const Layer& layer = network.stack(i);
    write_u32(out, layer.units());
    write_u32(out, layer.fan_in());
    // Units the layer grew by online (add_units). A loader built from the
    // original config re-grows its layer by up to this much to reach the
    // file width before reading the parameter blocks.
    write_u32(out, layer.appended_units());
    // One weights+bias block pair per shard, contiguous global row ranges
    // in order (monolithic layers are the single-shard case).
    write_u32(out, static_cast<std::uint32_t>(layer.num_shards()));
    for (int s = 0; s < layer.num_shards(); ++s) {
      write_floats(out, layer.shard_weights(s));
      write_floats(out, layer.shard_bias(s));
    }
    // Retriever descriptor — the LSH word and an empty aux block. The
    // tables are a function of the weights and are rebuilt on load.
    write_u32(out, kLshRetrieverWord);
    write_u64(out, 0);
    // Tombstone block — the currently retired global unit ids, so a
    // reboot does not resurrect retired labels. Rows stay in the parameter
    // blocks (tombstoning never compacts); only the mask is persisted.
    const std::vector<Index> retired = layer.retired_unit_ids();
    write_u64(out, static_cast<std::uint64_t>(retired.size()));
    for (Index id : retired) write_u32(out, id);
  }
  SLIDE_CHECK(out.good(), "save_weights: write failed");
}

namespace {

/// A source's width for one stack layer and the rows it grew by online.
struct LayerShape {
  Index units = 0;
  Index appended = 0;
};

/// Where a fill reads a network's parameters from, in checkpoint order:
/// the architecture and the embedding, then per stack layer its shape,
/// its rows and its tombstones. A checkpoint stream and a live network are
/// the two sources.
class FillSource {
 public:
  virtual ~FillSource() = default;
  /// Checks the architecture against `network`; writes the embedding.
  virtual void embedding(Network& network) = 0;
  /// Stack layer i's shape at the source (checks the fan-in).
  virtual LayerShape shape(int i, const Layer& target) = 0;
  /// Writes every row of stack layer i into `target` by global row.
  virtual void rows(int i, Layer& target) = 0;
  /// Stack layer i's retired global ids (`units`: the layer's width).
  virtual std::vector<Index> retired(int i, Index units) = 0;
};

/// The one fill path: every parameter from `source`, then the derived
/// state — quantized mirrors (on_weights_loaded), tombstones, and one
/// table build per layer.
void fill(Network& network, FillSource& source, ThreadPool* pool) {
  // Weights change behind the layers' backs: bracket the whole fill so
  // concurrent debug readers assert (see network.h thread-safety).
  Network::WriteGuard guard(network);
  source.embedding(network);
  network.embedding().refresh_inference_mirror();
  for (int i = 0; i < network.stack_depth(); ++i) {
    Layer& layer = network.stack(i);
    const LayerShape shape = source.shape(i, layer);
    // A target narrower than the source re-grows by up to the rows the
    // source appended online (add_output_units), so a network built from
    // the original config takes a grown model; any other width difference
    // is an error. Growing through the network keeps its config at the
    // grown width, which later publishes and checkpoints read.
    const Index units = layer.units();
    if (shape.units != units) {
      SLIDE_CHECK(i + 1 == network.stack_depth() && shape.units > units &&
                      shape.units - units <= shape.appended,
                  "layer width mismatch: the source is narrower than the "
                  "target or wider by more than its appended output rows");
      network.add_output_units(shape.units - units);
    }
    source.rows(i, layer);
    layer.on_weights_loaded();
    // Retired ids stay retired: the retriever mask survives the build below.
    const std::vector<Index> retired = source.retired(i, layer.units());
    if (!retired.empty()) layer.retire_units(retired);
  }
  // The hash tables are a function of the weights: build each layer's once.
  for (int i = 0; i < network.stack_depth(); ++i)
    network.stack(i).rebuild_tables(pool);
}

/// A core/serialize checkpoint stream (the version 5 layout).
class StreamSource final : public FillSource {
 public:
  explicit StreamSource(std::istream& in) : in_(in) {}

  void embedding(Network& network) override {
    EmbeddingLayer& emb = network.embedding();
    read_version(in_);
    read_kind(in_);
    SLIDE_CHECK(read_u32(in_) == emb.input_dim(),
                "load_weights: input_dim mismatch");
    SLIDE_CHECK(read_u32(in_) == emb.units(),
                "load_weights: hidden width mismatch");
    SLIDE_CHECK(read_u32(in_) ==
                    static_cast<std::uint32_t>(network.stack_depth()),
                "load_weights: layer count mismatch");
    // The tag is provenance only: parameter blocks are fp32 masters either
    // way, and the network re-derives its own mirrors per its config.
    precision_from_tag(read_u32(in_));
    read_floats(in_, emb.weights_span());
    read_floats(in_, emb.bias_span());
  }

  LayerShape shape(int /*i*/, const Layer& target) override {
    LayerShape shape;
    shape.units = static_cast<Index>(read_u32(in_));
    SLIDE_CHECK(read_u32(in_) == target.fan_in(),
                "load_weights: layer fan-in mismatch");
    shape.appended = static_cast<Index>(read_u32(in_));
    return shape;
  }

  void rows(int /*i*/, Layer& layer) override {
    // A shard count + per-shard blocks. The file's partition need not
    // match the target layer's — blocks are scattered by global row index,
    // which is how a monolithic checkpoint reshards into a sharded layer
    // (and vice versa).
    const Index units = layer.units();
    const Index fan_in = layer.fan_in();
    const std::uint32_t file_shards = read_u32(in_);
    SLIDE_CHECK(file_shards >= 1 && file_shards <= units,
                "load_weights: invalid shard count");
    Index row = 0;
    for (std::uint32_t fs = 0; fs < file_shards; ++fs) {
      const std::uint32_t wlen = read_u32(in_);
      SLIDE_CHECK(wlen > 0 && wlen % fan_in == 0,
                  "load_weights: parameter block size mismatch "
                  "(incompatible architecture)");
      const Index block_rows = static_cast<Index>(wlen / fan_in);
      // row <= units holds here; row + block_rows could wrap.
      SLIDE_CHECK(block_rows <= units - row,
                  "load_weights: shard blocks exceed layer width");
      read_rows_into_layer(in_, layer, row, block_rows, fan_in,
                           /*bias=*/false, scratch_);
      SLIDE_CHECK(read_u32(in_) == static_cast<std::uint32_t>(block_rows),
                  "load_weights: bias block size mismatch");
      read_rows_into_layer(in_, layer, row, block_rows, /*row_width=*/1,
                           /*bias=*/true, scratch_);
      row += block_rows;
    }
    SLIDE_CHECK(row == units,
                "load_weights: shard blocks do not cover the layer");
  }

  std::vector<Index> retired(int /*i*/, Index units) override {
    // Retriever descriptor: the LSH word and no aux payload. The tables
    // are rebuilt from the loaded weights.
    SLIDE_CHECK(read_u32(in_) == kLshRetrieverWord,
                "load_weights: unknown retriever kind");
    SLIDE_CHECK(read_u64(in_) == 0,
                "load_weights: unexpected retriever aux block");
    // Tombstone block — the ids retired when the file was written.
    const std::uint64_t num_retired = read_u64(in_);
    SLIDE_CHECK(num_retired <= static_cast<std::uint64_t>(units),
                "load_weights: tombstone count exceeds layer width");
    std::vector<Index> ids;
    ids.reserve(static_cast<std::size_t>(num_retired));
    for (std::uint64_t r = 0; r < num_retired; ++r)
      ids.push_back(static_cast<Index>(read_u32(in_)));
    return ids;
  }

 private:
  std::istream& in_;
  std::vector<float> scratch_;  // reshard scatter buffer (rarely used)
};

/// A live network, read through the same Layer surface a checkpoint
/// writer uses: shard spans, appended count, retired ids.
class NetworkSource final : public FillSource {
 public:
  explicit NetworkSource(const Network& source) : src_(source) {}

  void embedding(Network& network) override {
    const EmbeddingLayer& from = src_.embedding();
    EmbeddingLayer& to = network.embedding();
    SLIDE_CHECK(from.input_dim() == to.input_dim(),
                "copy_network: input_dim mismatch");
    SLIDE_CHECK(from.units() == to.units(),
                "copy_network: hidden width mismatch");
    SLIDE_CHECK(src_.stack_depth() == network.stack_depth(),
                "copy_network: layer count mismatch");
    std::ranges::copy(from.weights_span(), to.weights_span().begin());
    std::ranges::copy(from.bias_span(), to.bias_span().begin());
  }

  LayerShape shape(int i, const Layer& target) override {
    const Layer& from = src_.stack(i);
    SLIDE_CHECK(from.fan_in() == target.fan_in(),
                "copy_network: layer fan-in mismatch");
    return {from.units(), from.appended_units()};
  }

  void rows(int i, Layer& target) override {
    // Each source shard lands by global row in whichever target shards
    // own it, so the target's partition need not match the source's.
    const Layer& from = src_.stack(i);
    const std::size_t fan_in = from.fan_in();
    for (int s = 0; s < from.num_shards(); ++s) {
      const std::span<const float> bias = from.shard_bias(s);
      const Index first = from.shard_row_offset(s);
      const Index rows = static_cast<Index>(bias.size());
      scatter_rows(target, from.shard_weights(s).data(), first, rows, fan_in,
                   /*bias=*/false);
      scatter_rows(target, bias.data(), first, rows, /*row_width=*/1,
                   /*bias=*/true);
    }
  }

  std::vector<Index> retired(int i, Index /*units*/) override {
    return src_.stack(i).retired_unit_ids();
  }

 private:
  const Network& src_;
};

}  // namespace

void load_weights(Network& network, std::istream& in, ThreadPool* pool) {
  StreamSource source(in);
  fill(network, source, pool);
}

std::unique_ptr<Network> load_network(const NetworkConfig& config,
                                      std::istream& in, int max_threads,
                                      ThreadPool* pool) {
  std::unique_ptr<Network> network = Network::unfilled(config, max_threads);
  StreamSource source(in);
  fill(*network, source, pool);
  return network;
}

std::unique_ptr<Network> copy_network(const NetworkConfig& config,
                                      const Network& source, int max_threads,
                                      ThreadPool* pool) {
  std::unique_ptr<Network> network = Network::unfilled(config, max_threads);
  NetworkSource from(source);
  fill(*network, from, pool);
  return network;
}

void save_weights_file(const Network& network, const std::string& path) {
  write_file_atomically(path, "save_weights_file", [&](std::ostream& out) {
    save_weights(network, out);
  });
}

void load_weights_file(Network& network, const std::string& path,
                       ThreadPool* pool) {
  std::ifstream in(path, std::ios::binary);
  SLIDE_CHECK(in.good(), "load_weights_file: cannot open " + path);
  load_weights(network, in, pool);
}

}  // namespace slide
