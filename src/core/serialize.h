// Checkpointing: save/load network parameters to a versioned binary format.
//
// The format stores the architecture signature (dims per layer) followed by
// raw float32 parameter blocks, so a checkpoint can only be loaded into a
// network with the same shape — load_weights validates and throws
// slide::Error on mismatch. One format covers every stack a NetworkBuilder
// can produce (dense-only, multi-hashed, random-sampled): the writer and
// loader go through the Layer serialize hooks, so layer policy never
// changes the byte layout. The header's kind word is always 0; kind 1 (the
// removed dense-baseline wrapper's files) fails with slide::Error, and a
// dense baseline is a builder stack saved like any other. LSH hash tables are
// NOT serialized: they are a function of the weights and are rebuilt after
// loading (load_weights does this automatically).
//
// Version history:
//   1 — header {magic, version, kind, input_dim, hidden, num_layers}; kind
//       must be 0 in every version.
//   2 — adds a precision tag word after the header: the Precision the
//       saving network scored inference at (provenance for serving boots;
//       see peek_checkpoint_info). Parameter blocks are ALWAYS the fp32
//       master weights regardless of the tag — quantized mirrors are
//       derived state and are re-quantized by the loading network when its
//       own config asks for them. Version-1 files load unchanged (tag
//       fp32). Tag 2 (the removed fp16 tier) fails with slide::Error.
//   3 — stack layers gain a shard-count word before their parameter
//       blocks, followed by one weights+bias block pair per shard
//       (contiguous global row ranges in order; monolithic layers write a
//       single "shard"). The loader scatters file blocks into the target
//       layer's own shard partition by global row index, so a checkpoint
//       written at one shard count loads into a network using another —
//       including monolithic-to-sharded resharding (serve/snapshot.h,
//       publish_clone). v1/v2 files load unchanged.
//   4 — each layer appends a retriever descriptor after its parameter
//       blocks: a u32 retriever word plus a u64-sized aux payload. Writers
//       emit word 0 (LSH) and an empty payload. Readers accept words 0–2
//       (older writers also wrote 1 for an exact layer and 2 for an HNSW
//       layer, whose payload held its graph), skip any payload, and
//       rebuild every layer's tables from the loaded weights; any other
//       word fails with slide::Error. v1–v3 files load unchanged.
//   5 — dynamic-label lifecycle state. Each stack layer gains (a) an
//       appended-row count word right after its units/fan_in words — the
//       units the layer grew by online via add_units — and (b) a trailing
//       tombstone block (u64 count + that many u32 global unit ids) after
//       the retriever descriptor. A loader whose target layer is NARROWER
//       than the file re-grows it by the appended count before reading the
//       parameter blocks (so a config-built network loads a grown
//       checkpoint), then re-applies the tombstones through retire_units —
//       retired ids stay retired across save/load instead of resurrecting.
//       v1–v4 files load unchanged (no growth, no tombstones).
#pragma once

#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/network.h"

namespace slide {

/// Header fields of a checkpoint stream (see the version history above).
struct CheckpointInfo {
  std::uint32_t version = 0;
  Precision precision = Precision::kFP32;  ///< tag; fp32 for version-1 files
};

/// Reads the checkpoint header without consuming the stream (the stream is
/// rewound to where it was). Lets a serving boot decide its precision from
/// the tag before constructing the network.
CheckpointInfo peek_checkpoint_info(std::istream& in);
CheckpointInfo peek_checkpoint_info_file(const std::string& path);

/// Serializes all weights and biases of the network.
void save_weights(const Network& network, std::ostream& out);
/// save_weights into `path`, crash-safely: the bytes go to "<path>.tmp",
/// which is fsynced and renamed over `path`. A failed save throws and
/// leaves any previous file at `path` intact (and no temp file behind).
void save_weights_file(const Network& network, const std::string& path);

/// Restores weights into an architecture-compatible network and rebuilds
/// its hash tables (parallelized when a pool is given).
void load_weights(Network& network, std::istream& in,
                  ThreadPool* pool = nullptr);
void load_weights_file(Network& network, const std::string& path,
                       ThreadPool* pool = nullptr);

// ---------------------------------------------------------------------------
// Fill functions: build a network once, from a checkpoint or from a live one
// ---------------------------------------------------------------------------
//
// Network(config) draws random parameters and builds tables over them, and
// load_weights then overwrites both. The two functions below construct the
// layers with neither, write every parameter through load_weights' own
// fill path, re-apply the tombstones and build each layer's tables once.
// Since a build is a pure function of the hash family, the weights and the
// group seed, the result equals Network(config) + load_weights bit for bit
// at a fraction of the cost. Nothing escapes half-built: on slide::Error
// the network is discarded. `max_threads` is Network's; a pool with more
// than one thread builds the tables in parallel.

/// Network(config) + load_weights(in) in one pass (any checkpoint version).
std::unique_ptr<Network> load_network(const NetworkConfig& config,
                                      std::istream& in, int max_threads,
                                      ThreadPool* pool);

/// A network of `config` holding `source`'s parameters: the embedding, then
/// each stack layer by global row, so a target with another shard count, or
/// one built narrower than a source grown online (within its appended
/// rows), gets exactly the source's rows. The tombstones carry over and the
/// quantized mirrors follow config.precision. Equals save_weights(source)
/// + load_network(config) without the stream. `source` must not be
/// mutated meanwhile (the save_weights contract).
std::unique_ptr<Network> copy_network(const NetworkConfig& config,
                                      const Network& source, int max_threads,
                                      ThreadPool* pool);

}  // namespace slide
