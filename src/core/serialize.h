// Checkpointing: save/load network parameters to a versioned binary format.
//
// The format stores the architecture signature (dims per layer) followed by
// raw float32 parameter blocks, so a checkpoint can only be loaded into a
// network with the same shape — load_weights validates and throws
// slide::Error on mismatch. One format covers every stack a NetworkBuilder
// can produce (dense-only, multi-hashed, random-sampled): the writer and
// loader go through the Layer serialize hooks, so layer policy never
// changes the byte layout. LSH hash tables are NOT serialized: they are a
// function of the weights and are rebuilt after loading (load_weights does
// this automatically).
//
// Layout, version 5 (words are u32 unless noted; a block is a u32 length
// followed by that many floats):
//   header       magic "SLID", version 5, kind 0, input_dim, hidden,
//                num_layers, precision tag
//   embedding    weights block, bias block
//   per stack layer:
//     shape      units, fan_in, appended (the rows the layer grew by
//                online through add_units)
//     rows       shard count S, then S weights+bias block pairs covering
//                contiguous global row ranges in order (a monolithic layer
//                writes S = 1)
//     retriever  word 0 (LSH) and a u64 aux length of 0
//     tombstones u64 count, then that many u32 global unit ids
//
// The precision tag is the Precision the saving network scored inference
// at (provenance only: the loader validates it, and a loading network
// takes its precision from its own config). Parameter blocks are always
// the fp32 master weights: the int8 mirrors are derived state,
// re-quantized by the loading network when its config asks for them. The
// loader scatters the row blocks by global row, so a file written at one
// shard count loads into a network using another. A target layer
// narrower than the file re-grows by up to the appended count before
// reading the blocks (so a config-built network loads a grown checkpoint),
// then re-applies the tombstones through retire_units, so retired ids stay
// retired across save/load.
//
// Only this layout is read. Any other version, a kind other than 0 (kind 1
// was the removed dense-baseline wrapper's), a precision tag other than 0
// or 3 (tags 1 and 2 named removed 16-bit tiers), a retriever word other
// than 0 or a non-empty aux block fails with slide::Error.
#pragma once

#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/network.h"

namespace slide {

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

/// Network(config) + load_weights(in) in one pass.
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
