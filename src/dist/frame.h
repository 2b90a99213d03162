// Wire framing for the distributed model-parallel subsystem.
//
// Every RPC between the coordinator (dist/remote_shard.h) and a shard
// worker (dist/worker.h) travels as one length-prefixed, CRC-checked frame:
//
//   offset  size  field
//        0     4  magic  "SLFW" (0x53 0x4C 0x46 0x57, byte order fixed)
//        4     1  type   (dist/protocol.h MsgType; opaque at this layer)
//        5     3  reserved (zero)
//        8     4  payload length, little-endian (<= kMaxFramePayload)
//       12     4  CRC-32 (IEEE) of the payload bytes, little-endian
//       16     n  payload
//
// The decoder is deliberately paranoid — frames arrive from sockets and
// shared-memory rings that other processes write — and rejects every
// corruption kind with a *typed* error (FrameError::kind), mirroring the
// xc_reader malformed-input contract: truncated header/payload, bad magic,
// non-zero reserved bytes, oversized length, CRC mismatch.
// tests/test_dist.cpp fuzzes all of them.
//
// Payload contents are built with PayloadWriter / PayloadReader: explicit
// little-endian scalar codecs plus the sparse active-set pair codec
// ({index, value} runs of fp32 values) that carries the activations
// and gradients — the entire point of Distributed SLIDE (arXiv:2201.12667)
// is that these sparse runs are small enough for low-bandwidth links.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "sys/common.h"

namespace slide::dist {

/// Corruption kind a frame decoder detected (typed for tests and for
/// callers that want to distinguish "peer is garbage" from "peer is slow").
enum class FrameErrorKind {
  kTruncated,  ///< stream/ring ended inside a header or payload
  kBadMagic,   ///< header does not start with "SLFW"
  kOversized,  ///< length field exceeds kMaxFramePayload
  kBadCrc,     ///< payload CRC mismatch
  kBadFormat,  ///< reserved header bytes set, or payload structure invalid
               ///< (reader overrun, bad counts)
};

const char* to_string(FrameErrorKind kind);

class FrameError : public Error {
 public:
  FrameError(FrameErrorKind kind, const std::string& what)
      : Error(std::string("frame: ") + to_string(kind) + ": " + what),
        kind_(kind) {}
  FrameErrorKind kind() const noexcept { return kind_; }

 private:
  FrameErrorKind kind_;
};

/// Hard payload bound: a full fp32 weight block of the paper's widest shard
/// fits with room to spare; anything bigger is a corrupt length field.
inline constexpr std::size_t kMaxFramePayload = 256u * 1024u * 1024u;
inline constexpr std::size_t kFrameHeaderBytes = 16;

/// CRC-32 (IEEE 802.3, reflected, init/final 0xFFFFFFFF) over `data`.
std::uint32_t crc32(const void* data, std::size_t len) noexcept;

struct Frame {
  std::uint8_t type = 0;
  std::vector<std::uint8_t> payload;
};

/// Parsed header of an incoming frame (payload not yet read).
struct FrameHeader {
  std::uint8_t type = 0;
  std::uint32_t length = 0;
  std::uint32_t crc = 0;
};

/// Serializes header + payload into `out` (cleared first).
void encode_frame(const Frame& frame, std::vector<std::uint8_t>& out);

/// Validates and parses a 16-byte header block. Throws FrameError
/// (kBadMagic, kBadFormat for non-zero reserved bytes, kOversized) on
/// corruption.
FrameHeader decode_frame_header(const std::uint8_t* header16);

/// Verifies the payload against the header CRC and materializes the Frame.
/// Throws FrameError (kBadCrc) on mismatch.
Frame assemble_frame(const FrameHeader& header, std::vector<std::uint8_t> payload);

// ---------------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------------

/// Appends little-endian scalars to a byte buffer.
class PayloadWriter {
 public:
  explicit PayloadWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void i64(std::int64_t v) { raw(&v, sizeof(v)); }
  void f32(float v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void bytes(std::span<const std::uint8_t> b) { raw(b.data(), b.size()); }
  void floats(std::span<const float> v) {
    u32(static_cast<std::uint32_t>(v.size()));
    raw(v.data(), v.size() * sizeof(float));
  }
  void indices(std::span<const Index> v) {
    u32(static_cast<std::uint32_t>(v.size()));
    raw(v.data(), v.size() * sizeof(Index));
  }

 private:
  // resize + memcpy rather than vector::insert: GCC 12 inlines the latter
  // into every codec and warns (-Wstringop-overflow) about its empty-range
  // memmove.
  void raw(const void* p, std::size_t n) {
    if (n == 0) return;
    const std::size_t at = out_.size();
    out_.resize(at + n);
    std::memcpy(out_.data() + at, p, n);
  }

  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked little-endian reader; any overrun throws
/// FrameError(kBadFormat) — a valid CRC does not make a payload well-formed.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { std::uint8_t v; raw(&v, sizeof(v)); return v; }
  std::uint32_t u32() { std::uint32_t v; raw(&v, sizeof(v)); return v; }
  std::uint64_t u64() { std::uint64_t v; raw(&v, sizeof(v)); return v; }
  std::int64_t i64() { std::int64_t v; raw(&v, sizeof(v)); return v; }
  float f32() { float v; raw(&v, sizeof(v)); return v; }
  double f64() { double v; raw(&v, sizeof(v)); return v; }
  std::string str() {
    const std::uint32_t n = checked_count(u32(), 1);
    std::string s(n, '\0');
    raw(s.data(), n);
    return s;
  }
  void floats(std::vector<float>& out) {
    const std::uint32_t n = checked_count(u32(), sizeof(float));
    out.resize(n);
    raw(out.data(), static_cast<std::size_t>(n) * sizeof(float));
  }
  void indices(std::vector<Index>& out) {
    const std::uint32_t n = checked_count(u32(), sizeof(Index));
    out.resize(n);
    raw(out.data(), static_cast<std::size_t>(n) * sizeof(Index));
  }

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return pos_ == data_.size(); }

 private:
  /// A count whose elements could not possibly fit in the remaining bytes
  /// is corrupt — reject before resize() turns it into an allocation bomb.
  std::uint32_t checked_count(std::uint32_t n, std::size_t elem_bytes) {
    if (static_cast<std::size_t>(n) * elem_bytes > remaining())
      throw FrameError(FrameErrorKind::kBadFormat,
                       "element count exceeds payload");
    return n;
  }
  void raw(void* p, std::size_t n) {
    if (n > remaining())
      throw FrameError(FrameErrorKind::kBadFormat, "payload reader overrun");
    if (n == 0) return;  // `p` may be an empty vector's null data()
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace slide::dist
