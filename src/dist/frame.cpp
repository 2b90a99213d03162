#include "dist/frame.h"

#include <array>

namespace slide::dist {

namespace {

constexpr std::array<std::uint8_t, 4> kMagic = {0x53, 0x4C, 0x46, 0x57};

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

const char* to_string(FrameErrorKind kind) {
  switch (kind) {
    case FrameErrorKind::kTruncated:
      return "truncated";
    case FrameErrorKind::kBadMagic:
      return "bad magic";
    case FrameErrorKind::kOversized:
      return "oversized";
    case FrameErrorKind::kBadCrc:
      return "bad crc";
    case FrameErrorKind::kBadFormat:
      return "bad format";
  }
  return "?";
}

std::uint32_t crc32(const void* data, std::size_t len) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i)
    c = kCrcTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void encode_frame(const Frame& frame, std::vector<std::uint8_t>& out) {
  SLIDE_CHECK(frame.payload.size() <= kMaxFramePayload,
              "encode_frame: payload exceeds kMaxFramePayload");
  out.clear();
  out.resize(kFrameHeaderBytes + frame.payload.size());
  out[0] = kMagic[0];
  out[1] = kMagic[1];
  out[2] = kMagic[2];
  out[3] = kMagic[3];
  out[4] = frame.type;
  out[5] = 0;
  out[6] = 0;
  out[7] = 0;
  put_u32(out.data() + 8, static_cast<std::uint32_t>(frame.payload.size()));
  put_u32(out.data() + 12, crc32(frame.payload.data(), frame.payload.size()));
  // An empty payload's data() may be null, which memcpy must not see.
  if (!frame.payload.empty())
    std::memcpy(out.data() + kFrameHeaderBytes, frame.payload.data(),
                frame.payload.size());
}

FrameHeader decode_frame_header(const std::uint8_t* header16) {
  if (std::memcmp(header16, kMagic.data(), kMagic.size()) != 0)
    throw FrameError(FrameErrorKind::kBadMagic,
                     "header does not start with SLFW");
  // Bytes 5..7 are reserved (frame.h) and must read zero.
  if (header16[5] != 0 || header16[6] != 0 || header16[7] != 0)
    throw FrameError(FrameErrorKind::kBadFormat,
                     "reserved header bytes are not zero");
  FrameHeader h;
  h.type = header16[4];
  h.length = get_u32(header16 + 8);
  h.crc = get_u32(header16 + 12);
  if (h.length > kMaxFramePayload)
    throw FrameError(FrameErrorKind::kOversized,
                     "length " + std::to_string(h.length) + " exceeds cap");
  return h;
}

Frame assemble_frame(const FrameHeader& header,
                     std::vector<std::uint8_t> payload) {
  if (payload.size() != header.length)
    throw FrameError(FrameErrorKind::kTruncated,
                     "payload shorter than header length");
  if (crc32(payload.data(), payload.size()) != header.crc)
    throw FrameError(FrameErrorKind::kBadCrc, "payload checksum mismatch");
  Frame frame;
  frame.type = header.type;
  frame.payload = std::move(payload);
  return frame;
}

}  // namespace slide::dist
