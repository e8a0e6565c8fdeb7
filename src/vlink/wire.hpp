// The vlink wire header: the 24-byte control block that rides in front
// of every framed message of the stack (connection management frames of
// the drivers, and the MadIO multiplexing header).
//
// Layout (24 bytes; reserved bytes are zero on encode, ignored on
// decode; fields are memcpy'd in host byte order — the simulation never
// crosses real hosts):
//
//   [ 0] u8  type        FrameType, 1..5
//   [ 1] u8  reserved
//   [ 2] u16 src_port    sender port / logical tag
//   [ 4] u16 dst_port    destination port / logical tag
//   [ 6] u16 reserved
//   [ 8] u32 src_node    sender node id
//   [12] u32 peer        receiver's connection handle (slot, generation)
//                        on accept and data frames; zero otherwise
//   [16] u64 conn_id     connection id / per-tag sequence number
//
// `decode` is the single parser for this format; it rejects truncated
// frames and unknown types by returning nullopt, never by reading out
// of bounds (tests/test_wire_fuzz.cpp hammers this).
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>

#include "core/bytes.hpp"
#include "core/time.hpp"

namespace padico::vlink::wire {

inline constexpr std::size_t kHeaderSize = 24;

enum class FrameType : std::uint8_t {
  connect = 1,
  accept = 2,
  refuse = 3,
  data = 4,
  header = 5,  // detached MadIO control header (combining off)
};

struct Header {
  FrameType type = FrameType::data;
  core::Port src_port = 0;
  core::Port dst_port = 0;
  core::NodeId src_node = 0;
  std::uint32_t peer = 0;
  std::uint64_t conn_id = 0;

  friend bool operator==(const Header&, const Header&) = default;
};

// GCC 12 at -O2 raises well-known false-positive -Warray-bounds /
// -Wstringop-overflow diagnostics on std::vector<uint8_t> writes of
// provably in-bounds sizes (PR 105705 and friends); scope them out of
// -Werror for these two functions only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#endif

/// Serialise `h` into `out[0..23]`.  `out` must hold kHeaderSize bytes.
inline void encode_into(const Header& h, std::uint8_t* out) {
  std::memset(out, 0, kHeaderSize);
  out[0] = static_cast<std::uint8_t>(h.type);
  std::memcpy(out + 2, &h.src_port, sizeof(h.src_port));
  std::memcpy(out + 4, &h.dst_port, sizeof(h.dst_port));
  std::memcpy(out + 8, &h.src_node, sizeof(h.src_node));
  std::memcpy(out + 12, &h.peer, sizeof(h.peer));
  std::memcpy(out + 16, &h.conn_id, sizeof(h.conn_id));
}

/// Build a full frame: header followed by `payload`.
inline core::Bytes encode(const Header& h, core::ByteView payload = {}) {
  core::Bytes frame(kHeaderSize + payload.size());
  encode_into(h, frame.data());
  if (!payload.empty()) {
    std::memcpy(frame.data() + kHeaderSize, payload.data(), payload.size());
  }
  return frame;
}

/// Build a full frame in a recycled buffer from `pool` — the
/// allocation-free fast path for frame-sized messages.  The receiving
/// driver releases the buffer back to the pool once the frame is
/// handled (acquire/release pair across the simulated wire; both ends
/// share the engine's pool).
inline core::Bytes encode(const Header& h, core::ByteView payload,
                          core::BytesPool& pool) {
  core::Bytes frame = pool.acquire(kHeaderSize + payload.size());
  encode_into(h, frame.data());
  if (!payload.empty()) {
    std::memcpy(frame.data() + kHeaderSize, payload.data(), payload.size());
  }
  return frame;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

/// Parse the header at the front of `frame`.  Returns nullopt for
/// truncated frames or unknown frame types; never reads past
/// `frame.size()`.
inline std::optional<Header> decode(core::ByteView frame) {
  if (frame.size() < kHeaderSize) return std::nullopt;
  const std::uint8_t raw_type = frame[0];
  if (raw_type < static_cast<std::uint8_t>(FrameType::connect) ||
      raw_type > static_cast<std::uint8_t>(FrameType::header)) {
    return std::nullopt;
  }
  Header h;
  h.type = static_cast<FrameType>(raw_type);
  std::memcpy(&h.src_port, frame.data() + 2, sizeof(h.src_port));
  std::memcpy(&h.dst_port, frame.data() + 4, sizeof(h.dst_port));
  std::memcpy(&h.src_node, frame.data() + 8, sizeof(h.src_node));
  std::memcpy(&h.peer, frame.data() + 12, sizeof(h.peer));
  std::memcpy(&h.conn_id, frame.data() + 16, sizeof(h.conn_id));
  return h;
}

}  // namespace padico::vlink::wire
