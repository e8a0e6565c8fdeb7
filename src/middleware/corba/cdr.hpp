// CDR-style marshalling for the CORBA personality.
//
// Two strategies, matching the two ORB families of the paper:
//
//   * zero-copy (omniORB): scalar fields and strings accumulate in a
//     small owned chunk; bulk octet sequences are *referenced* into
//     the gather list, so the payload is never touched — the message
//     leaves as an IoVec the vlink layer sends segment by segment.
//   * copying (Mico / ORBacus): every put copies into the marshal
//     buffer.  The CPU this burns per byte is what
//     CostModel::copy_bytes_per_second charges in virtual time, and
//     what caps those ORBs at ~55 / ~63 MB/s in Figure 3.
//
// Wire shapes (host byte order; the simulation never crosses real
// hosts): u32/u64 raw; string = u32 length + bytes (no NUL); octets =
// u32 length + bytes.  CdrIn is the single parser: a sticky ok() flag
// instead of exceptions, and it never reads out of bounds.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "core/bytes.hpp"

namespace padico::orb {

// Same GCC 12 false-positive diagnostics on std::vector<uint8_t>
// inserts of provably in-bounds sizes as vlink/wire.hpp (PR 105705
// and friends); scoped out of -Werror for this codec only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#endif

class CdrOut {
 public:
  explicit CdrOut(bool copying) : copying_(copying) {}

  bool copying() const noexcept { return copying_; }

  // Through put_raw, not push_back: at -O3 GCC 12 reports a push_back
  // followed by an insert as -Wstringop-overread, a false positive of
  // the family above.
  void put_u8(std::uint8_t v) { put_raw(&v, sizeof(v)); }

  void put_u32(std::uint32_t v) { put_raw(&v, sizeof(v)); }

  void put_u64(std::uint64_t v) { put_raw(&v, sizeof(v)); }

  void put_string(const std::string& s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    pending_.insert(pending_.end(), s.begin(), s.end());
  }

  /// Bulk payload: copied under the copying strategy, referenced (the
  /// caller keeps it alive until the message is consumed) otherwise.
  void put_octets(core::ByteView octets) {
    put_u32(static_cast<std::uint32_t>(octets.size()));
    if (copying_) {
      pending_.insert(pending_.end(), octets.begin(), octets.end());
    } else {
      seal();
      iov_.append_ref(octets);
    }
  }

  std::size_t byte_size() const noexcept {
    return iov_.byte_size() + pending_.size();
  }

  /// Adopt `b` as the new first segment — for framing headers that are
  /// only final once the body size is known (the GIOP frame header).
  void prepend(core::Bytes b) {
    seal();
    iov_.prepend(std::move(b));
  }

  /// The gather list (sealing any pending scalar chunk first).
  const core::IoVec& iov() {
    seal();
    return iov_;
  }

  /// One contiguous copy of the whole message.
  core::Bytes flatten() {
    seal();
    return iov_.flatten();
  }

 private:
  void put_raw(const void* p, std::size_t n) {
    const auto* bytes = static_cast<const std::uint8_t*>(p);
    pending_.insert(pending_.end(), bytes, bytes + n);
  }

  void seal() {
    if (pending_.empty()) return;
    iov_.append(std::move(pending_));
    pending_ = core::Bytes{};
  }

  bool copying_;
  core::IoVec iov_;
  core::Bytes pending_;  // scalar/string chunk being accumulated
};

class CdrIn {
 public:
  explicit CdrIn(core::ByteView in) : in_(in) {}

  /// False once any get ran past the buffer; subsequent gets return
  /// zero values and keep ok() false.
  bool ok() const noexcept { return ok_; }

  /// Whole message consumed, with no error on the way.
  bool done() const noexcept { return ok_ && pos_ == in_.size(); }

  std::uint8_t get_u8() {
    std::uint8_t v = 0;
    get_raw(&v, sizeof(v));
    return v;
  }

  std::uint32_t get_u32() {
    std::uint32_t v = 0;
    get_raw(&v, sizeof(v));
    return v;
  }

  std::uint64_t get_u64() {
    std::uint64_t v = 0;
    get_raw(&v, sizeof(v));
    return v;
  }

  std::string get_string() {
    const core::ByteView v = get_counted();
    return std::string(reinterpret_cast<const char*>(v.data()), v.size());
  }

  /// View into the underlying buffer (valid while it lives).
  core::ByteView get_octets() { return get_counted(); }

 private:
  void get_raw(void* out, std::size_t n) {
    if (!ok_ || in_.size() - pos_ < n) {
      ok_ = false;
      return;
    }
    std::memcpy(out, in_.data() + pos_, n);
    pos_ += n;
  }

  core::ByteView get_counted() {
    const std::uint32_t n = get_u32();
    if (!ok_ || in_.size() - pos_ < n) {
      ok_ = false;
      return {};
    }
    const core::ByteView v = in_.subview(pos_, n);
    pos_ += n;
    return v;
  }

  core::ByteView in_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace padico::orb
