// Byte containers for the communication stack.
//
// `Bytes` owns storage, `ByteView` is a borrowed span, and `IoVec` is a
// zero-copy gather list mixing borrowed and owned segments — the shape
// Madeleine-style pack/unpack interfaces and the marshallers want.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace padico::core {

using Bytes = std::vector<std::uint8_t>;

/// Non-owning view over a contiguous byte range.
class ByteView {
 public:
  constexpr ByteView() = default;
  constexpr ByteView(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  constexpr const std::uint8_t* data() const noexcept { return data_; }
  constexpr std::size_t size() const noexcept { return size_; }
  constexpr bool empty() const noexcept { return size_ == 0; }
  constexpr const std::uint8_t* begin() const noexcept { return data_; }
  constexpr const std::uint8_t* end() const noexcept { return data_ + size_; }
  constexpr std::uint8_t operator[](std::size_t i) const { return data_[i]; }

  constexpr ByteView subview(std::size_t off, std::size_t n) const {
    return ByteView(data_ + off, n);
  }

  Bytes to_bytes() const { return Bytes(begin(), end()); }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

inline ByteView view_of(const Bytes& b) { return ByteView(b.data(), b.size()); }

inline ByteView view_of(const std::string& s) {
  return ByteView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

/// C string literal view; the terminating NUL is not included.
inline ByteView view_of(const char* s) {
  return ByteView(reinterpret_cast<const std::uint8_t*>(s), std::strlen(s));
}

inline ByteView view_of(const void* p, std::size_t n) {
  return ByteView(static_cast<const std::uint8_t*>(p), n);
}

/// Gather list of byte segments.  `append_ref` borrows the caller's
/// storage (zero-copy; the caller keeps it alive until the IoVec is
/// consumed), `append` adopts an owned buffer (headers, trailers).
class IoVec {
 public:
  IoVec() = default;

  /// Borrow `v` without copying.
  void append_ref(ByteView v) {
    segments_.push_back(Segment{v, Bytes{}, false});
    byte_size_ += v.size();
  }

  /// Adopt `b`; the IoVec keeps it alive.
  void append(Bytes b) {
    Segment s{ByteView{}, std::move(b), true};
    s.view = ByteView(s.owned.data(), s.owned.size());
    byte_size_ += s.owned.size();
    segments_.push_back(std::move(s));
  }

  /// Adopt `b` as the new FIRST segment — for layers that finalise a
  /// header at flush time, after the payload has been gathered.  O(1):
  /// the header lands in a dedicated front slot instead of shifting
  /// the whole segment vector (flush-time prepend is once per message,
  /// but the vector behind it can be a whole gather list).
  void prepend(Bytes b) {
    Segment s{ByteView{}, std::move(b), true};
    s.view = ByteView(s.owned.data(), s.owned.size());
    byte_size_ += s.owned.size();
    if (has_front_) {
      // A second prepend is rare (one finalised header per layer); the
      // old front demotes into the vector, new front takes the slot.
      segments_.insert(segments_.begin(), std::move(front_));
    }
    front_ = std::move(s);
    has_front_ = true;
  }

  std::size_t segments() const noexcept {
    return segments_.size() + (has_front_ ? 1 : 0);
  }
  std::size_t byte_size() const noexcept { return byte_size_; }
  bool empty() const noexcept { return byte_size_ == 0; }

  /// View of segment `i` (valid while the IoVec and any borrowed
  /// backing stores live).
  ByteView view(std::size_t i) const {
    if (has_front_) return i == 0 ? front_.view : segments_[i - 1].view;
    return segments_[i].view;
  }

  /// Copy every segment, in order, into one contiguous buffer.
  Bytes flatten() const;

 private:
  struct Segment {
    ByteView view;
    Bytes owned;
    bool is_owned = false;
  };
  Segment front_;
  bool has_front_ = false;
  std::vector<Segment> segments_;
  std::size_t byte_size_ = 0;
};

/// Recycler of frame-sized `Bytes` buffers.
///
/// The TX path builds one owned `Bytes` per wire frame (header +
// payload, ≤ ~1.5 KB on every profile) and the RX path frees it a few
// virtual microseconds later — a malloc/free pair per frame that the
// profiler shows as ~a third of a scenario run's wall clock.  The pool
// keeps released buffers' capacity alive: `acquire` hands one back
// resized, `release` returns it.  Bounded both ways — oversized
// buffers are never hoarded and the free list never grows past
// `kMaxFree` — so a burst can't turn the pool into a leak.
///
/// Lifetime rules (see DESIGN.md "Engine internals"): a released
/// buffer must have no live views into it, and the pool must outlive
/// every buffer it may receive — in practice it lives on the Engine
/// (`Engine::bytes_pool()`), which outlives all drivers by contract.
class BytesPool {
 public:
  /// Largest capacity worth recycling (MTU 1500 + headers, rounded).
  static constexpr std::size_t kMaxPooledCapacity = 4096;
  /// Free-list bound: beyond this, released buffers are simply freed.
  /// Sized for the in-flight frame population of a 10k-node scenario
  /// burst — a drain releases a whole bucket's frames at once, and a
  /// bound that's too tight turns those into misses on the next burst.
  static constexpr std::size_t kMaxFree = 2048;

  BytesPool() { free_.reserve(kMaxFree); }
  BytesPool(const BytesPool&) = delete;
  BytesPool& operator=(const BytesPool&) = delete;

  /// A buffer of exactly `n` bytes (contents unspecified — callers
  /// overwrite).  Recycles a pooled buffer when one fits.
  Bytes acquire(std::size_t n) {
    if (!free_.empty() && n <= kMaxPooledCapacity) {
      Bytes b = std::move(free_.back());
      free_.pop_back();
      b.resize(n);
      ++hits_;
      return b;
    }
    ++misses_;
    return Bytes(n);
  }

  /// Return a buffer to the pool (or drop it if oversized / full).
  void release(Bytes b) noexcept {
    if (b.capacity() == 0 || b.capacity() > kMaxPooledCapacity ||
        free_.size() >= kMaxFree) {
      return;  // freed on scope exit
    }
    free_.push_back(std::move(b));
  }

  std::size_t pooled() const noexcept { return free_.size(); }
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }

 private:
  std::vector<Bytes> free_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace padico::core
