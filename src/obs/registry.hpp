// obs::Registry — named counters, gauges and log-bucketed histograms,
// one registry per Engine.
//
// Everything here is plain arithmetic on the virtual clock: recording
// never schedules events, never reads wall time and never consumes
// simulation randomness, so a fully-instrumented run produces the same
// determinism digest as an uninstrumented one.  Instruments live in
// ordered maps (stable addresses, stable snapshot order); hot paths
// look an instrument up once and keep the pointer.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>

#include "core/time.hpp"

namespace padico::obs {

/// Monotone event count (frames, dispatches, virtual nanoseconds...).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time level (queue depth, in-flight messages).  Tracks the
/// high-water mark alongside the current value.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_ = v;
    if (v > max_) max_ = v;
  }
  void add(std::int64_t d) noexcept { set(value_ + d); }
  std::int64_t value() const noexcept { return value_; }
  std::int64_t max() const noexcept { return max_; }

 private:
  std::int64_t value_ = 0;
  std::int64_t max_ = 0;
};

/// Power-of-two bucketed histogram of unsigned samples.
///
/// Bucket 0 holds exactly {0}; bucket i (1 <= i <= 32) holds
/// [2^(i-1), 2^i - 1]; the last bucket (kOverflowBucket) holds
/// everything >= 2^32.  33 data buckets + overflow cover byte sizes
/// and nanosecond durations with 4 + 34*8 words of state.
class Histogram {
 public:
  static constexpr int kBuckets = 34;
  static constexpr int kOverflowBucket = kBuckets - 1;

  /// Bucket index a value lands in.
  static constexpr int bucket_of(std::uint64_t v) noexcept {
    if (v == 0) return 0;
    const int width = std::bit_width(v);
    return width < kOverflowBucket ? width : kOverflowBucket;
  }

  /// Smallest value of bucket `i` (i in [0, kBuckets)).
  static constexpr std::uint64_t bucket_lo(int i) noexcept {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }

  /// Largest value of bucket `i` (inclusive).
  static constexpr std::uint64_t bucket_hi(int i) noexcept {
    if (i == 0) return 0;
    if (i >= kOverflowBucket) return std::numeric_limits<std::uint64_t>::max();
    return (std::uint64_t{1} << i) - 1;
  }

  void record(std::uint64_t v) noexcept {
    ++buckets_[bucket_of(v)];
    ++count_;
    total_ += v;
    if (v > max_) max_ = v;
  }

  /// Accumulate another histogram into this one.
  void merge(const Histogram& other) noexcept {
    for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    total_ += other.total_;
    if (other.max_ > max_) max_ = other.max_;
  }

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t total() const noexcept { return total_; }
  std::uint64_t max() const noexcept { return max_; }
  std::uint64_t bucket_count(int i) const noexcept { return buckets_[i]; }

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t max_ = 0;
};

/// Throughput instrument: a monotone count paired with the virtual
/// time it accumulated over, so events/sec and bytes/sec become
/// first-class snapshot lines instead of post-processing.  The window
/// runs from the instrument's creation instant to the owning engine's
/// current `now`; merged-in rates contribute their whole windows.
class Rate {
 public:
  explicit Rate(const core::SimTime* clock = nullptr)
      : clock_(clock), start_(clock != nullptr ? *clock : 0) {}

  void add(std::uint64_t n = 1) noexcept { count_ += n; }
  std::uint64_t count() const noexcept { return count_; }

  core::Duration elapsed() const noexcept {
    return base_elapsed_ + (clock_ != nullptr ? *clock_ - start_ : 0);
  }

  /// count / elapsed, per second of virtual time; 0 before any time
  /// has passed.
  double per_sec() const noexcept {
    const core::Duration e = elapsed();
    return e == 0 ? 0.0 : static_cast<double>(count_) / core::to_seconds(e);
  }

  /// Accumulate another rate: counts add, windows add — the operation
  /// the (clock-less) global accumulator applies when an engine dies.
  void merge(const Rate& other) noexcept {
    count_ += other.count();
    base_elapsed_ += other.elapsed();
  }

 private:
  const core::SimTime* clock_;
  core::SimTime start_;
  core::Duration base_elapsed_ = 0;
  std::uint64_t count_ = 0;
};

class Registry {
 public:
  // std::less<> enables string_view lookups without a temporary string.
  using Counters = std::map<std::string, Counter, std::less<>>;
  using Gauges = std::map<std::string, Gauge, std::less<>>;
  using Histograms = std::map<std::string, Histogram, std::less<>>;
  using Rates = std::map<std::string, Rate, std::less<>>;

  /// `clock` (may be null) points at the owning engine's virtual `now`;
  /// only the snapshot header reads it.
  explicit Registry(const core::SimTime* clock = nullptr) : clock_(clock) {}
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;
  ~Registry();

  /// Find-or-create by name.  References stay valid for the registry's
  /// lifetime (node-based map) — hot paths cache them.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);
  Rate& rate(std::string_view name);

  /// Lookup without creating; nullptr when absent.
  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  const Counters& counters() const noexcept { return counters_; }
  const Gauges& gauges() const noexcept { return gauges_; }
  const Histograms& histograms() const noexcept { return histograms_; }
  const Rates& rates() const noexcept { return rates_; }

  std::size_t size() const noexcept {
    return counters_.size() + gauges_.size() + histograms_.size() +
           rates_.size();
  }
  bool empty() const noexcept { return size() == 0; }
  void clear();

  /// Accumulate `other`: counters and histograms add, gauges keep the
  /// maximum of the high-water marks (their instantaneous values are
  /// meaningless across engines) — the operation the global
  /// accumulator applies when an engine dies.
  void merge(const Registry& other);

  /// Stable text snapshot: one line per instrument, name-ordered,
  /// kind-prefixed.  Bit-identical across runs of a deterministic
  /// program; used by tests and embedded in BENCH_*.json.
  std::string snapshot() const;

 private:
  const core::SimTime* clock_;
  Counters counters_;
  Gauges gauges_;
  Histograms histograms_;
  Rates rates_;
};

/// Install (or clear, with nullptr) the process-global accumulator:
/// every Registry merges itself into it on destruction.  Benches use
/// this to embed a whole-run registry snapshot in BENCH_*.json even
/// though each measurement builds and tears down its own Engine.
void set_global_registry(Registry* r) noexcept;
Registry* global_registry() noexcept;

}  // namespace padico::obs
