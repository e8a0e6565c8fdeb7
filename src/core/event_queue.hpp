// EventQueue — the engine's three-level calendar queue.
//
// The old engine kept every pending event in a
// `std::map<(SimTime, seq), std::function>`: one red-black-tree node
// allocation plus a rebalance per event, and usually a second heap
// allocation inside the std::function.  This queue is a hierarchical
// timing wheel (Varghese & Lauck, SOSP 1987) over pooled nodes:
//
//   * a FINE RING of per-tick (1 ns) buckets.  Time is cut into coarse
//     slots of `2^s` ticks; with the anchor slot A, the ring covers the
//     two slots [A, A+2), an aligned window of ring_ticks = 2^(s+1)
//     ticks, so bucket `t & mask` and the scan from `(A<<s) & mask` walk
//     it in increasing tick order.  Each bucket is an intrusive FIFO
//     list, with a two-level occupancy bitmap so the next non-empty tick
//     is found with a couple of ctz scans;
//   * a COARSE WHEEL of 2^s FIFO slot lists, slot `(t>>s) & (2^s-1)`,
//     covering the slots [A+2, A+2+2^s) — at the default geometry 4096
//     slots of 4096 ns, ~16.8 ms: the 8 ms WAN hop plus serialisation
//     stays off the heap;
//   * a FAR HEAP (binary min-heap ordered by (time, seq)) only for
//     events beyond the coarse span;
//   * a NODE POOL with a freelist: steady-state scheduling allocates
//     nothing.
//
// When the anchor advances, before pop() returns: (1) the at most two
// newly covered coarse slots cascade into the fine ring, THEN (2) the
// heap entries now in range migrate to the fine ring or the coarse
// wheel by their time.  Cascading first frees the wheel slots whose
// residues the migrated entries reuse.  Every level's boundary only
// grows, so for any tick the heap-fed entries were pushed before the
// coarse-fed ones, and those before direct fine pushes: appending level
// by level keeps FIFO-within-timestamp order exactly the map's.
//
// The seed's std::map queue survives only as a test oracle
// (`MapOracle` in tests/test_event_queue.cpp) and a bench-local rival
// in bench_engine; the recorded scenario digests pin that this queue
// pops in exactly its order.
//
// Ordering contract (identical to the map): pop order is strictly
// increasing (t, seq); the caller assigns seq monotonically and never
// pushes t below the last popped time (the engine clamps to now()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/inplace_fn.hpp"
#include "core/time.hpp"

namespace padico::core {

/// The engine's event closure.  48 inline bytes fit every hot closure
/// in the stack (a pointer, two node ids and a Bytes handle); larger
/// captures fall back to one heap allocation, same as std::function.
using EventFn = InplaceFn<48>;

struct QueueConfig {
  /// Width of the fine ring in ticks (= nanoseconds), rounded up to a
  /// power of two.  It also sets the coarse wheel: ring_ticks / 2 slots
  /// of ring_ticks / 2 ticks each.  The default (8 us fine, ~16.8 ms
  /// coarse) keeps CPU costs on the fine ring and LAN and WAN hops on
  /// the wheel, at 96 KiB of buckets.  1 is the degenerate "everything
  /// in the heap except the current instant" configuration the
  /// determinism tests exercise.
  std::uint32_t ring_ticks = 8192;
};

/// Process-global default picked up by default-constructed Engines
/// (the Grid and Scenario build their engines internally; tests and
/// benches flip this to run the same workload under another queue).
QueueConfig& default_queue_config() noexcept;

/// RAII: swap the process default, restore on destruction.
class ScopedQueueConfig {
 public:
  explicit ScopedQueueConfig(const QueueConfig& cfg) noexcept
      : saved_(default_queue_config()) {
    default_queue_config() = cfg;
  }
  ~ScopedQueueConfig() { default_queue_config() = saved_; }
  ScopedQueueConfig(const ScopedQueueConfig&) = delete;
  ScopedQueueConfig& operator=(const ScopedQueueConfig&) = delete;

 private:
  QueueConfig saved_;
};

class EventQueue {
 public:
  /// Pushes per level since construction (where each event was first
  /// placed; cascades and migrations are not counted).  Tooling only:
  /// not registry counters, never in a digest.
  struct LevelPushes {
    std::uint64_t fine = 0;
    std::uint64_t coarse = 0;
    std::uint64_t heap = 0;
  };

  explicit EventQueue(const QueueConfig& cfg);
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  std::uint32_t ring_ticks() const noexcept { return cfg_.ring_ticks; }

  /// Events currently in the fine ring plus the coarse wheel / in the
  /// far heap.
  std::size_t ring_size() const noexcept {
    return fine_count_ + coarse_count_;
  }
  std::size_t overflow_size() const noexcept { return heap_.size(); }
  /// Non-empty fine-ring buckets (the tracer's occupancy gauge).
  std::size_t occupied_buckets() const noexcept { return fine_.occupied; }

  const LevelPushes& pushes() const noexcept { return pushes_; }

  /// Enqueue. `t` must be >= the last popped time; `seq` strictly
  /// increasing across all pushes.
  void push(SimTime t, std::uint64_t seq, EventFn fn);

  /// Dequeue the (t, seq)-minimum into `t_out` / `fn_out`.  Returns
  /// false when empty.  Consecutive pops at one instant hit a cached
  /// bucket index — draining a same-timestamp batch never re-probes
  /// the bitmap, the wheel or the heap.
  bool pop(SimTime& t_out, EventFn& fn_out);

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Node {
    EventFn fn;
    SimTime t = 0;
    std::uint32_t next = kNil;
  };
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };
  /// A ring of FIFO node lists with a two-level occupancy bitmap (one
  /// bit per list, one summary bit per bitmap word).  Both the fine
  /// ring and the coarse wheel are one.
  struct Wheel {
    std::vector<Bucket> lists;
    std::vector<std::uint64_t> bits;
    std::vector<std::uint64_t> summary;
    std::size_t occupied = 0;

    void init(std::uint32_t n);
    void append(std::uint32_t i, std::uint32_t node,
                std::vector<Node>& pool) noexcept;
    void mark_empty(std::uint32_t i) noexcept;
    /// First non-empty list at or after `from` in rotated order; kNil
    /// when the wheel is empty.
    std::uint32_t find_first_from(std::uint32_t from) const noexcept;
  };
  struct HeapItem {
    SimTime t;
    std::uint64_t seq;
    std::uint32_t node;
  };

  std::uint32_t alloc_node(SimTime t, EventFn fn);
  void free_node(std::uint32_t idx) noexcept;
  /// File `node` (due at `t`, inside [anchor, anchor + 2 + coarse)) in
  /// the fine ring or the coarse wheel.
  void place(SimTime t, std::uint32_t node) noexcept;
  /// Move the anchor to `slot` (> anchor_): cascade, then migrate.
  void advance(std::uint64_t slot) noexcept;
  void heap_push(HeapItem item);
  HeapItem heap_pop() noexcept;

  QueueConfig cfg_;
  unsigned shift_ = 0;                // coarse slot = t >> shift_
  std::uint64_t fine_slots_ = 0;      // slots the fine ring covers (1 or 2)
  std::uint64_t coarse_slots_ = 0;    // slots the wheel covers (0 = none)
  std::uint32_t fine_mask_ = 0;       // ring_ticks - 1
  std::uint32_t coarse_mask_ = 0;     // coarse_slots_ - 1

  std::vector<Node> pool_;
  std::uint32_t free_head_ = kNil;
  Wheel fine_;
  Wheel coarse_;
  std::vector<HeapItem> heap_;

  std::uint64_t anchor_ = 0;  // coarse slot of the fine window's start
  std::size_t size_ = 0;
  std::size_t fine_count_ = 0;
  std::size_t coarse_count_ = 0;
  LevelPushes pushes_;
  // Cached bucket of the instant being drained (the batch fast path).
  std::uint32_t cur_bucket_ = kNil;
};

}  // namespace padico::core
