#include "core/event_queue.hpp"

#include <algorithm>
#include <bit>

namespace padico::core {

QueueConfig& default_queue_config() noexcept {
  static QueueConfig cfg;
  return cfg;
}

void EventQueue::Wheel::init(std::uint32_t n) {
  lists.resize(n);
  bits.assign((n + 63) / 64, 0);
  summary.assign((bits.size() + 63) / 64, 0);
}

void EventQueue::Wheel::append(std::uint32_t i, std::uint32_t node,
                               std::vector<Node>& pool) noexcept {
  Bucket& bk = lists[i];
  if (bk.head == kNil) {
    bk.head = bk.tail = node;
    bits[i >> 6] |= std::uint64_t{1} << (i & 63);
    summary[i >> 12] |= std::uint64_t{1} << ((i >> 6) & 63);
    ++occupied;
  } else {
    pool[bk.tail].next = node;
    bk.tail = node;
  }
}

void EventQueue::Wheel::mark_empty(std::uint32_t i) noexcept {
  lists[i] = Bucket{};
  std::uint64_t& w = bits[i >> 6];
  w &= ~(std::uint64_t{1} << (i & 63));
  if (w == 0) {
    summary[i >> 12] &= ~(std::uint64_t{1} << ((i >> 6) & 63));
  }
  --occupied;
}

std::uint32_t EventQueue::Wheel::find_first_from(
    std::uint32_t from) const noexcept {
  // The covered window maps bijectively onto list indices; index order
  // starting at `from` and wrapping is exactly increasing-time order,
  // so the first set bit in rotated order is the earliest pending list.
  std::uint32_t w = from >> 6;
  const std::uint64_t first = bits[w] & (~std::uint64_t{0} << (from & 63));
  if (first != 0) {
    return (w << 6) + static_cast<std::uint32_t>(std::countr_zero(first));
  }
  // Walk whole words circularly via the summary bitmap; word `w` may
  // legitimately come round again (its low bits are the window's
  // latest lists).
  const std::uint32_t nsw = static_cast<std::uint32_t>(summary.size());
  std::uint32_t start = (w + 1 == bits.size()) ? 0 : w + 1;
  std::uint32_t sw = start >> 6;
  std::uint64_t s = summary[sw] & (~std::uint64_t{0} << (start & 63));
  for (std::uint32_t i = 0; i <= nsw; ++i) {
    if (s != 0) {
      const std::uint32_t word =
          (sw << 6) + static_cast<std::uint32_t>(std::countr_zero(s));
      return (word << 6) +
             static_cast<std::uint32_t>(std::countr_zero(bits[word]));
    }
    sw = (sw + 1 == nsw) ? 0 : sw + 1;
    s = summary[sw];
  }
  return kNil;
}

EventQueue::EventQueue(const QueueConfig& cfg) : cfg_(cfg) {
  const std::uint32_t n =
      std::bit_ceil(std::max<std::uint32_t>(cfg_.ring_ticks, 1));
  cfg_.ring_ticks = n;
  fine_mask_ = n - 1;
  // n = 2^(s+1): the ring holds two slots of 2^s ticks and the wheel
  // 2^s slots.  n = 1 keeps one one-tick slot and no wheel.
  shift_ = n > 1 ? static_cast<unsigned>(std::countr_zero(n)) - 1 : 0;
  fine_slots_ = n >> shift_;
  coarse_slots_ = n > 1 ? n / 2 : 0;
  coarse_mask_ = n > 1 ? n / 2 - 1 : 0;
  fine_.init(n);
  coarse_.init(static_cast<std::uint32_t>(coarse_slots_));
  pool_.reserve(64);
  heap_.reserve(64);
}

std::uint32_t EventQueue::alloc_node(SimTime t, EventFn fn) {
  std::uint32_t idx;
  if (free_head_ != kNil) {
    idx = free_head_;
    Node& n = pool_[idx];
    free_head_ = n.next;
    n.fn = std::move(fn);
    n.t = t;
    n.next = kNil;
  } else {
    idx = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(Node{std::move(fn), t, kNil});
  }
  return idx;
}

void EventQueue::free_node(std::uint32_t idx) noexcept {
  Node& n = pool_[idx];
  n.fn.reset();  // drop closure resources now, not at next reuse
  n.next = free_head_;
  free_head_ = idx;
}

void EventQueue::place(SimTime t, std::uint32_t node) noexcept {
  if ((t >> shift_) - anchor_ < fine_slots_) {
    fine_.append(static_cast<std::uint32_t>(t) & fine_mask_, node, pool_);
    ++fine_count_;
  } else {
    coarse_.append(static_cast<std::uint32_t>(t >> shift_) & coarse_mask_,
                   node, pool_);
    ++coarse_count_;
  }
}

void EventQueue::heap_push(HeapItem item) {
  heap_.push_back(item);
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const HeapItem& a, const HeapItem& b) {
                   return a.t > b.t || (a.t == b.t && a.seq > b.seq);
                 });
}

EventQueue::HeapItem EventQueue::heap_pop() noexcept {
  std::pop_heap(heap_.begin(), heap_.end(),
                [](const HeapItem& a, const HeapItem& b) {
                  return a.t > b.t || (a.t == b.t && a.seq > b.seq);
                });
  const HeapItem item = heap_.back();
  heap_.pop_back();
  return item;
}

void EventQueue::advance(std::uint64_t slot) noexcept {
  // Only called once every fine entry before `slot` has popped, and
  // the wheel holds nothing before the first slot it cascades, so the
  // buckets and wheel lists the new range reuses are all empty.
  const std::uint64_t old_coarse_end = anchor_ + fine_slots_ + coarse_slots_;
  std::uint64_t s = std::max(slot, anchor_ + fine_slots_);
  anchor_ = slot;
  // 1. Cascade the newly fine-covered slots the wheel held, each list
  //    in its FIFO order.
  for (; s < slot + fine_slots_ && s < old_coarse_end; ++s) {
    const std::uint32_t w = static_cast<std::uint32_t>(s) & coarse_mask_;
    std::uint32_t node = coarse_.lists[w].head;
    if (node == kNil) continue;
    coarse_.mark_empty(w);
    while (node != kNil) {
      const std::uint32_t next = pool_[node].next;
      pool_[node].next = kNil;
      fine_.append(static_cast<std::uint32_t>(pool_[node].t) & fine_mask_,
                   node, pool_);
      --coarse_count_;
      ++fine_count_;
      node = next;
    }
  }
  // 2. Migrate the heap entries the range now covers.  Heap pops come
  //    out in (t, seq) order, so same-tick entries land FIFO — and
  //    before any later push can target their tick.
  const std::uint64_t end = slot + fine_slots_ + coarse_slots_;
  while (!heap_.empty() && (heap_.front().t >> shift_) < end) {
    const HeapItem item = heap_pop();
    place(item.t, item.node);
  }
}

void EventQueue::push(SimTime t, std::uint64_t seq, EventFn fn) {
  ++size_;
  const std::uint32_t node = alloc_node(t, std::move(fn));
  const std::uint64_t ahead = (t >> shift_) - anchor_;
  if (ahead < fine_slots_ + coarse_slots_) {
    place(t, node);
    ++(ahead < fine_slots_ ? pushes_.fine : pushes_.coarse);
  } else {
    heap_push(HeapItem{t, seq, node});
    ++pushes_.heap;
  }
}

bool EventQueue::pop(SimTime& t_out, EventFn& fn_out) {
  if (size_ == 0) return false;

  std::uint32_t bucket = cur_bucket_;
  if (bucket == kNil) {
    if (fine_count_ == 0) {
      // Fine ring drained: jump the anchor to the earliest wheel slot,
      // else to the heap top (every heap entry lies beyond the wheel).
      std::uint64_t slot;
      if (coarse_count_ > 0) {
        const std::uint32_t from =
            static_cast<std::uint32_t>(anchor_ + fine_slots_) & coarse_mask_;
        const std::uint32_t w = coarse_.find_first_from(from);
        slot = anchor_ + fine_slots_ + ((w - from) & coarse_mask_);
      } else {
        slot = heap_.front().t >> shift_;
      }
      advance(slot);
    }
    bucket = fine_.find_first_from(
        static_cast<std::uint32_t>(anchor_ << shift_) & fine_mask_);
  }

  Bucket& bk = fine_.lists[bucket];
  const std::uint32_t node = bk.head;
  Node& n = pool_[node];
  t_out = n.t;
  fn_out = std::move(n.fn);
  if (n.next == kNil) {
    fine_.mark_empty(bucket);
    cur_bucket_ = kNil;
  } else {
    bk.head = n.next;
    cur_bucket_ = bucket;
  }
  free_node(node);
  --size_;
  --fine_count_;
  // Popping the ring's second slot moves the window up one slot; the
  // cascade and migration touch neither this tick nor its bucket.
  if ((t_out >> shift_) != anchor_) advance(t_out >> shift_);
  return true;
}

}  // namespace padico::core
