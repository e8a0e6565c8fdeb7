// Deterministic virtual-time event engine.
//
// The engine owns a single totally-ordered event queue keyed by
// (timestamp, insertion sequence number).  Two events scheduled for the
// same instant run in the order they were scheduled, so a given program
// produces a bit-identical event trace on every run — the property all
// reproduction benchmarks rely on.  See DESIGN.md "Timing model".
//
// The queue is a three-level calendar queue (a fine ring of per-ns
// buckets, a coarse wheel of ~4 us slots spanning the WAN hop, and a
// heap only beyond that; see core/event_queue.hpp) with pooled,
// allocation-free event nodes, ~104 KiB per engine.  The seed's
// std::map queue lives on only as the ordering oracle of
// tests/test_event_queue.cpp.  See DESIGN.md "Engine internals".
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/bytes.hpp"
#include "core/event_queue.hpp"
#include "core/time.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace padico::core {

class Engine {
 public:
  /// Event closure: 48 bytes of inline capture, heap fallback beyond
  /// (see core/inplace_fn.hpp).  Move-only; copies in from lvalue
  /// callables like std::function did.
  using EventFn = core::EventFn;

  /// Default-constructed engines take the process-wide
  /// `default_queue_config()` — how tests and benches run engines
  /// built deep inside Grid/Scenario under another queue geometry.
  Engine() : Engine(default_queue_config()) {}
  explicit Engine(const QueueConfig& cfg) : queue_(cfg) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual instant.  Starts at 0.
  SimTime now() const noexcept { return now_; }

  /// Schedule `fn` at absolute instant `t`.  A timestamp in the past is
  /// clamped to `now()` (the event still runs after the current one).
  void schedule_at(SimTime t, EventFn fn);

  /// Schedule `fn` at `now() + d`.
  void schedule_after(Duration d, EventFn fn) { schedule_at(now_ + d, std::move(fn)); }

  /// Schedule `fn` at the current instant (after already-queued
  /// same-instant events).
  void post(EventFn fn) { schedule_at(now_, std::move(fn)); }

  /// True while at least one event is queued.
  bool pending() const noexcept { return !queue_.empty(); }

  std::size_t pending_count() const noexcept { return queue_.size(); }

  /// Total events dispatched since construction.
  std::uint64_t processed() const noexcept { return processed_; }

  /// The event queue itself (level occupancy, per-level push counts,
  /// configuration).
  const EventQueue& queue() const noexcept { return queue_; }

  /// Refresh the queue-shape gauges (`engine.ring`: fine ring plus
  /// coarse wheel entries, `engine.overflow`: heap entries,
  /// `engine.buckets`: occupied fine buckets) from the queue's state.
  /// The depth gauge `engine.pending` is maintained on every schedule;
  /// the shape gauges are snapshot-on-demand so the hot path stays lean.
  void publish_queue_gauges() noexcept;

  /// Pool of recycled `Bytes` buffers for frame-sized payloads — the
  /// simnet/vlink TX path acquires here and the RX path releases, so
  /// steady-state frame traffic stops allocating (see core/bytes.hpp).
  BytesPool& bytes_pool() noexcept { return bytes_pool_; }

  /// This engine's metrics registry — every layer above records its
  /// named counters/gauges/histograms here (virtual-time only, so the
  /// determinism digest is unaffected).
  obs::Registry& obs() noexcept { return obs_; }
  const obs::Registry& obs() const noexcept { return obs_; }

  /// This engine's span/instant tracer (off unless a categories mask
  /// is enabled; see obs/trace.hpp).
  obs::Tracer& tracer() noexcept { return tracer_; }
  const obs::Tracer& tracer() const noexcept { return tracer_; }

  /// Dispatch the earliest event, advancing `now()`.  Returns false if
  /// the queue was empty.
  bool step();

  /// Dispatch events until the queue is empty.  Returns the number of
  /// events dispatched.  Same-instant batches drain off the queue's
  /// cached bucket without re-probing the queue head.
  std::size_t run_until_idle();

  /// Dispatch events until `stop()` returns true or the queue drains,
  /// whichever comes first.  `stop` is evaluated before each event.
  /// Returns the number of events dispatched — counted off `step()`'s
  /// return value, so a dispatch that doesn't happen isn't counted.
  template <typename Pred>
  std::size_t run_while_pending(Pred&& stop) {
    std::size_t n = 0;
    while (pending() && !stop()) {
      if (!step()) break;
      ++n;
    }
    return n;
  }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  BytesPool bytes_pool_;
  obs::Registry obs_{&now_};
  obs::Tracer tracer_{&now_};
  obs::Counter* events_counter_ = &obs_.counter("engine.events");
  obs::Gauge* pending_gauge_ = &obs_.gauge("engine.pending");
  obs::Gauge* ring_gauge_ = &obs_.gauge("engine.ring");
  obs::Gauge* overflow_gauge_ = &obs_.gauge("engine.overflow");
  obs::Gauge* buckets_gauge_ = &obs_.gauge("engine.buckets");
};

}  // namespace padico::core
