// obs::Tracer — span/instant tracing into a bounded ring buffer,
// exportable as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing) or as a stable text digest for tests.
//
// Determinism contract: events are stamped with VIRTUAL time only and
// recording never touches the engine, so enabling tracing cannot
// change a run's determinism digest, and two traced runs of the same
// program produce bit-identical trace digests.  Every record is gated
// on one enabled-categories mask; with the category off, an
// instrumentation point costs a load and a branch (obs::Scope
// constructs to nothing).
//
// Event names must outlive the tracer's export: use string literals,
// or `intern()` for dynamic names (personalities, network profiles).
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/time.hpp"
#include "obs/category.hpp"

namespace padico::obs {

enum class EventType : char {
  begin = 'B',     // span open (paired with `end` on the same track)
  end = 'E',       // span close
  instant = 'i',   // point event
  complete = 'X',  // span with an explicit duration
  count = 'C',     // sampled numeric series
};

struct TraceEvent {
  core::SimTime ts = 0;    // virtual nanoseconds
  core::Duration dur = 0;  // complete events only
  std::uint64_t arg = 0;   // free value (bytes, depth, ...)
  const char* name = "";
  Cat cat = Cat::engine;
  EventType type = EventType::instant;
  std::uint32_t track = 0;  // rendered as the Perfetto tid (node id)
  bool has_arg = false;
};

class TraceSink;

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  /// `clock` (may be null -> stamps 0) points at the owning engine's
  /// virtual `now`.  The constructor applies the process default mask
  /// (set_default_trace_mask) and registers a process-unique id used
  /// by TraceSink to keep engines apart in a combined export.
  explicit Tracer(const core::SimTime* clock = nullptr);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Flushes this tracer's events into the global sink, if installed.
  ~Tracer();

  void enable(std::uint32_t mask) noexcept { mask_ = mask; }
  std::uint32_t mask() const noexcept { return mask_; }
  bool enabled(Cat c) const noexcept { return (mask_ & bit(c)) != 0; }

  /// Ring bound (events, not bytes).  Shrinking drops oldest events.
  void set_capacity(std::size_t cap);
  std::size_t capacity() const noexcept { return capacity_; }

  /// Copy `s` into this tracer's stable string store and return the
  /// canonical pointer (same pointer for the same string).
  const char* intern(std::string_view s);

  void begin(Cat c, const char* name, std::uint32_t track = 0) {
    if (enabled(c)) record({now(), 0, 0, name, c, EventType::begin, track});
  }
  void end(Cat c, const char* name, std::uint32_t track = 0) {
    if (enabled(c)) record({now(), 0, 0, name, c, EventType::end, track});
  }
  void instant(Cat c, const char* name, std::uint32_t track = 0) {
    if (enabled(c)) record({now(), 0, 0, name, c, EventType::instant, track});
  }
  void instant_arg(Cat c, const char* name, std::uint64_t arg,
                   std::uint32_t track = 0) {
    if (enabled(c)) {
      record({now(), 0, arg, name, c, EventType::instant, track, true});
    }
  }
  /// Span with an explicit start and duration — the shape the layers
  /// use when the model knows how long the work takes (wire occupancy,
  /// dispatch cost, CPU charge).
  void complete(Cat c, const char* name, core::SimTime ts, core::Duration dur,
                std::uint32_t track = 0, std::uint64_t arg = 0) {
    if (enabled(c)) {
      record({ts, dur, arg, name, c, EventType::complete, track, true});
    }
  }
  void count(Cat c, const char* name, std::uint64_t value,
             std::uint32_t track = 0) {
    if (enabled(c)) {
      record({now(), 0, value, name, c, EventType::count, track, true});
    }
  }

  std::size_t size() const noexcept { return buffer_.size(); }
  std::uint64_t dropped() const noexcept { return dropped_; }
  void clear();

  /// Events oldest-first (unwraps the ring).
  std::vector<TraceEvent> events() const;

  /// Chrome trace-event JSON ("traceEvents" array form); `pid` labels
  /// this engine in a combined view.
  std::string chrome_json(std::uint32_t pid = 0) const;

  /// Stable one-line-per-event text form.  Excludes the process-unique
  /// id, so two identical runs digest identically.
  std::string digest() const;

  /// Process-unique engine index (construction order).
  std::uint32_t pid() const noexcept { return pid_; }

 private:
  core::SimTime now() const noexcept { return clock_ ? *clock_ : 0; }
  void record(TraceEvent ev);

  const core::SimTime* clock_;
  std::uint32_t mask_ = 0;
  std::uint32_t pid_ = 0;
  std::size_t capacity_ = kDefaultCapacity;
  std::size_t head_ = 0;  // oldest event when the ring has wrapped
  std::uint64_t dropped_ = 0;
  std::vector<TraceEvent> buffer_;
  std::set<std::string, std::less<>> interned_;
};

/// RAII span: opens on construction when the category is enabled,
/// closes on destruction.  When the category is off this is a single
/// branch on the tracer's mask.
class Scope {
 public:
  Scope(Tracer& tracer, Cat c, const char* name, std::uint32_t track = 0) {
    if (tracer.enabled(c)) {
      tracer_ = &tracer;
      cat_ = c;
      name_ = name;
      track_ = track;
      tracer.begin(c, name, track);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(cat_, name_, track_);
  }

 private:
  Tracer* tracer_ = nullptr;
  Cat cat_ = Cat::engine;
  const char* name_ = "";
  std::uint32_t track_ = 0;
};

/// Mask newly constructed tracers start with (0 = tracing off).  Lets
/// a bench or test enable tracing for every engine it will create
/// without threading a flag through the stack.
void set_default_trace_mask(std::uint32_t mask) noexcept;
std::uint32_t default_trace_mask() noexcept;

/// Collects the events of every Tracer destroyed while installed —
/// the piece that turns "one engine per measurement" benches into one
/// combined Perfetto file.  Event names are re-interned into the sink,
/// so it outlives the tracers it absorbed.
class TraceSink {
 public:
  void absorb(const Tracer& tracer);
  std::size_t size() const noexcept { return events_.size(); }
  bool empty() const noexcept { return events_.empty(); }
  void clear();

  /// Combined Chrome trace-event JSON; events keep their source
  /// engine's pid.
  std::string chrome_json() const;

 private:
  struct Entry {
    std::uint32_t pid;
    TraceEvent ev;
  };
  std::vector<Entry> events_;
  std::set<std::string, std::less<>> interned_;
};

/// Install (or clear, with nullptr) the process-global sink.
void set_global_trace_sink(TraceSink* sink) noexcept;
TraceSink* global_trace_sink() noexcept;

}  // namespace padico::obs
