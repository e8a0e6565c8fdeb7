// Host-time spans for the traced benchmark run.
//
// A span is a name, a start and end on the steady clock, and the span
// that was open when it began (its parent).  Spans live in memory and
// are written out once, at exit.  Recording is off when no SpanLog is
// given: ScopedSpan with a null log reads no clock, so the untraced
// and traced runs execute the same program code.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
std::int64_t now_ns();

struct Span {
  const char* name;  // string literal
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  // index of the parent span in its log, -1 for a root
};

/// Per-name totals: calls, summed duration, and summed self time
/// (duration minus the time its child spans cover).
struct SpanTotals {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

using TotalsByName = std::map<std::string, SpanTotals>;

class SpanLog {
 public:
  std::int32_t begin(const char* name);
  void end(std::int32_t id);

  /// Totals per span name over every closed span.
  TotalsByName totals() const;

  /// Add totals() into `into`, then forget every span.  Traced runs
  /// call this before each traced repetition, so the spans written out
  /// at exit are those of the last one while the totals cover all.
  void fold_into(TotalsByName& into);

  /// One JSON object per line: id, parent, name, start_ns, end_ns.
  /// Returns false if the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a no-op when `log` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->begin(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::int32_t id_;
};

/// Call `f` inside a span named `name`; returns what `f` returns.
template <typename F>
auto timed(SpanLog* log, const char* name, F&& f) {
  ScopedSpan span(log, name);
  return f();
}

}  // namespace perfbench
