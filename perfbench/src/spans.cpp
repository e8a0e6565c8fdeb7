#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t SpanLog::begin(const char* name) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, now_ns(), -1, open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return id;
}

void SpanLog::end(std::int32_t id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("SpanLog::end: spans must close innermost first");
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

TotalsByName SpanLog::totals() const {
  // Children close before their parent, so one pass in index order
  // sees every child's duration before the parent's self time is read.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.end_ns < 0 || s.parent < 0) continue;
    child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  TotalsByName out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    SpanTotals& t = out[s.name];
    ++t.calls;
    t.total_ns += s.end_ns - s.start_ns;
    t.self_ns += s.end_ns - s.start_ns - child_ns[i];
  }
  return out;
}

void SpanLog::fold_into(TotalsByName& into) {
  for (const auto& [name, t] : totals()) {
    SpanTotals& acc = into[name];
    acc.calls += t.calls;
    acc.total_ns += t.total_ns;
    acc.self_ns += t.self_ns;
  }
  spans_.clear();
  open_.clear();
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                 i, s.parent, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
