#include "spans.hpp"

#include <ostream>
#include <stdexcept>

namespace perfbench {

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name)
    : recorder_(recorder),
      index_(static_cast<std::int32_t>(recorder.spans_.size())) {
  Span span;
  span.name = name;
  span.parent = recorder.open_.empty() ? -1 : recorder.open_.back();
  recorder.spans_.push_back(span);
  recorder.open_.push_back(index_);
  // Read the clock last, so the bookkeeping above is not charged to the span.
  recorder.spans_[static_cast<std::size_t>(index_)].start_ns =
      recorder.now_ns();
}

SpanRecorder::Scope::~Scope() {
  recorder_.spans_[static_cast<std::size_t>(index_)].end_ns =
      recorder_.now_ns();
  recorder_.open_.pop_back();
}

std::int64_t SpanRecorder::now_ns() const noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::map<std::string, double> SpanRecorder::total_seconds() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += s.seconds();
  return out;
}

std::map<std::string, double> SpanRecorder::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].seconds();
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.seconds();
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += self[i];
  }
  return out;
}

void SpanRecorder::write_chrome_trace(std::ostream& out) const {
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
        << "\"tid\": 1, \"ts\": " << static_cast<double>(s.start_ns) / 1e3
        << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("span trace: write failed");
}

}  // namespace perfbench
