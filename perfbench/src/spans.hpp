// In-memory wall-clock spans for the traced run.
//
// Each span holds a name, a start, an end and the index of its parent (the
// span open when it began). Spans are recorded from the benchmark's own
// files around calls into the library's public functions; nothing inside
// the library is instrumented. They stay in memory until the run ends,
// when write_chrome_trace() can dump them.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";   ///< static string: a layer call's name
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class SpanRecorder {
 public:
  /// RAII guard: opens a span on construction, closes it on destruction.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    std::int32_t index_;
  };

  [[nodiscard]] Scope scope(const char* name) { return Scope(*this, name); }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Sum of span durations per name, in seconds.
  [[nodiscard]] std::map<std::string, double> total_seconds() const;

  /// Sum of self times per name: each span's duration minus the part its
  /// direct children cover.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Chrome trace-event JSON ("X" events, microseconds), loadable in
  /// chrome://tracing or Perfetto.
  void write_chrome_trace(std::ostream& out) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const noexcept;

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  ///< stack of open span indices
};

}  // namespace perfbench
