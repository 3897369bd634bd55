// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own files, around the public
// calls it makes into each fastdiag layer: name ("layer.step"), start, end,
// parent span and run id.  The traced phase is single-threaded, so nesting
// follows one explicit stack.  Nothing is written while the phase runs;
// write_chrome_trace() dumps the spans once the benchmark ends, in Chrome
// trace-event JSON that opens offline in Perfetto.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";  ///< static "layer.step" string
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index into spans(), -1 for a root
    std::uint64_t run = 0;
  };

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t run);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  Tracer() : origin_(Clock::now()) {}

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration and count of the spans named @p name.
  [[nodiscard]] double total_ms(const std::string& name) const;
  [[nodiscard]] std::size_t count(const std::string& name) const;

  /// Self time (duration minus the time direct children cover) summed per
  /// layer, the part of a span name before the first '.'.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;

  /// Summed duration of every root span.
  [[nodiscard]] double root_ms() const;

  /// False when a child leaves its parent's interval or two roots overlap —
  /// the conditions under which self times would not add up to the wall.
  [[nodiscard]] bool well_nested() const;

  /// Writes every span as a Chrome trace-event "X" record; false on I/O
  /// error.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace perfbench
