#include "trace.h"

#include <cstdio>

#include "util/json.h"

namespace perfbench {

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t run)
    : tracer_(tracer), index_(tracer.spans_.size()) {
  Span span;
  span.name = name;
  span.run = run;
  span.parent = tracer.open_.empty()
                    ? -1
                    : static_cast<std::int64_t>(tracer.open_.back());
  tracer.spans_.push_back(span);
  tracer.open_.push_back(index_);
  // Last, so the bookkeeping above stays outside the span.
  tracer.spans_[index_].start_ns = tracer.now_ns();
}

Tracer::Scope::~Scope() {
  tracer_.spans_[index_].end_ns = tracer_.now_ns();
  tracer_.open_.pop_back();
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

double Tracer::total_ms(const std::string& name) const {
  std::int64_t total = 0;
  for (const Span& span : spans_) {
    if (name == span.name) {
      total += span.end_ns - span.start_ns;
    }
  }
  return static_cast<double>(total) / 1e6;
}

std::size_t Tracer::count(const std::string& name) const {
  std::size_t n = 0;
  for (const Span& span : spans_) {
    n += name == span.name ? 1 : 0;
  }
  return n;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string name = spans_[i].name;
    by_layer[name.substr(0, name.find('.'))] +=
        static_cast<double>(self[i]) / 1e6;
  }
  return by_layer;
}

double Tracer::root_ms() const {
  std::int64_t total = 0;
  for (const Span& span : spans_) {
    if (span.parent < 0) {
      total += span.end_ns - span.start_ns;
    }
  }
  return static_cast<double>(total) / 1e6;
}

bool Tracer::well_nested() const {
  std::int64_t previous_root_end = 0;
  for (const Span& span : spans_) {
    if (span.end_ns < span.start_ns) {
      return false;
    }
    if (span.parent < 0) {
      if (span.start_ns < previous_root_end) {
        return false;
      }
      previous_root_end = span.end_ns;
      continue;
    }
    const Span& parent = spans_[static_cast<std::size_t>(span.parent)];
    if (span.start_ns < parent.start_ns || span.end_ns > parent.end_ns) {
      return false;
    }
  }
  return true;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::fputs("{\"traceEvents\":[", file);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const auto args = fastdiag::util::JsonObject()
                          .field("span", static_cast<std::uint64_t>(i))
                          .field("parent", static_cast<int>(span.parent))
                          .field("run", span.run);
    std::fprintf(file,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":%s}",
                 i == 0 ? "" : ",", span.name,
                 static_cast<double>(span.start_ns) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 args.str().c_str());
  }
  std::fputs("\n]}\n", file);
  return std::fclose(file) == 0;
}

}  // namespace perfbench
