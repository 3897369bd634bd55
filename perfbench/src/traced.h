// The traced phase shared by every workload: each run goes through the
// traced replica (root span "core.run") and through DiagnosisEngine::execute
// itself (root span "ref.execute"), both reports are encoded and compared
// byte for byte, and the replica's report is folded.  The two paths keep
// separate classifier caches that see the same runs, so each is as warm as
// the other.
//
// finish() turns the spans and counters into the per-layer metrics.  Times
// are host time, means per traced run unless named otherwise.  The layer
// self times, the reference executes ("ref") and the unattributed remainder
// (loop and spec-generation time outside every span) add up to the traced
// wall time, and the run fails its checks when they do not.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/report.h"
#include "core/spec.h"
#include "diagnosis/classifier.h"
#include "replica.h"
#include "trace.h"

namespace perfbench {

/// Server-side figures of the untraced diagd phase; zero elsewhere.
struct ServiceFigures {
  double server_job_ms = 0.0;
  double overhead_ms = 0.0;  ///< mean client latency - server_job_ms
};

class TracedPhase {
 public:
  /// @p warm_cache, when non-empty, is an "FDCC" blob both caches import
  /// before the phase starts (the diagd server's warm cache).
  explicit TracedPhase(const std::vector<std::uint8_t>& warm_cache = {});

  [[nodiscard]] Tracer& tracer() { return tracer_; }

  /// One traced run of @p spec (run id @p run).  Returns the replica's
  /// encoded report.
  std::vector<std::uint8_t> run(const fastdiag::core::SessionSpec& spec,
                                std::uint64_t run, Result& result);

  /// Adds every per-layer metric to @p result.  @p wall_ms is the traced
  /// phase's wall time; @p untraced_runs_per_s and @p workers come from the
  /// untraced phase of the same process.  Writes the spans to
  /// @p trace_path unless it is empty.
  void finish(Result& result, double wall_ms, double untraced_runs_per_s,
              std::size_t workers, const ServiceFigures& service,
              const std::string& trace_path) const;

 private:
  Tracer tracer_;
  fastdiag::diagnosis::ClassifierCache replica_cache_;
  fastdiag::diagnosis::ClassifierCache reference_cache_;
  fastdiag::diagnosis::CacheStats start_stats_;
  LayerCounters counters_;
  fastdiag::core::AggregateReport::Folded folded_;
  std::uint64_t report_bytes_ = 0;
};

}  // namespace perfbench
