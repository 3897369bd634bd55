// The benchmark's four workloads.  Why each exists, and which end-to-end
// metric each layer metric should move on it, is recorded in
// perfbench/README.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common.h"
#include "core/errors.h"
#include "core/expected.h"
#include "core/spec.h"

namespace perfbench {

/// A workload driven through DiagnosisEngine::run_stream.
struct EngineWorkload {
  const char* name = "";
  /// Spec of run @p index of seed stream @p stream for workload seed @p seed.
  fastdiag::core::Expected<fastdiag::core::SessionSpec,
                           fastdiag::core::ConfigError> (*spec)(
      std::uint64_t seed, std::uint64_t stream, std::uint64_t index) = nullptr;
  /// Runs at the head of the stream the model outputs and digests cover;
  /// the timed phase always completes at least these.
  std::size_t model_prefix = 0;
  /// Streamed runs re-executed serially after the timed phase and compared
  /// byte for byte with what the stream delivered.
  std::size_t verify_samples = 0;
};

/// fleet_1pct, classify_wrap or infield_scan; nullptr for other names.
[[nodiscard]] const EngineWorkload* find_engine_workload(
    const std::string& name);

/// Worker threads of the engine workloads: min(4, nproc).
[[nodiscard]] std::size_t engine_workers();

[[nodiscard]] Result run_engine_workload(const EngineWorkload& workload,
                                         const Options& options);

/// diagd_jobs: an in-process JobServer behind the real frame path.
[[nodiscard]] Result run_diagd_workload(const Options& options);

}  // namespace perfbench
