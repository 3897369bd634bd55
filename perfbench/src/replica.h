// The traced replica of core::DiagnosisEngine::execute.
//
// It rebuilds one run from the same public calls execute() makes, in the
// same order — from_injection, SchemeRegistry::make, diagnose,
// match_diagnosis, the soft-error scoring, extract_syndromes, classify_soc,
// plan_repair/apply_repair and the retest diagnose — with a span around
// each.  The traced run compares service::encode_report of the replica
// with that of execute() for the same spec and counts every difference as
// a failure, so the per-layer numbers always describe the program that the
// untraced runs time.
#pragma once

#include <cstdint>

#include "core/report.h"
#include "core/spec.h"
#include "diagnosis/classifier.h"
#include "trace.h"

namespace perfbench {

/// Deterministic work counters summed over the traced runs.
struct LayerCounters {
  std::uint64_t runs = 0;
  std::uint64_t memories = 0;
  std::uint64_t sliced_memories = 0;  ///< members of slice_groups()
  std::uint64_t injected = 0;         ///< static faults
  std::uint64_t upsets = 0;           ///< soft-error events
  std::uint64_t records = 0;          ///< first diagnose's log records
  std::uint64_t sim_cycles = 0;       ///< first diagnose's controller cycles
  std::uint64_t ops = 0;              ///< reads + writes + NWRC writes
  std::uint64_t scan_sweeps = 0;
  std::uint64_t scrub_writes = 0;
  std::uint64_t ecc_corrected = 0;
  std::uint64_t ecc_miscorrected = 0;
  std::uint64_t sites = 0;             ///< classification sites
  std::uint64_t classified_sites = 0;  ///< sites with a hypothesis
};

/// Executes @p spec like DiagnosisEngine::execute(spec, global, &cache),
/// recording one "core.run" root span (run id @p run) with a child span per
/// step, and adds the run's counters to @p counters.
[[nodiscard]] fastdiag::core::Report traced_execute(
    const fastdiag::core::SessionSpec& spec,
    fastdiag::diagnosis::ClassifierCache& cache, Tracer& tracer,
    std::uint64_t run, LayerCounters& counters);

}  // namespace perfbench
