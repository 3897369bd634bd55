// Random defect injection reproducing the paper's manufacturing model.
//
// The case study (Sec. 4.2) assumes 1 % of the cells are defective, the four
// logic defect classes of [8] occur with equal likelihood, and the benchmark
// e-SRAM carries at most 256 faults.  The injector turns a defect *rate*
// into a defect population (distinct sites, classes drawn per the weights)
// and translates every defect into a functional fault instance.
#pragma once

#include <cstdint>
#include <vector>

#include "faults/defect.h"
#include "faults/fault.h"
#include "sram/config.h"
#include "util/rng.h"

namespace fastdiag::faults {

/// Two defective cells manifest as one observable fault on average in the
/// paper's accounting (512 defective cells -> "at most 256 faults"); this
/// divisor reproduces that bookkeeping.
inline constexpr std::uint32_t kCellsPerFault = 2;

struct InjectionSpec {
  /// Fraction of cells hit by a defect.  The paper's case study uses 0.01.
  double cell_defect_rate = 0.01;

  /// Also inject open-pull-up defects (DRFs)?  Baseline-vs-baseline
  /// comparisons without retention coverage set this to false.
  bool include_retention = false;

  /// Fraction of *additional* faults that are DRFs when
  /// include_retention is true.
  double retention_fraction = 0.1;
};

struct InjectionResult {
  std::vector<Defect> defects;
  std::vector<FaultInstance> faults;
};

/// Draws the defect population for @p config under @p spec using @p rng.
/// Fault sites are distinct cells; decoder defects are keyed by row.
[[nodiscard]] InjectionResult inject(const sram::SramConfig& config,
                                     const InjectionSpec& spec, Rng& rng);

/// Number of logic faults the spec yields for @p config
/// (= cells * rate / kCellsPerFault, at least 1 when rate > 0).
[[nodiscard]] std::uint64_t expected_fault_count(
    const sram::SramConfig& config, const InjectionSpec& spec);

}  // namespace fastdiag::faults
