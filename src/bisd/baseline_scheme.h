// The prior-art diagnosis architecture of Huang/Jone ([7, 8], Fig. 1):
// a shared BISD controller driving every e-SRAM through its bi-directional
// serial interface with the DiagRSMarch algorithm.
//
// Refs [7, 8] are not reproduced in the paper, so DiagRSMarch is
// *reconstructed to be complexity-faithful to Eq. (1)*:
//
//   T = (17 + 9 k) * n * c * t      (+ DRF block, Eq. (4))
//
//  * a base part of 17 serial passes (init, marching pairs and checkerboard
//    pairs in both shift directions), run once;
//  * a diagnostic M1 block of 9 serial passes, iterated;
//  * every pass costs n*c controller clocks (pass = one serialized March
//    element, Fig. 2).
//
// Because responses stream *through* the memory cells, each pass can locate
// at most the first faulty cell from its exit end; an M1 iteration (both
// directions) therefore registers at most TWO new faults (Sec. 1/2 — this
// is exactly the defect-rate-dependent behaviour the paper criticises).
// Located rows are repaired from the backup memory so the next iteration
// can see past them; the loop ends when an iteration finds nothing new, and
// the iteration count is the measured k.
//
// With include_drf, each iteration appends the delay-based retention block:
// (w0/r0) and (w1/r1) pass pairs in both directions (8 passes — Eq. (4)'s
// 8k term) with a 100 ms pause per polarity.  The paper charges the 200 ms
// only once; this simulation pauses every iteration (physically required),
// and analysis::TimeModel provides both accountings.
#pragma once

#include <cstdint>
#include <string>

#include "bisd/scheme.h"

namespace fastdiag::bisd {

struct BaselineSchemeOptions {
  sram::ClockDomain clock{10};

  /// Append the delay-based DRF block to every iteration.
  bool include_drf = false;
};

class BaselineScheme final : public DiagnosisScheme {
 public:
  explicit BaselineScheme(BaselineSchemeOptions options = {});

  [[nodiscard]] std::string name() const override;

  /// Runs the iterative diagnosis.  DiagnosisResult::iterations is the
  /// measured k of Eq. (1).
  DiagnosisResult diagnose(SocUnderTest& soc) override;

  /// Serial passes per M1 iteration (9, plus 8 when include_drf).
  [[nodiscard]] std::uint64_t passes_per_iteration() const;

  /// Serial passes in the one-time base part (17).
  [[nodiscard]] static std::uint64_t base_pass_count() { return 17; }

 private:
  BaselineSchemeOptions options_;
};

}  // namespace fastdiag::bisd
