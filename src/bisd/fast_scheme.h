// The proposed diagnosis scheme (Sec. 3, Fig. 3).
//
// Serial delivery, parallel application, serial response analysis:
//  * before each March element the Data Background Generator serially
//    broadcasts the element's write pattern to every memory's SPC
//    (c clocks, MSB first — narrower memories keep DP[c'-1:0]);
//  * the address trigger then fires the local address generators, which
//    wrap around for smaller memories while the controller sweeps the
//    largest capacity;
//  * writes apply in parallel from the SPC (1 clock);
//  * reads capture into the PSC (1 clock) and shift back serially while the
//    memory idles (c clocks), so the shift path never crosses memory cells
//    and nothing masks anything — every fault is exposed in ONE run; a
//    memory without idle mode is instead read with data ignored on every
//    shift clock (Sec. 3.3);
//  * the comparator array checks each response bit against a golden-model
//    expectation that tracks the wrap-around read-modify-writes exactly
//    ("memory size information stored in the BISD controller");
//  * DRF diagnosis comes from the merged NWRTM ops at the cost of toggling
//    one global control line (Sec. 3.4).
//
// Cycle accounting is exact and closed-form; predicted_cycles() is the
// formula the simulation must (and does — see tests) match cycle for cycle.
// With the March CW solid phase it reduces to the paper's Eq. (2) first
// part: 5n + 5c + 5n(c+1).
//
// Execution: the word_parallel kernel advances each of
// SocUnderTest::slice_groups() as the lanes of one overlaid slab that owns
// one SPC, address generator and golden shadow; every other memory (and
// every memory under the per_cell reference kernel) is a port with its own
// SPC, PSC, generator and golden shadow.  Both kinds share one
// serialization loop that drains up to 64 shift clocks per word compare,
// performs each idle-less port's data-ignored reads at their exact clocks,
// and emits records clock-major, memories in index order within a clock.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "bisd/scheme.h"
#include "march/test.h"
#include "sram/timing.h"

namespace fastdiag::bisd {

struct FastSchemeOptions {
  sram::ClockDomain clock{10};

  /// Use March CW+NWRTM (DRF coverage, Sec. 3.4) instead of plain March CW.
  bool include_drf = true;

  /// Override the algorithm (must be as wide as the widest memory, keep
  /// one distinct write pattern per element and not mix normal and NWRC
  /// writes inside an element).
  std::optional<march::MarchTest> test;
};

class FastScheme final : public DiagnosisScheme {
 public:
  explicit FastScheme(FastSchemeOptions options = {});

  [[nodiscard]] std::string name() const override;
  DiagnosisResult diagnose(SocUnderTest& soc) override;

  /// The fast scheme's records are march-attributed, so its log feeds the
  /// syndrome classifier directly: the test is test_for_width(c_max).
  [[nodiscard]] std::optional<march::MarchTest> classification_test(
      std::uint32_t c_max) const override {
    return test_for_width(c_max);
  }

  /// Closed-form controller-cycle cost of running @p test over a SoC whose
  /// largest memory has @p n_max words and whose widest has @p c_max bits:
  /// per element, c_max for the pattern delivery (write elements only),
  /// 1 per write, 1 + c_max per read, plus 2 * c_max NWRTM toggles when the
  /// test contains NWRC ops.
  [[nodiscard]] static std::uint64_t predicted_cycles(
      const march::MarchTest& test, std::uint32_t n_max,
      std::uint32_t c_max);

  /// The March test a given configuration would run on a SoC of width c.
  /// Throws std::invalid_argument when an override test is not c bits wide.
  [[nodiscard]] march::MarchTest test_for_width(std::uint32_t c_max) const;

 private:
  FastSchemeOptions options_;
};

}  // namespace fastdiag::bisd
