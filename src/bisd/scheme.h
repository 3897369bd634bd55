// Common interface of the two diagnosis architectures.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "bisd/record.h"
#include "bisd/soc.h"
#include "march/test.h"
#include "sram/timing.h"

namespace fastdiag::bisd {

struct DiagnosisResult {
  DiagnosisLog log;
  sram::CycleCounter time;

  /// Diagnostic-block iterations (the paper's k).  1 for the fast scheme —
  /// the SPC/PSC path exposes every fault in a single algorithm run.
  std::uint64_t iterations = 1;

  [[nodiscard]] std::uint64_t total_ns(const sram::ClockDomain& clock) const {
    return time.total_ns(clock);
  }
};

/// Timing geometry of an in-field scanning scheme's sweeps, published after
/// diagnose() so the engine can time-resolve each injected upset to the scan
/// window that should have caught it.
struct ScanInfo {
  /// Sweep k (0-based) samples the arrays at exactly (k+1) * period_ns.
  std::uint64_t period_ns = 0;
  std::uint64_t sweep_count = 0;
  /// Scrub write-backs issued across the whole run.
  std::uint64_t scrub_writes = 0;
  /// Reads the sweeps actually performed, one per (sweep, address, memory)
  /// slot sensed; every other slot was credited.  A work counter, never
  /// serialized.
  std::uint64_t rows_sensed = 0;

  /// The sweep that first observes an upset at @p time_ns: sweeps sample
  /// instantaneously at their tick, so an event at t belongs to the first
  /// tick >= t.  Returns sweep_count for events after the final tick.
  [[nodiscard]] std::uint64_t window_of(std::uint64_t time_ns) const {
    if (period_ns == 0) return sweep_count;
    if (time_ns == 0) return 0;
    const std::uint64_t window = (time_ns - 1) / period_ns;
    return window < sweep_count ? window : sweep_count;
  }
};

class DiagnosisScheme {
 public:
  virtual ~DiagnosisScheme() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// In-field scanning schemes report their sweep geometry here after
  /// diagnose(); manufacturing-time schemes return nullopt.
  [[nodiscard]] virtual std::optional<ScanInfo> scan_info() const {
    return std::nullopt;
  }

  /// Runs the full diagnosis over @p soc and returns the fault log plus the
  /// consumed time.  Mutates the memories (patterns are really written; the
  /// baseline additionally repairs located rows to make progress).
  virtual DiagnosisResult diagnose(SocUnderTest& soc) = 0;

  /// The March test whose (phase, element, op) indices this scheme's log
  /// records refer to, for a SoC whose widest memory has @p c_max bits.
  /// Schemes whose records are not march-attributed (the pass-based
  /// baseline) return nullopt — their logs locate faults but cannot feed
  /// the syndrome classifier.
  [[nodiscard]] virtual std::optional<march::MarchTest> classification_test(
      std::uint32_t c_max) const {
    (void)c_max;
    return std::nullopt;
  }
};

}  // namespace fastdiag::bisd
