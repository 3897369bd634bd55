// In-field periodic-scan scheme: detect and time-resolve soft errors while
// the memories sit in the system, modeled after the 55-nm event-wise
// soft-error monitor (errors scanned every 125 ns; PAPERS.md).
//
// The scheme writes a checkerboard reference image once at t = 0, then
// alternates idle time with scan sweeps: sweep k advances every memory's
// run clock to exactly (k+1) * scan_period_ns and checks every word of
// every memory against the golden image with the clocks frozen — a sweep
// is an instantaneous sample, so every detected upset attributes exactly to
// its sweep index (DiagnosisRecord::element carries the sweep).  Between
// the sample ticks the arrays idle and upsets accumulate.
//
// Sweeps are event-driven.  At each tick the scheme commits the events of
// every in-field memory without static fault sites and walks one visit
// list of (address, memory) slots in the controller's order: address, then
// memory.  Such a memory lists only its live rows
// (faults::SoftErrorBehavior::live_rows: an outstanding transient or
// check-column flip, or an intermittent pin inside its hold window).  Its
// other rows read back the golden image, so their slots are credited, not
// sensed.  Each credited read — and under periodic scrubbing its write-back,
// which ScanInfo::scrub_writes also counts — goes through Sram::credit_ops,
// and a memory whose last address was credited is left with the golden
// image in its sense latch, as that read would have left it.  A sweep adds
// its address cycles and its scrubs in one step; each record's cycle is the
// sweep's base + address + 1 + the scrubs issued before its slot (under
// periodic scrubbing, one per earlier slot).  Memories with static fault
// sites, and every memory under sram::AccessKernel::per_cell, list every
// address: that full sweep is the reference the differential tests hold
// the credits to.  Records, cycles, op counters, sense latches, ECC
// statistics and scrub counts come out identical either way;
// ScanInfo::rows_sensed counts the slots sensed.
//
// Scrubbing follows faults::ScrubPolicy: on_detect rewrites a word when the
// comparator flags it — or, with ECC, when the decoder reports correction
// activity on it even though the comparator saw a clean (corrected) word;
// periodic rewrites every word every sweep; none lets upsets accumulate.
//
// After diagnose(), scan_info() publishes the sweep geometry so the engine
// can score each injected upset: detected in which window vs escaped.
#pragma once

#include <cstdint>
#include <string>

#include "bisd/scheme.h"
#include "faults/soft_error.h"

namespace fastdiag::bisd {

struct PeriodicScanOptions {
  faults::SoftErrorSpec soft{};
};

class PeriodicScanScheme final : public DiagnosisScheme {
 public:
  explicit PeriodicScanScheme(PeriodicScanOptions options = {});

  [[nodiscard]] std::string name() const override;

  /// Runs the full in-field window.  DiagnosisResult::iterations is the
  /// sweep count; records carry the sweep index in `element`.
  DiagnosisResult diagnose(SocUnderTest& soc) override;

  [[nodiscard]] std::optional<ScanInfo> scan_info() const override;

 private:
  PeriodicScanOptions options_;
  ScanInfo info_{};
  bool ran_ = false;
};

}  // namespace fastdiag::bisd
