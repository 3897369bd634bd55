// Scoring diagnosed fault locations against the injected ground truth.
//
// A diagnosis scheme reports *cells* (failure address + bit, Sec. 3.1); the
// dictionary decides which injected faults those cells explain.  A fault is
// "diagnosed" when at least one reported cell lies in its footprint; a
// reported cell is "spurious" when no injected fault explains it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "faults/fault.h"
#include "faults/fault_kind.h"
#include "sram/cell_array.h"
#include "sram/config.h"

namespace fastdiag::faults {

struct MatchReport {
  std::size_t truth_faults = 0;      ///< injected faults considered
  std::size_t diagnosed_cells = 0;   ///< distinct cells the scheme reported
  std::size_t matched_faults = 0;    ///< faults explained by >= 1 cell
  std::size_t spurious_cells = 0;    ///< cells explained by no fault

  /// Fraction of injected faults the diagnosis located.
  [[nodiscard]] double recall() const {
    return truth_faults == 0
               ? 1.0
               : static_cast<double>(matched_faults) /
                     static_cast<double>(truth_faults);
  }

  /// Fraction of reported cells that point at a real fault.
  [[nodiscard]] double precision() const {
    return diagnosed_cells == 0
               ? 1.0
               : 1.0 - static_cast<double>(spurious_cells) /
                           static_cast<double>(diagnosed_cells);
  }
};

/// Matches @p diagnosed cells against @p truth for a memory of @p config.
/// @p diagnosed is ascending and free of repeats, as DiagnosisLog::cells
/// returns it.
[[nodiscard]] MatchReport match_diagnosis(
    const std::vector<FaultInstance>& truth,
    std::span<const sram::CellCoord> diagnosed,
    const sram::SramConfig& config);

/// Confusion matrix of a fault *classification* run against the injected
/// ground truth: counts of (true kind, predicted kind) pairs, plus the
/// truths the scheme never surfaced and the predictions no truth explains.
///
/// Some kinds are genuinely indistinguishable under a given March test
/// (classically SA0 vs. TF-up when every cell initialises to 0); the
/// classifier reports those as confidence ties, so the matrix tracks both
/// the strict verdict (the single top prediction) and whether the truth was
/// anywhere among the tied top kinds.
class ConfusionMatrix {
 public:
  /// Records one truth with its top prediction (std::nullopt = the fault
  /// produced no classified site) and whether the truth tied for the top.
  void add(FaultKind truth, std::optional<FaultKind> predicted,
           bool truth_among_top);

  /// Records a classified site that no injected fault explains.
  void add_spurious(FaultKind predicted);

  /// Merges @p other in (for aggregating across memories or runs).
  void merge(const ConfusionMatrix& other);

  [[nodiscard]] std::size_t count(FaultKind truth, FaultKind predicted) const;
  [[nodiscard]] std::size_t truths() const { return truths_; }
  [[nodiscard]] std::size_t missed() const { return missed_; }
  [[nodiscard]] std::size_t spurious() const { return spurious_; }

  /// Spurious sites whose top prediction was @p predicted.
  [[nodiscard]] std::size_t spurious(FaultKind predicted) const;

  /// Fraction of truths whose single top prediction was exactly right —
  /// kind correct *and* among-top (so couplings also need an admitting
  /// aggressor hint).  Never exceeds lenient_accuracy().
  [[nodiscard]] double strict_accuracy() const;

  /// Fraction of truths present among the tied top predictions — the
  /// honest score when the test cannot separate two kinds.
  [[nodiscard]] double lenient_accuracy() const;

  /// Per-class recall: correct-top count / truths of @p kind.
  [[nodiscard]] double class_accuracy(FaultKind kind) const;

  /// Human-readable matrix (rows = truth, cols = predicted), non-zero
  /// rows only.
  [[nodiscard]] std::string to_string() const;

  /// Flat, key-ordered image of every internal tally — the serialization
  /// boundary.  from_snapshot() reconstructs an identical matrix.
  struct Snapshot {
    std::vector<std::pair<std::pair<FaultKind, FaultKind>, std::uint64_t>>
        counts;
    std::vector<std::pair<FaultKind, std::uint64_t>> truth_totals;
    std::vector<std::pair<FaultKind, std::uint64_t>> lenient_correct;
    std::vector<std::pair<FaultKind, std::uint64_t>> spurious_by_kind;
    std::uint64_t truths = 0;
    std::uint64_t strict_correct = 0;
    std::uint64_t lenient_total = 0;
    std::uint64_t missed = 0;
    std::uint64_t spurious = 0;
  };

  [[nodiscard]] Snapshot snapshot() const;
  [[nodiscard]] static ConfusionMatrix from_snapshot(const Snapshot& snapshot);

  friend bool operator==(const ConfusionMatrix&,
                         const ConfusionMatrix&) = default;

 private:
  std::map<std::pair<FaultKind, FaultKind>, std::size_t> counts_;
  std::map<FaultKind, std::size_t> truth_totals_;
  std::map<FaultKind, std::size_t> lenient_correct_;
  std::map<FaultKind, std::size_t> spurious_by_kind_;
  std::size_t truths_ = 0;
  std::size_t strict_correct_ = 0;
  std::size_t lenient_total_ = 0;
  std::size_t missed_ = 0;
  std::size_t spurious_ = 0;
};

}  // namespace fastdiag::faults
