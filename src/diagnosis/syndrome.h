// Syndrome extraction: folding the raw diagnosis log into per-cell
// observation syndromes.
//
// The paper's central claim is that the fast scheme's log is *complete*
// diagnosis data (Sec. 3.1/4): every failing read is registered with its
// March position.  A syndrome condenses that stream per (memory, cell) into
// the set of March reads — (phase, element, op) — at which the cell
// disagreed with the golden expectation.  That set is exactly what the
// classical march fault dictionaries key on, so the classifier can match it
// against simulated single-fault signatures.
//
// Wrap-around revisits (a smaller memory swept by a controller dimensioned
// for the largest one, Sec. 3.1) repeat an element's reads on the same
// address with a *different* op history — and some faults only surface on a
// revisit — so the revisit index is part of the read identity and the
// classifier's probes replay the same wrapped sweep.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bisd/record.h"
#include "sram/cell_array.h"

namespace fastdiag::diagnosis {

/// Identity of one March read: which phase (data background), which element
/// of the phase, which wrap-around visit of the address, which read op
/// inside the element.  Member order is chronological, so the default
/// ordering sorts keys in March execution order per cell.
struct ReadKey {
  std::size_t phase = 0;
  std::size_t element = 0;
  std::size_t visit = 0;
  std::size_t op = 0;

  friend bool operator==(const ReadKey&, const ReadKey&) = default;
  friend auto operator<=>(const ReadKey&, const ReadKey&) = default;

  /// "p1e2v0o1"
  [[nodiscard]] std::string to_string() const;
};

/// Everything one cell showed during the run.
struct CellSyndrome {
  sram::CellCoord cell;

  /// Distinct reads at which the cell failed, in March order.
  std::vector<ReadKey> failed_reads;

  /// Raw record count for this cell (equals failed_reads.size() for
  /// march-attributed logs; pass-attributed logs can collapse duplicates).
  std::size_t record_count = 0;

  [[nodiscard]] std::string to_string() const;
};

/// All syndromes of one memory, cells in ascending (row, bit) order.
struct MemorySyndrome {
  std::size_t memory_index = 0;
  std::vector<CellSyndrome> cells;

  /// The syndrome of @p cell, or nullptr when the cell never failed.
  [[nodiscard]] const CellSyndrome* find(sram::CellCoord cell) const;

  /// Failing-bit count per row — the row-granular view address-decoder
  /// faults show up in (every bit of the involved row fails).
  [[nodiscard]] std::map<std::uint32_t, std::size_t> row_histogram() const;

  [[nodiscard]] bool empty() const { return cells.empty(); }
};

/// Folds @p log into per-memory syndromes; the result always has exactly
/// @p memory_count entries (memories without failures get empty syndromes,
/// and cells of memories at or past @p memory_count are dropped).
[[nodiscard]] std::vector<MemorySyndrome> extract_syndromes(
    const bisd::DiagnosisLog& log, std::size_t memory_count);

}  // namespace fastdiag::diagnosis
