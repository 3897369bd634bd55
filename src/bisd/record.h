// Diagnosis records: what the comparator array registers when a response
// bit disagrees with its expected value — failure address, bit position,
// applied data background, where in the algorithm, and when (Sec. 3.1:
// "the diagnosis information ... will be registered for on-chip repair or
// shifted out for off-line analysis").
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "sram/cell_array.h"
#include "util/bitvec.h"

namespace fastdiag::bisd {

struct DiagnosisRecord {
  std::size_t memory_index = 0;
  std::uint32_t addr = 0;        ///< logical (local) failure address
  std::uint32_t bit = 0;         ///< failing IO bit
  BitVector background;          ///< data background in force
  std::size_t phase = 0;         ///< March phase / pass group
  std::size_t element = 0;       ///< March element / pass index
  std::size_t op = 0;            ///< op index within the element (counts
                                 ///< writes too, matching MarchElement::ops)
  std::uint32_t visit = 0;       ///< wrap-around revisit count (0 = first)
  std::uint64_t cycle = 0;       ///< controller cycle of registration

  [[nodiscard]] sram::CellCoord cell() const { return {addr, bit}; }
  [[nodiscard]] std::string to_string() const;
};

class DiagnosisLog {
 public:
  /// Appends @p record and indexes it under its memory, so the per-memory
  /// queries below visit only that memory's records.
  void add(DiagnosisRecord record);

  /// Pre-sizes the record vector.  Schemes call this with their structural
  /// upper bounds (memories x reads) or with high-water feedback from the
  /// engine, so hot diagnosis loops stop reallocating mid-run.
  void reserve(std::size_t records) {
    records_.reserve(records);
    next_.reserve(records);
  }

  [[nodiscard]] const std::vector<DiagnosisRecord>& records() const {
    return records_;
  }

  /// Distinct faulty cells attributed to @p memory_index.  Linear in that
  /// memory's records: the cells are deduplicated through a bitmap walked
  /// in address order, so the set is built with end-hinted inserts.
  [[nodiscard]] std::set<sram::CellCoord> cells(
      std::size_t memory_index) const;

  /// Distinct rows needing repair in @p memory_index (same cost model).
  [[nodiscard]] std::set<std::uint32_t> faulty_rows(
      std::size_t memory_index) const;

  /// Distinct (memory, cell) pairs across the whole SoC.
  [[nodiscard]] std::size_t distinct_cell_count() const;

  [[nodiscard]] bool empty() const { return records_.empty(); }

  /// The scan-out format: one line per record.
  [[nodiscard]] std::string to_string() const;

  /// CSV export for off-line analysis (Sec. 3.1: "shifted out for off-line
  /// analysis"): header plus one row per record.
  [[nodiscard]] std::string to_csv() const;

 private:
  /// Memory indices below this are indexed as records arrive; anything
  /// larger (only a corrupt or hand-made log carries one) is found by a
  /// scan, so a stray index can never size the table.
  static constexpr std::size_t kIndexedMemories = std::size_t{1} << 16;
  static constexpr std::uint32_t kEnd = ~std::uint32_t{0};

  /// Record positions of @p memory_index, ascending.
  [[nodiscard]] std::vector<std::uint32_t> records_of(
      std::size_t memory_index) const;

  std::vector<DiagnosisRecord> records_;
  /// Per-memory record chains: next_[r] is the next record of r's memory
  /// (kEnd at the tail), head_/tail_ the chain ends per indexed memory.
  std::vector<std::uint32_t> next_;
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> tail_;
};

}  // namespace fastdiag::bisd
