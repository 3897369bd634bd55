// Diagnosis records: what the comparator array registers when a response
// bit disagrees with its expected value — failure address, bit position,
// applied data background, where in the algorithm, and when (Sec. 3.1:
// "the diagnosis information ... will be registered for on-chip repair or
// shifted out for off-line analysis").
//
// A record is a flat 40-byte value: the data background, shared by every
// record of one March phase, lives once in its log's background table and
// the record carries its id.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "sram/cell_array.h"
#include "util/bitvec.h"
#include "util/require.h"

namespace fastdiag::bisd {

struct DiagnosisRecord {
  std::uint64_t cycle = 0;         ///< controller cycle of registration
  std::uint32_t memory_index = 0;
  std::uint32_t addr = 0;          ///< logical (local) failure address
  std::uint32_t bit = 0;           ///< failing IO bit
  std::uint32_t phase = 0;         ///< March phase / pass group
  std::uint32_t element = 0;       ///< March element / pass index
  std::uint32_t op = 0;            ///< op index within the element (counts
                                   ///< writes too, matching MarchElement::ops)
  std::uint32_t visit = 0;         ///< wrap-around revisit count (0 = first)
  /// Data background in force, as an id into the owning log's table
  /// (DiagnosisLog::intern / DiagnosisLog::background).  0 is the empty
  /// background.
  std::uint32_t background = 0;

  [[nodiscard]] sram::CellCoord cell() const { return {addr, bit}; }
};

static_assert(sizeof(DiagnosisRecord) <= 40 &&
                  std::is_trivially_copyable_v<DiagnosisRecord>,
              "diagnosis records stay flat: fleet logs hold ~500k of them");

class DiagnosisLog {
 public:
  /// Returns the id of @p background in this log's table, adding it on
  /// first sight; equal contents always map to the same id, and the empty
  /// background is id 0.  Schemes intern once per phase or per memory, not
  /// per record.
  std::uint32_t intern(const BitVector& background);

  /// The data background of @p record.  Throws std::out_of_range when the
  /// id was not interned in this log.
  [[nodiscard]] const BitVector& background(
      const DiagnosisRecord& record) const {
    require_in_range(record.background < backgrounds_.size(),
                     "DiagnosisLog: background id not interned in this log");
    return backgrounds_[record.background];
  }

  /// Appends @p record and files its cell under its memory, so the
  /// per-memory queries below stream only that memory's coordinates.
  /// Throws std::invalid_argument when the background id was not interned
  /// in this log.
  void add(const DiagnosisRecord& record);

  /// Pre-sizes the record vector.  Schemes call this with their structural
  /// upper bounds (memories x reads) or with high-water feedback from the
  /// engine, so hot diagnosis loops stop reallocating mid-run.
  void reserve(std::size_t records) { records_.reserve(records); }

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

  /// The scan-out line of one record, its background resolved.
  [[nodiscard]] std::string to_string(const DiagnosisRecord& record) const;

  /// The scan-out format: one line per record.
  [[nodiscard]] std::string to_string() const;

  /// CSV export for off-line analysis (Sec. 3.1: "shifted out for off-line
  /// analysis"): header plus one row per record.
  [[nodiscard]] std::string to_csv() const;

 private:
  /// Memory indices below this get a cell-key list as records arrive;
  /// anything larger (only a corrupt or hand-made log carries one) is found
  /// by a scan, so a stray index can never size the table.
  static constexpr std::size_t kIndexedMemories = std::size_t{1} << 16;

  /// The (addr << 32 | bit) keys of @p memory_index's records in log order:
  /// its key list, or — past kIndexedMemories — gathered into @p fallback.
  [[nodiscard]] std::span<const std::uint64_t> keys_of(
      std::size_t memory_index, std::vector<std::uint64_t>& fallback) const;

  std::vector<DiagnosisRecord> records_;
  /// keys_[m]: (addr << 32 | bit) of every record of indexed memory m.
  std::vector<std::vector<std::uint64_t>> keys_;
  /// Total order on background contents (width, then limbs).
  struct ContentOrder {
    bool operator()(const BitVector& a, const BitVector& b) const;
  };

  /// Interned backgrounds (id = position; id 0 is empty), and a content ->
  /// id index.  An ordered index keeps interning O(log n) comparisons for
  /// any input; a hash index could be flooded with crafted collisions.
  std::vector<BitVector> backgrounds_ = std::vector<BitVector>(1);
  std::map<BitVector, std::uint32_t, ContentOrder> background_ids_;
};

}  // namespace fastdiag::bisd
