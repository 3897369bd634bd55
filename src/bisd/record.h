// Diagnosis records: what the comparator array registers when a response
// bit disagrees with its expected value — failure address, bit position,
// applied data background, where in the algorithm, and when (Sec. 3.1:
// "the diagnosis information ... will be registered for on-chip repair or
// shifted out for off-line analysis").
//
// A log stores what a record is made of, once each:
//   - a cell table of (memory, addr, bit), one 12-byte row per distinct
//     failing cell;
//   - an event table of (phase, element, op, visit, background, cycle
//     base), one row per comparator read that registered a failure.  A word
//     serialized through a PSC registers bit b at cycle base + b, so one
//     event covers every failing bit of that word;
//   - a background table: the data backgrounds events refer to;
//   - the log itself: 8-byte (cell id, event id) entries in registration
//     order.
// A DiagnosisRecord is the decoded form of one entry; records() decodes
// them on the fly.
//
// Size at rest.  A sealed log (see seal()) holds 8 B per record, with at
// most 1/8 spare capacity, plus 12 B per distinct cell, 32 B per event and
// its background table, and no insertion index.  At the paper's operating
// point (the 64-memory fleet SoC at 1 % defects) that is ~5 MB for ~495k
// records over ~45k cells and ~9k events.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
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
              "a decoded record stays a flat value");

/// One comparator read that registered at least one failing bit.
struct DiagnosisEvent {
  std::uint64_t cycle_base = 0;
  std::uint32_t phase = 0;
  std::uint32_t element = 0;
  std::uint32_t op = 0;
  std::uint32_t visit = 0;
  std::uint32_t background = 0;  ///< id into the owning log's table
  /// True when the word left through a PSC one bit per shift clock, so bit
  /// b registered at cycle_base + b (mod 2^64); false when every bit of the
  /// word registered at cycle_base (a parallel compare).
  bool serial = false;

  [[nodiscard]] std::uint64_t cycle(std::uint32_t bit) const {
    return serial ? cycle_base + bit : cycle_base;
  }

  friend auto operator<=>(const DiagnosisEvent&,
                          const DiagnosisEvent&) = default;
};

/// A distinct failing cell of one memory.
struct LoggedCell {
  std::uint32_t memory = 0;
  std::uint32_t addr = 0;
  std::uint32_t bit = 0;

  friend auto operator<=>(const LoggedCell&, const LoggedCell&) = default;
};

/// One registered failure: ids into its log's cell and event tables.
struct LogEntry {
  std::uint32_t cell = 0;
  std::uint32_t event = 0;
};

static_assert(sizeof(LogEntry) == 8 && sizeof(LoggedCell) == 12 &&
                  sizeof(DiagnosisEvent) == 32,
              "the size bound in the header comment depends on these");

class DiagnosisLog {
 public:
  class RecordView;

  /// A log's tables.  In a sealed log they are canonical: cells in strictly
  /// ascending (memory, addr, bit) order, events and non-empty backgrounds
  /// in first-use order, every row used and none repeated, and
  /// backgrounds[0] the empty background.
  struct Tables {
    std::vector<BitVector> backgrounds = std::vector<BitVector>(1);
    std::vector<DiagnosisEvent> events;
    std::vector<LoggedCell> cells;
    std::vector<LogEntry> entries;
  };

  DiagnosisLog();
  ~DiagnosisLog();
  /// Copies the tables; the copy builds its own insertion index if it is
  /// added to.
  DiagnosisLog(const DiagnosisLog& other);
  DiagnosisLog& operator=(const DiagnosisLog& other);
  DiagnosisLog(DiagnosisLog&& other) noexcept;
  DiagnosisLog& operator=(DiagnosisLog&& other) noexcept;

  // ---- building ------------------------------------------------------------
  // Every call below unseals the log and, while it is unsealed, keeps an
  // insertion index (content -> id maps and dense slot tables) beside the
  // tables.  seal() drops it.

  /// Returns the id of @p background in this log's table, adding it on
  /// first sight; equal contents always map to the same id, and the empty
  /// background is id 0.  Schemes intern once per phase or per memory, not
  /// per record.
  std::uint32_t intern(const BitVector& background);

  /// Returns the id of @p event, adding it on first sight; equal events
  /// map to the same id.  O(1) while events arrive with non-decreasing
  /// cycle bases, as every scheme's do; O(log n) otherwise.  Throws
  /// std::invalid_argument when its background was not interned here.
  std::uint32_t intern(const DiagnosisEvent& event);

  /// Declares @p memory's geometry, so its cells resolve through a dense
  /// slot table (4 B per cell of the geometry, allocated at the memory's
  /// first record) instead of an ordered map.  Memories at or above 2^16,
  /// tables that would pass the slot budget and cells outside the declared
  /// geometry use the map, so no input sizes a table on its own.
  void index_memory(std::uint32_t memory, std::uint32_t words,
                    std::uint32_t bits);

  /// The scheme entry point: appends a failure of (@p memory, @p cell)
  /// registered by @p event, an id from intern().  Throws
  /// std::invalid_argument when @p event is not in this log.
  void add(std::uint32_t memory, sram::CellCoord cell, std::uint32_t event) {
    require(event < tables_.events.size(),
            "DiagnosisLog: event id not interned in this log");
    tables_.entries.push_back({cell_id(memory, cell), event});
  }

  /// Appends @p record through a non-serial event at its cycle.  Throws
  /// std::invalid_argument when the background id was not interned here.
  void add(const DiagnosisRecord& record);

  /// Brings the tables to their canonical form (see Tables) and drops the
  /// insertion index; ids interned before are void afterwards.  Records,
  /// their order and every query are unchanged.  Linear in entries plus the
  /// slot tables' size; a no-op on a sealed log.  Schemes seal their
  /// result, and decode_report returns sealed logs.
  void seal();

  [[nodiscard]] bool sealed() const { return sealed_; }

  /// Adopts @p tables as a sealed log when they are canonical; otherwise
  /// returns nullopt and names the first rule they break in @p why.  Checks
  /// duplicates by sorting, never by hashing, so crafted rows cannot slow
  /// it past O(n log n).
  [[nodiscard]] static std::optional<DiagnosisLog> from_sealed_tables(
      Tables tables, std::string& why);

  // ---- reading -------------------------------------------------------------

  [[nodiscard]] const Tables& tables() const { return tables_; }

  /// The records in registration order, decoded on the fly.
  [[nodiscard]] RecordView records() const;

  /// The data background of @p record.  Throws std::out_of_range when the
  /// id was not interned in this log.
  [[nodiscard]] const BitVector& background(
      const DiagnosisRecord& record) const {
    require_in_range(record.background < tables_.backgrounds.size(),
                     "DiagnosisLog: background id not interned in this log");
    return tables_.backgrounds[record.background];
  }

  /// Distinct faulty cells of @p memory_index, ascending.  A binary search
  /// and a copy on a sealed log.
  [[nodiscard]] std::vector<sram::CellCoord> cells(
      std::size_t memory_index) const;

  /// Distinct rows needing repair in @p memory_index, ascending.
  [[nodiscard]] std::vector<std::uint32_t> faulty_rows(
      std::size_t memory_index) const;

  /// Whether (@p memory_index, @p cell) has a record.  O(1) or O(log n)
  /// through the insertion index or the sealed table.
  [[nodiscard]] bool contains(std::size_t memory_index,
                              sram::CellCoord cell) const;

  /// Distinct (memory, cell) pairs across the whole SoC: the cell table's
  /// size.
  [[nodiscard]] std::size_t distinct_cell_count() const {
    return tables_.cells.size();
  }

  [[nodiscard]] bool empty() const { return tables_.entries.empty(); }

  /// Entries grouped by cell in compressed-row form: the entries of cell c
  /// are the entry indices order[offsets[c]] .. order[offsets[c + 1]) in
  /// log order.  One counting pass; no record is decoded.
  struct CellGroups {
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> order;
  };
  [[nodiscard]] CellGroups entries_by_cell() const;

  /// The scan-out line of one record, its background resolved.
  [[nodiscard]] std::string to_string(const DiagnosisRecord& record) const;

  /// The scan-out format: one line per record.
  [[nodiscard]] std::string to_string() const;

  /// CSV export for off-line analysis (Sec. 3.1: "shifted out for off-line
  /// analysis"): header plus one row per record.
  [[nodiscard]] std::string to_csv() const;

 private:
  /// Memory indices below this may get a dense slot table.
  static constexpr std::uint32_t kIndexedMemories = std::uint32_t{1} << 16;
  /// Slot budget of one memory's table and of all of them together
  /// (4 B each): at most 4 and 16 MB of scratch while a log is built.
  static constexpr std::size_t kMaxMemorySlots = std::size_t{1} << 20;
  static constexpr std::size_t kMaxIndexSlots = std::size_t{1} << 22;
  /// Events sharing the newest cycle base that intern() compares against
  /// before it switches to the ordered event map.
  static constexpr std::size_t kTailScan = 16;

  /// Total order on background contents (width, then limbs).
  struct ContentOrder {
    bool operator()(const BitVector& a, const BitVector& b) const;
  };

  /// The insertion index: scratch that exists only while the log is being
  /// built.  An ordered map rather than a hash keeps every lookup
  /// O(log n) for any input; a hash could be flooded with collisions.
  struct Index {
    struct Dense {
      std::uint32_t words = 0;  ///< declared geometry; 0 = none
      std::uint32_t bits = 0;
      std::vector<std::uint32_t> slots;  ///< addr * bits + bit -> id + 1
    };
    /// By memory.  A memory whose table is allocated has no cell in
    /// `cells`; one that cannot get a table keeps all its cells there.
    std::vector<Dense> dense;
    std::size_t dense_slots = 0;
    std::map<LoggedCell, std::uint32_t> cells;
    std::map<BitVector, std::uint32_t, ContentOrder> backgrounds;
    /// While true, event cycle bases are non-decreasing in table order and
    /// `events` is unused: the events with the newest base are the ones
    /// from tail_begin on.
    bool events_in_order = true;
    std::size_t tail_begin = 0;
    std::map<DiagnosisEvent, std::uint32_t> events;
  };

  /// The insertion index, built from the tables if absent; unseals.
  Index& index();

  /// Entry @p i decoded.
  [[nodiscard]] DiagnosisRecord record(std::size_t i) const {
    const LogEntry entry = tables_.entries[i];
    const LoggedCell& cell = tables_.cells[entry.cell];
    const DiagnosisEvent& event = tables_.events[entry.event];
    DiagnosisRecord out;
    out.cycle = event.cycle(cell.bit);
    out.memory_index = cell.memory;
    out.addr = cell.addr;
    out.bit = cell.bit;
    out.phase = event.phase;
    out.element = event.element;
    out.op = event.op;
    out.visit = event.visit;
    out.background = event.background;
    return out;
  }

  std::uint32_t cell_id(std::uint32_t memory, sram::CellCoord cell) {
    if (index_ != nullptr && memory < index_->dense.size()) {
      Index::Dense& dense = index_->dense[memory];
      if (!dense.slots.empty() && cell.row < dense.words &&
          cell.bit < dense.bits) {
        std::uint32_t& slot =
            dense.slots[std::size_t{cell.row} * dense.bits + cell.bit];
        if (slot == 0) {
          slot = append_cell({memory, cell.row, cell.bit}) + 1;
        }
        return slot - 1;
      }
    }
    return resolve_cell(memory, cell);
  }

  /// cell_id's path for everything but an allocated dense slot.
  std::uint32_t resolve_cell(std::uint32_t memory, sram::CellCoord cell);
  std::uint32_t append_cell(const LoggedCell& cell);
  std::uint32_t append_event(const DiagnosisEvent& event);

  /// Cell ids in ascending (memory, addr, bit) order, from the index.
  [[nodiscard]] std::vector<std::uint32_t> sorted_cell_ids();

  Tables tables_;
  bool sealed_ = true;
  std::unique_ptr<Index> index_;
};

/// A forward view over a log's records in registration order.  size() is
/// O(1); dereferencing decodes one entry.
class DiagnosisLog::RecordView {
 public:
  class iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = DiagnosisRecord;
    using difference_type = std::ptrdiff_t;
    using reference = DiagnosisRecord;

    iterator() = default;
    iterator(const DiagnosisLog* log, std::size_t at) : log_(log), at_(at) {}

    DiagnosisRecord operator*() const { return log_->record(at_); }
    iterator& operator++() {
      ++at_;
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++at_;
      return before;
    }
    friend bool operator==(const iterator&, const iterator&) = default;

   private:
    const DiagnosisLog* log_ = nullptr;
    std::size_t at_ = 0;
  };

  explicit RecordView(const DiagnosisLog& log) : log_(&log) {}

  [[nodiscard]] iterator begin() const { return {log_, 0}; }
  [[nodiscard]] iterator end() const { return {log_, size()}; }
  [[nodiscard]] std::size_t size() const {
    return log_->tables_.entries.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] DiagnosisRecord operator[](std::size_t i) const {
    return log_->record(i);
  }

 private:
  const DiagnosisLog* log_;
};

inline DiagnosisLog::RecordView DiagnosisLog::records() const {
  return RecordView(*this);
}

/// @p log itself when it is sealed, otherwise a sealed copy placed in
/// @p copy.  Readers that need the canonical tables (the codec, the
/// syndrome fold, soft-error scoring) read through it, so a log still
/// being built reads the same as its sealed form.
[[nodiscard]] const DiagnosisLog& sealed_form(
    const DiagnosisLog& log, std::optional<DiagnosisLog>& copy);

}  // namespace fastdiag::bisd
