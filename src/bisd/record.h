// Diagnosis records: what the comparator array registers when a response
// bit disagrees with its expected value — failure address, bit position,
// applied data background, where in the algorithm, and when (Sec. 3.1:
// "the diagnosis information ... will be registered for on-chip repair or
// shifted out for off-line analysis").
//
// The comparator registers a failing word, so a log stores words, once each:
//   - a word table of (memory, addr), one 8-byte row per distinct failing
//     word;
//   - an event table of (phase, element, op, visit, background, cycle
//     base), one row per comparator read that registered a failure.  A word
//     serialized through a PSC registers bit b at cycle base + b, so one
//     event covers every failing bit of that word;
//   - a background table: the data backgrounds events refer to;
//   - the log itself: (word id, event id, limb, mask) entries, one per
//     failing read and 64-bit batch of a word; mask bit j is a failure of IO
//     bit 64 * limb + j.
// A DiagnosisRecord is one set mask bit; records() decodes them on the fly.
//
// Record order.  records() yields the entries in log order and each
// entry's bits ascending, except within a run of consecutive entries whose
// events are serial and share one cycle base: there records come in clock
// order (64 * limb + bit ascending), then in entry order, which is the
// order the PSCs shift them out.  So FastScheme, which appends one entry
// per failing memory and batch, memories ascending, yields its records in
// ascending (cycle, memory) order, and periodic_scan, the baseline and the
// generic add(record) yield theirs as appended.  Within such a run, limbs
// never decrease (the PSCs shift batches in order); add_word() and
// from_sealed_tables() refuse entries that break this.
//
// Size at rest.  A sealed log (see seal()) holds 24 B per entry, with at
// most 1/8 spare capacity, plus 8 B per distinct word, 32 B per event and
// its background table, a 16 B cell mask per (word, limb) and no insertion
// index.  At the paper's operating point (the 64-memory fleet SoC at 1 %
// defects) that is ~1.2 MB for ~495k records in ~38.5k entries over ~2.4k
// words and ~9k events.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
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

/// A distinct failing word of one memory.
struct LoggedWord {
  std::uint32_t memory = 0;
  std::uint32_t addr = 0;

  friend auto operator<=>(const LoggedWord&, const LoggedWord&) = default;
};

/// A failing cell of one memory (DiagnosisLog::entries_by_cell).
struct LoggedCell {
  std::uint32_t memory = 0;
  std::uint32_t addr = 0;
  std::uint32_t bit = 0;

  friend auto operator<=>(const LoggedCell&, const LoggedCell&) = default;
};

/// One failing read of one 64-bit batch of a word: ids into its log's word
/// and event tables, and the batch's failing bits (mask bit j is IO bit
/// 64 * limb + j).
struct LogEntry {
  std::uint64_t mask = 0;
  std::uint32_t word = 0;
  std::uint32_t event = 0;
  std::uint32_t limb = 0;
};

/// The failing cells of one batch of a word: the OR of its entries' masks.
struct CellMask {
  std::uint32_t limb = 0;
  std::uint64_t mask = 0;
};

static_assert(sizeof(LogEntry) == 24 && sizeof(LoggedWord) == 8 &&
                  sizeof(DiagnosisEvent) == 32 && sizeof(CellMask) == 16,
              "the size bound in the header comment depends on these");

class DiagnosisLog {
 public:
  class RecordView;

  /// Limbs of a word: every bit index 64 * limb + j fits 32 bits.
  static constexpr std::uint32_t kMaxLimbs = std::uint32_t{1} << 26;

  /// A log's tables.  In a sealed log they are canonical: words in strictly
  /// ascending (memory, addr) order, events and non-empty backgrounds in
  /// first-use order, every row used and none repeated, backgrounds[0] the
  /// empty background, and every entry's mask non-zero.
  struct Tables {
    std::vector<BitVector> backgrounds = std::vector<BitVector>(1);
    std::vector<DiagnosisEvent> events;
    std::vector<LoggedWord> words;
    std::vector<LogEntry> entries;
  };

  DiagnosisLog();
  ~DiagnosisLog();
  /// Copies the tables; a copy of a log being built rebuilds its insertion
  /// index from them, so ids interned in @p other stay valid in the copy.
  DiagnosisLog(const DiagnosisLog& other);
  DiagnosisLog& operator=(const DiagnosisLog& other);
  DiagnosisLog(DiagnosisLog&& other) noexcept;
  DiagnosisLog& operator=(DiagnosisLog&& other) noexcept;

  // ---- building ------------------------------------------------------------
  // Every call below unseals the log and, while it is unsealed, keeps an
  // insertion index beside the tables: content -> id maps, per-memory word
  // slots and each word's cell masks so far.  Its word slots take at most
  // 16 MB; the rest is linear in the tables.  seal() drops it.

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

  /// The scheme entry point: appends a failing read of (@p memory, @p addr)
  /// registered by @p event, an id from intern(); bit j of @p mask is a
  /// failure of IO bit 64 * @p limb + j.  Words resolve through a slot per
  /// address of each memory, grown on demand; addresses or memories past
  /// 2^16 and slots past the index budget use an ordered map.  The mask is
  /// ORed into the word's cell masks: O(1) for limbs 0 and 1, O(log n)
  /// above.  Throws
  /// std::invalid_argument when @p event is not in this log, @p mask is 0,
  /// @p limb is kMaxLimbs or more, or the entry continues a serial run (see
  /// "Record order" above) with a lower limb than the entry before it.
  void add_word(std::uint32_t memory, std::uint32_t addr, std::uint32_t limb,
                std::uint64_t mask, std::uint32_t event) {
    require(event < tables_.events.size(),
            "DiagnosisLog: event id not interned in this log");
    require(mask != 0 && limb < kMaxLimbs,
            "DiagnosisLog: an entry needs a non-zero mask inside 2^32 bits");
    require(tables_.entries.empty() || limb >= tables_.entries.back().limb ||
                !same_run(tables_.entries.back().event, event),
            "DiagnosisLog: limbs decrease within a serial run");
    const std::uint32_t word = word_id(memory, addr);
    tables_.entries.push_back({mask, word, event, limb});
    records_ += static_cast<std::size_t>(std::popcount(mask));
    index_->cells.add(word, limb, mask);
  }

  /// Appends @p record through a non-serial event at its cycle.  Throws
  /// std::invalid_argument when the background id was not interned here.
  void add(const DiagnosisRecord& record);

  /// Brings the tables to their canonical form (see Tables), moves the
  /// index's cell masks into word order and drops the index; ids interned
  /// before are void afterwards.  Records, their order and every query are
  /// unchanged.  Linear in entries plus the word slots, with a map search
  /// per word once some word passes 128 bits; a no-op on a sealed log.
  /// Schemes seal their result, and decode_report returns sealed logs.
  void seal();

  [[nodiscard]] bool sealed() const { return sealed_; }

  /// Adopts @p tables as a sealed log when they are canonical and keep the
  /// serial-run limb order; otherwise returns nullopt and names the first
  /// rule they break in @p why.  Checks duplicates by sorting, never by
  /// hashing, so crafted rows cannot slow it past O(n log n).
  [[nodiscard]] static std::optional<DiagnosisLog> from_sealed_tables(
      Tables tables, std::string& why);

  // ---- reading -------------------------------------------------------------
  // The per-cell queries below read a sealed log's cell masks, and a log
  // still being built the masks its insertion index keeps; neither scans
  // the entries.  entries_by_cell() reads a sealed copy of a log being
  // built (sealed_form).

  [[nodiscard]] const Tables& tables() const { return tables_; }

  /// The records in the order set out in the header, decoded on the fly.
  [[nodiscard]] RecordView records() const;

  /// The data background of @p record.  Throws std::out_of_range when the
  /// id was not interned in this log.
  [[nodiscard]] const BitVector& background(
      const DiagnosisRecord& record) const {
    require_in_range(record.background < tables_.backgrounds.size(),
                     "DiagnosisLog: background id not interned in this log");
    return tables_.backgrounds[record.background];
  }

  /// Distinct faulty cells of @p memory_index, ascending: a walk of the
  /// memory's words and their cell masks (after a binary search once
  /// sealed, or over the memory's word slots while being built).
  [[nodiscard]] std::vector<sram::CellCoord> cells(
      std::size_t memory_index) const;

  /// Distinct rows needing repair in @p memory_index, ascending: the
  /// memory's words, found as cells() finds them.
  [[nodiscard]] std::vector<std::uint32_t> faulty_rows(
      std::size_t memory_index) const;

  /// Whether (@p memory_index, @p cell) has a record: two binary searches
  /// once sealed; while being built, a slot lookup (or O(log n) in the
  /// index's maps) and the word's mask of the cell's limb.
  [[nodiscard]] bool contains(std::size_t memory_index,
                              sram::CellCoord cell) const;

  /// Distinct (memory, cell) pairs across the whole SoC: a count kept at
  /// seal time, or a pass over the cell masks of a log being built.
  [[nodiscard]] std::size_t distinct_cell_count() const;

  [[nodiscard]] bool empty() const { return tables_.entries.empty(); }

  /// Entries grouped by failing cell in compressed-row form: cells[c] is a
  /// cell, in ascending (memory, addr, bit) order, and its entries are the
  /// entry indices order[offsets[c]] .. order[offsets[c + 1]) in log order
  /// (one per record of the cell).  A counting sort of the records by
  /// cell, each entry's cells found in its word's cell masks: linear in
  /// records plus cells; no record is decoded.
  struct CellGroups {
    std::vector<LoggedCell> cells;
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
  /// Memories and addresses below these may resolve through word slots.
  static constexpr std::uint32_t kIndexedMemories = std::uint32_t{1} << 16;
  static constexpr std::uint32_t kIndexedWords = std::uint32_t{1} << 16;
  /// Slot budget of all memories together, counted by capacity (4 B each):
  /// at most 16 MB of word slots while a log is built.
  static constexpr std::size_t kMaxIndexSlots = std::size_t{1} << 22;
  /// Events sharing the newest cycle base that intern() compares against
  /// before it switches to the ordered event map.
  static constexpr std::size_t kTailScan = 16;

  /// Total order on background contents (width, then limbs).
  struct ContentOrder {
    bool operator()(const BitVector& a, const BitVector& b) const;
  };

  /// Each word's cells, the OR of its entries' masks per limb: limbs below
  /// kInlineLimbs by word id, so words of up to 128 bits never reach the
  /// map, and the rest by (word id, limb).
  struct WordCells {
    static constexpr std::uint32_t kInlineLimbs = 2;
    std::vector<std::array<std::uint64_t, kInlineLimbs>> low;
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> high;

    void add(std::uint32_t word, std::uint32_t limb, std::uint64_t mask) {
      (limb < kInlineLimbs ? low[word][limb] : high[{word, limb}]) |= mask;
    }

    /// Word @p word's cells in @p limb.
    [[nodiscard]] std::uint64_t get(std::uint32_t word,
                                    std::uint32_t limb) const {
      if (limb < kInlineLimbs) {
        return low[word][limb];
      }
      const auto it = high.find({word, limb});
      return it == high.end() ? 0 : it->second;
    }

    /// Calls @p f(limb, mask) for each limb of word @p word with cells,
    /// limbs ascending.
    template <class F>
    void for_each(std::uint32_t word, F&& f) const {
      for (std::uint32_t limb = 0; limb < kInlineLimbs; ++limb) {
        if (low[word][limb] != 0) {
          f(limb, low[word][limb]);
        }
      }
      if (high.empty()) {
        return;
      }
      for (auto it = high.lower_bound({word, kInlineLimbs});
           it != high.end() && it->first.first == word; ++it) {
        f(it->first.second, it->second);
      }
    }
  };

  /// The insertion index: scratch that exists only while the log is being
  /// built.  An ordered map rather than a hash keeps every lookup
  /// O(log n) for any input; a hash could be flooded with collisions.
  struct Index {
    /// One memory's word ids + 1 by address.  Addresses below the slots'
    /// size resolve here and the rest in `words`; the slots grow to each
    /// new address until the budget is spent, then stay frozen, so no word
    /// is ever in both and a memory's words in `words` all lie past its
    /// slots.
    struct Slots {
      std::vector<std::uint32_t> ids;
      bool frozen = false;
    };
    std::vector<Slots> slots;  ///< by memory
    std::size_t slot_count = 0;  ///< the slots' summed capacities
    std::map<LoggedWord, std::uint32_t> words;  ///< id + 1
    std::map<BitVector, std::uint32_t, ContentOrder> backgrounds;
    /// While true, event cycle bases are non-decreasing in table order and
    /// `events` is unused: the events with the newest base are the ones
    /// from tail_begin on.
    bool events_in_order = true;
    std::size_t tail_begin = 0;
    std::map<DiagnosisEvent, std::uint32_t> events;
    WordCells cells;  ///< by word id, so far

    /// The id + 1 of @p word, 0 while it has none; grows the slots.
    std::uint32_t& slot(LoggedWord word);

    /// The id + 1 of @p word, 0 when it has none.
    [[nodiscard]] std::uint32_t find(LoggedWord word) const;
  };

  /// The insertion index, built from the tables if absent; unseals.
  Index& index();

  /// Whether entries of events @p a and @p b belong to one serial run.
  [[nodiscard]] bool same_run(std::uint32_t a, std::uint32_t b) const {
    const DiagnosisEvent& x = tables_.events[a];
    const DiagnosisEvent& y = tables_.events[b];
    return x.serial && y.serial && x.cycle_base == y.cycle_base;
  }

  /// Bit @p bit of entry @p at decoded.
  [[nodiscard]] DiagnosisRecord record(std::size_t at,
                                       std::uint32_t bit) const {
    const LogEntry& entry = tables_.entries[at];
    const LoggedWord& word = tables_.words[entry.word];
    const DiagnosisEvent& event = tables_.events[entry.event];
    DiagnosisRecord out;
    out.bit = entry.limb * 64 + bit;
    out.cycle = event.cycle(out.bit);
    out.memory_index = word.memory;
    out.addr = word.addr;
    out.phase = event.phase;
    out.element = event.element;
    out.op = event.op;
    out.visit = event.visit;
    out.background = event.background;
    return out;
  }

  std::uint32_t word_id(std::uint32_t memory, std::uint32_t addr) {
    if (index_ != nullptr && memory < index_->slots.size()) {
      const auto& ids = index_->slots[memory].ids;
      if (addr < ids.size() && ids[addr] != 0) {
        return ids[addr] - 1;
      }
    }
    return resolve_word({memory, addr});
  }

  /// word_id's path for everything but a filled slot.
  std::uint32_t resolve_word(LoggedWord word);
  std::uint32_t append_event(const DiagnosisEvent& event);

  /// Word ids in ascending (memory, addr) order, from the index.
  [[nodiscard]] std::vector<std::uint32_t> sorted_word_ids();

  /// Sets the sealed cell masks from @p cells, word @p order[w] as word w.
  void take_cells(const WordCells& cells,
                  const std::vector<std::uint32_t>& order);

  /// The index of @p entry's cell mask in cell_masks_ (sealed only).
  [[nodiscard]] std::size_t cell_mask_of(const LogEntry& entry) const;

  /// Calls @p f(addr, limb, mask) for each cell mask of @p memory's words,
  /// addresses, then limbs, ascending.
  template <class F>
  void for_each_cell_mask(std::uint32_t memory, F&& f) const;

  /// The mask of @p word's cells in @p limb (0 when it has none).
  [[nodiscard]] std::uint64_t cell_mask(LoggedWord word,
                                        std::uint32_t limb) const;

  Tables tables_;
  std::size_t records_ = 0;  ///< set mask bits over all entries
  /// Sealed only: word w's cells are cell_masks_[cell_offsets_[w] ..
  /// cell_offsets_[w + 1]), limbs ascending.
  std::vector<std::uint32_t> cell_offsets_ = std::vector<std::uint32_t>(1);
  std::vector<CellMask> cell_masks_;
  std::size_t cell_count_ = 0;
  bool sealed_ = true;
  std::unique_ptr<Index> index_;
};

/// A forward view over a log's records in the order set out in the header.
/// size() is O(1); dereferencing decodes one record, and advancing is
/// amortized O(1) per record plus O(64) per entry.
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

    DiagnosisRecord operator*() const { return log_->record(at_, bit_); }
    iterator& operator++() {
      const auto& entries = log_->tables_.entries;
      for (std::size_t j = at_ + 1; j < last_; ++j) {
        if ((entries[j].mask >> bit_ & 1) != 0) {
          at_ = j;
          return *this;
        }
      }
      if (rest_ != 0) {
        seek(rest_);
      } else {
        enter(last_);
      }
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.at_ == b.at_ && a.bit_ == b.bit_;
    }

   private:
    friend class RecordView;

    iterator(const DiagnosisLog* log, std::size_t first) : log_(log) {
      enter(first);
    }

    /// Starts the group of entries at @p first: the entry alone, or with
    /// the serial entries after it that share its cycle base and limb.
    void enter(std::size_t first) {
      const Tables& t = log_->tables_;
      first_ = last_ = at_ = first;
      bit_ = 0;
      rest_ = 0;
      if (first == t.entries.size()) {
        return;
      }
      const LogEntry& head = t.entries[first];
      std::uint64_t bits = head.mask;
      for (last_ = first + 1; last_ < t.entries.size(); ++last_) {
        const LogEntry& next = t.entries[last_];
        if (next.limb != head.limb ||
            !log_->same_run(head.event, next.event)) {
          break;
        }
        bits |= next.mask;
      }
      seek(bits);
    }

    /// Moves to the lowest bit of @p bits, at the group's first entry that
    /// has it.
    void seek(std::uint64_t bits) {
      const auto& entries = log_->tables_.entries;
      bit_ = static_cast<std::uint32_t>(std::countr_zero(bits));
      rest_ = bits & (bits - 1);
      at_ = first_;
      while ((entries[at_].mask >> bit_ & 1) == 0) {
        ++at_;
      }
    }

    const DiagnosisLog* log_ = nullptr;
    std::size_t at_ = 0;     ///< entry of the current record
    std::size_t first_ = 0;  ///< the current group: entries [first_, last_)
    std::size_t last_ = 0;
    std::uint64_t rest_ = 0;  ///< the group's bits above bit_
    std::uint32_t bit_ = 0;   ///< the current record's bit within its limb
  };

  explicit RecordView(const DiagnosisLog& log) : log_(&log) {}

  [[nodiscard]] iterator begin() const { return {log_, 0}; }
  [[nodiscard]] iterator end() const {
    return {log_, log_->tables_.entries.size()};
  }
  [[nodiscard]] std::size_t size() const { return log_->records_; }
  [[nodiscard]] bool empty() const { return size() == 0; }

 private:
  const DiagnosisLog* log_;
};

inline DiagnosisLog::RecordView DiagnosisLog::records() const {
  return RecordView(*this);
}

/// @p log itself when it is sealed, otherwise a sealed copy placed in
/// @p copy.  Readers that need the canonical tables (the codec, the
/// per-cell queries, the syndrome fold, soft-error scoring) read through
/// it, so a log still being built reads the same as its sealed form.
[[nodiscard]] const DiagnosisLog& sealed_form(
    const DiagnosisLog& log, std::optional<DiagnosisLog>& copy);

}  // namespace fastdiag::bisd
