#include "bisd/record.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <utility>

#include "util/require.h"

namespace fastdiag::bisd {

namespace {

constexpr std::uint32_t kUnseen = std::numeric_limits<std::uint32_t>::max();

}  // namespace

bool DiagnosisLog::ContentOrder::operator()(const BitVector& a,
                                            const BitVector& b) const {
  if (a.width() != b.width()) {
    return a.width() < b.width();
  }
  return std::lexicographical_compare(a.word_data(),
                                      a.word_data() + a.word_count(),
                                      b.word_data(),
                                      b.word_data() + b.word_count());
}

DiagnosisLog::DiagnosisLog() = default;
DiagnosisLog::~DiagnosisLog() = default;
DiagnosisLog::DiagnosisLog(DiagnosisLog&& other) noexcept = default;
DiagnosisLog& DiagnosisLog::operator=(DiagnosisLog&& other) noexcept =
    default;

DiagnosisLog::DiagnosisLog(const DiagnosisLog& other)
    : tables_(other.tables_),
      records_(other.records_),
      cell_offsets_(other.cell_offsets_),
      cell_masks_(other.cell_masks_),
      cell_count_(other.cell_count_) {
  if (!other.sealed_) {
    (void)index();
  }
}

DiagnosisLog& DiagnosisLog::operator=(const DiagnosisLog& other) {
  if (this != &other) {
    DiagnosisLog copy(other);
    *this = std::move(copy);
  }
  return *this;
}

std::uint32_t& DiagnosisLog::Index::slot(LoggedWord word) {
  if (word.memory < kIndexedMemories && word.addr < kIndexedWords) {
    if (word.memory >= slots.size()) {
      slots.resize(std::size_t{word.memory} + 1);
    }
    Slots& memory = slots[word.memory];
    auto& ids = memory.ids;
    const std::size_t grown = std::size_t{word.addr} + 1;
    if (grown > ids.capacity() && !memory.frozen) {
      // Doubles like a vector would, within what is left of the budget.
      const std::size_t held = ids.capacity();
      const std::size_t room = held + (kMaxIndexSlots - slot_count);
      if (grown <= room) {
        ids.reserve(std::min(std::max(grown, 2 * held), room));
        slot_count += ids.capacity() - held;
      } else {
        memory.frozen = true;
      }
    }
    if (grown > ids.size() && !memory.frozen) {
      ids.resize(grown, 0);
    }
    if (word.addr < ids.size()) {
      return ids[word.addr];
    }
  }
  return words[word];
}

std::uint32_t DiagnosisLog::Index::find(LoggedWord word) const {
  if (word.memory < slots.size() &&
      word.addr < slots[word.memory].ids.size()) {
    return slots[word.memory].ids[word.addr];
  }
  const auto it = words.find(word);
  return it == words.end() ? 0 : it->second;
}

DiagnosisLog::Index& DiagnosisLog::index() {
  sealed_ = false;
  if (index_ == nullptr) {
    // The index holds the cells while the log is being built.
    cell_offsets_ = std::vector<std::uint32_t>(1);
    cell_masks_ = {};
    cell_count_ = 0;
    index_ = std::make_unique<Index>();
    for (std::uint32_t id = 0; id < tables_.words.size(); ++id) {
      index_->slot(tables_.words[id]) = id + 1;
    }
    index_->cells.low.resize(tables_.words.size());
    for (const LogEntry& entry : tables_.entries) {
      index_->cells.add(entry.word, entry.limb, entry.mask);
    }
    for (std::uint32_t id = 1; id < tables_.backgrounds.size(); ++id) {
      index_->backgrounds.emplace(tables_.backgrounds[id], id);
    }
    if (!tables_.events.empty()) {
      index_->events_in_order = false;
      for (std::uint32_t id = 0; id < tables_.events.size(); ++id) {
        index_->events.emplace(tables_.events[id], id);
      }
    }
  }
  return *index_;
}

std::uint32_t DiagnosisLog::intern(const BitVector& background) {
  if (background.empty()) {
    return 0;
  }
  Index& index = this->index();
  const auto it = index.backgrounds.lower_bound(background);
  if (it != index.backgrounds.end() && it->first == background) {
    return it->second;
  }
  require(tables_.backgrounds.size() < kUnseen,
          "DiagnosisLog: background table full");
  const auto id = static_cast<std::uint32_t>(tables_.backgrounds.size());
  tables_.backgrounds.push_back(background);
  index.backgrounds.emplace_hint(it, background, id);
  return id;
}

std::uint32_t DiagnosisLog::intern(const DiagnosisEvent& event) {
  require(event.background < tables_.backgrounds.size(),
          "DiagnosisLog: background id not interned in this log");
  Index& index = this->index();
  auto& events = tables_.events;
  if (index.events_in_order) {
    if (events.empty() || event.cycle_base > events.back().cycle_base) {
      index.tail_begin = events.size();
      return append_event(event);
    }
    if (event.cycle_base == events.back().cycle_base &&
        events.size() - index.tail_begin < kTailScan) {
      for (std::size_t id = index.tail_begin; id < events.size(); ++id) {
        if (events[id] == event) {
          return static_cast<std::uint32_t>(id);
        }
      }
      return append_event(event);
    }
    // A base went backwards or one base gathered many events: switch to
    // the ordered map for good.
    index.events_in_order = false;
    for (std::uint32_t id = 0; id < events.size(); ++id) {
      index.events.emplace(events[id], id);
    }
  }
  const auto [it, inserted] = index.events.try_emplace(
      event, static_cast<std::uint32_t>(events.size()));
  if (inserted) {
    append_event(event);
  }
  return it->second;
}

std::uint32_t DiagnosisLog::append_event(const DiagnosisEvent& event) {
  require(tables_.events.size() < kUnseen, "DiagnosisLog: event table full");
  tables_.events.push_back(event);
  return static_cast<std::uint32_t>(tables_.events.size() - 1);
}

std::uint32_t DiagnosisLog::resolve_word(LoggedWord word) {
  Index& index = this->index();
  std::uint32_t& slot = index.slot(word);
  if (slot == 0) {
    require(tables_.words.size() < kUnseen, "DiagnosisLog: word table full");
    tables_.words.push_back(word);
    index.cells.low.emplace_back();
    slot = static_cast<std::uint32_t>(tables_.words.size());
  }
  return slot - 1;
}

void DiagnosisLog::add(const DiagnosisRecord& record) {
  DiagnosisEvent event;
  event.cycle_base = record.cycle;
  event.phase = record.phase;
  event.element = record.element;
  event.op = record.op;
  event.visit = record.visit;
  event.background = record.background;
  const std::uint32_t id = intern(event);
  add_word(record.memory_index, record.addr, record.bit / 64,
           std::uint64_t{1} << (record.bit % 64), id);
}

std::vector<std::uint32_t> DiagnosisLog::sorted_word_ids() {
  // Slots walk in address order and the map is ordered by (memory, addr);
  // a memory's words in the map all lie past its slots, so a merge by
  // memory sorts.
  const Index& index = this->index();
  std::vector<std::uint32_t> ids;
  ids.reserve(tables_.words.size());
  auto held = index.words.begin();
  for (std::uint32_t memory = 0; memory < index.slots.size(); ++memory) {
    const auto& slots = index.slots[memory].ids;
    if (slots.empty()) {
      continue;
    }
    for (; held != index.words.end() && held->first.memory < memory; ++held) {
      ids.push_back(held->second - 1);
    }
    for (const std::uint32_t slot : slots) {
      if (slot != 0) {
        ids.push_back(slot - 1);
      }
    }
  }
  for (; held != index.words.end(); ++held) {
    ids.push_back(held->second - 1);
  }
  ensure(ids.size() == tables_.words.size(),
         "DiagnosisLog: insertion index lost a word");
  return ids;
}

void DiagnosisLog::seal() {
  if (sealed_) {
    return;
  }
  Tables& t = tables_;
  const std::vector<std::uint32_t> order = sorted_word_ids();
  std::vector<std::uint32_t> word_rank(order.size());
  for (std::uint32_t rank = 0; rank < order.size(); ++rank) {
    word_rank[order[rank]] = rank;
  }
  // One pass renumbers words by rank and events by first use.
  std::vector<std::uint32_t> event_rank(t.events.size(), kUnseen);
  std::uint32_t events_used = 0;
  for (LogEntry& entry : t.entries) {
    entry.word = word_rank[entry.word];
    std::uint32_t& rank = event_rank[entry.event];
    if (rank == kUnseen) {
      rank = events_used++;
    }
    entry.event = rank;
  }
  std::vector<DiagnosisEvent> events(events_used);
  for (std::size_t id = 0; id < t.events.size(); ++id) {
    if (event_rank[id] != kUnseen) {
      events[event_rank[id]] = t.events[id];
    }
  }
  // Non-empty backgrounds by first use among the events; id 0 stays empty.
  std::vector<std::uint32_t> background_rank(t.backgrounds.size(), kUnseen);
  background_rank[0] = 0;
  std::uint32_t backgrounds_used = 1;
  for (DiagnosisEvent& event : events) {
    std::uint32_t& rank = background_rank[event.background];
    if (rank == kUnseen) {
      rank = backgrounds_used++;
    }
    event.background = rank;
  }
  std::vector<BitVector> backgrounds(backgrounds_used);
  for (std::size_t id = 1; id < t.backgrounds.size(); ++id) {
    if (background_rank[id] != kUnseen) {
      backgrounds[background_rank[id]] = std::move(t.backgrounds[id]);
    }
  }
  std::vector<LoggedWord> words(order.size());
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    words[rank] = t.words[order[rank]];
  }
  t.words = std::move(words);
  t.events = std::move(events);
  t.backgrounds = std::move(backgrounds);
  if (t.entries.capacity() - t.entries.size() > t.entries.size() / 8) {
    t.entries.shrink_to_fit();
  }
  take_cells(index_->cells, order);
  index_.reset();
  sealed_ = true;
}

void DiagnosisLog::take_cells(const WordCells& cells,
                              const std::vector<std::uint32_t>& order) {
  std::size_t masks = cells.high.size();
  for (const auto& low : cells.low) {
    masks += static_cast<std::size_t>(std::count_if(
        low.begin(), low.end(), [](std::uint64_t m) { return m != 0; }));
  }
  std::vector<std::uint32_t> offsets(order.size() + 1);
  std::vector<CellMask> cell_masks;
  cell_masks.reserve(masks);
  std::size_t count = 0;
  for (std::size_t w = 0; w < order.size(); ++w) {
    offsets[w] = static_cast<std::uint32_t>(cell_masks.size());
    cells.for_each(order[w], [&](std::uint32_t limb, std::uint64_t mask) {
      cell_masks.push_back({limb, mask});
      count += static_cast<std::size_t>(std::popcount(mask));
    });
  }
  offsets.back() = static_cast<std::uint32_t>(cell_masks.size());
  cell_offsets_ = std::move(offsets);
  cell_masks_ = std::move(cell_masks);
  cell_count_ = count;
}

std::size_t DiagnosisLog::cell_mask_of(const LogEntry& entry) const {
  if (cell_offsets_[entry.word + 1] - cell_offsets_[entry.word] == 1) {
    return cell_offsets_[entry.word];  // most words fail in one limb
  }
  const auto first = cell_masks_.begin() + cell_offsets_[entry.word];
  const auto last = cell_masks_.begin() + cell_offsets_[entry.word + 1];
  return static_cast<std::size_t>(
      std::lower_bound(first, last, entry.limb,
                       [](const CellMask& m, std::uint32_t limb) {
                         return m.limb < limb;
                       }) -
      cell_masks_.begin());
}

std::optional<DiagnosisLog> DiagnosisLog::from_sealed_tables(
    Tables tables, std::string& why) {
  const auto reject = [&why](const char* rule) -> std::optional<DiagnosisLog> {
    why = rule;
    return std::nullopt;
  };
  const auto& backgrounds = tables.backgrounds;
  if (backgrounds.empty() || !backgrounds[0].empty()) {
    return reject("background 0 is not the empty background");
  }
  std::vector<std::uint32_t> ids(backgrounds.size() - 1);
  std::iota(ids.begin(), ids.end(), 1);
  std::sort(ids.begin(), ids.end(), [&](std::uint32_t a, std::uint32_t b) {
    return ContentOrder{}(backgrounds[a], backgrounds[b]);
  });
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (backgrounds[ids[i]].empty() ||
        (i > 0 && backgrounds[ids[i]] == backgrounds[ids[i - 1]])) {
      return reject("repeated background");
    }
  }

  std::uint64_t backgrounds_seen = 1;
  for (const DiagnosisEvent& event : tables.events) {
    if (event.background >= backgrounds_seen) {
      if (event.background != backgrounds_seen ||
          event.background >= backgrounds.size()) {
        return reject("background id out of range or first-use order");
      }
      ++backgrounds_seen;
    }
  }
  if (backgrounds_seen != backgrounds.size()) {
    return reject("unused background");
  }
  ids.resize(tables.events.size());
  std::iota(ids.begin(), ids.end(), 0);
  std::sort(ids.begin(), ids.end(), [&](std::uint32_t a, std::uint32_t b) {
    return tables.events[a] < tables.events[b];
  });
  for (std::size_t i = 1; i < ids.size(); ++i) {
    if (tables.events[ids[i]] == tables.events[ids[i - 1]]) {
      return reject("repeated event");
    }
  }

  for (std::size_t i = 1; i < tables.words.size(); ++i) {
    if (!(tables.words[i - 1] < tables.words[i])) {
      return reject("words not in strictly ascending order");
    }
  }
  std::vector<bool> word_used(tables.words.size(), false);
  std::size_t words_used = 0;
  std::uint64_t events_seen = 0;
  std::size_t records = 0;
  for (std::size_t i = 0; i < tables.entries.size(); ++i) {
    const LogEntry& entry = tables.entries[i];
    if (entry.word >= tables.words.size()) {
      return reject("word id out of range");
    }
    if (entry.event >= events_seen) {
      if (entry.event != events_seen ||
          entry.event >= tables.events.size()) {
        return reject("event id out of range or first-use order");
      }
      ++events_seen;
    }
    if (entry.mask == 0 || entry.limb >= kMaxLimbs) {
      return reject("empty mask or limb past 2^32 bits");
    }
    if (i > 0 && entry.limb < tables.entries[i - 1].limb) {
      const DiagnosisEvent& before = tables.events[tables.entries[i - 1].event];
      const DiagnosisEvent& event = tables.events[entry.event];
      if (before.serial && event.serial &&
          before.cycle_base == event.cycle_base) {
        return reject("limbs decrease within a serial run");
      }
    }
    if (!word_used[entry.word]) {
      word_used[entry.word] = true;
      ++words_used;
    }
    records += static_cast<std::size_t>(std::popcount(entry.mask));
  }
  if (events_seen != tables.events.size()) {
    return reject("unused event");
  }
  if (words_used != tables.words.size()) {
    return reject("unused word");
  }
  DiagnosisLog log;
  log.tables_ = std::move(tables);
  log.records_ = records;
  WordCells cells;
  cells.low.resize(log.tables_.words.size());
  for (const LogEntry& entry : log.tables_.entries) {
    cells.add(entry.word, entry.limb, entry.mask);
  }
  std::vector<std::uint32_t> order(log.tables_.words.size());
  std::iota(order.begin(), order.end(), 0);
  log.take_cells(cells, order);
  return log;
}

template <class F>
void DiagnosisLog::for_each_cell_mask(std::uint32_t memory, F&& f) const {
  if (index_ != nullptr) {
    // A log being built: the memory's slots in address order, then its
    // words in the map, which all lie past the slots.
    const auto word = [&](std::uint32_t id) {
      index_->cells.for_each(id, [&](std::uint32_t limb, std::uint64_t mask) {
        f(tables_.words[id].addr, limb, mask);
      });
    };
    if (memory < index_->slots.size()) {
      for (const std::uint32_t slot : index_->slots[memory].ids) {
        if (slot != 0) {
          word(slot - 1);
        }
      }
    }
    for (auto it = index_->words.lower_bound({memory, 0});
         it != index_->words.end() && it->first.memory == memory; ++it) {
      word(it->second - 1);
    }
    return;
  }
  const auto& words = tables_.words;
  const auto below = [memory](const LoggedWord& word) {
    return word.memory < memory;
  };
  for (auto w = static_cast<std::size_t>(
           std::partition_point(words.begin(), words.end(), below) -
           words.begin());
       w < words.size() && words[w].memory == memory; ++w) {
    for (std::uint32_t c = cell_offsets_[w]; c < cell_offsets_[w + 1]; ++c) {
      f(words[w].addr, cell_masks_[c].limb, cell_masks_[c].mask);
    }
  }
}

std::vector<sram::CellCoord> DiagnosisLog::cells(
    std::size_t memory_index) const {
  std::vector<sram::CellCoord> out;
  if (memory_index > std::numeric_limits<std::uint32_t>::max()) {
    return out;
  }
  for_each_cell_mask(static_cast<std::uint32_t>(memory_index),
                     [&out](std::uint32_t addr, std::uint32_t limb,
                            std::uint64_t mask) {
                       for (; mask != 0; mask &= mask - 1) {
                         out.push_back(
                             {addr, limb * 64 + static_cast<std::uint32_t>(
                                                    std::countr_zero(mask))});
                       }
                     });
  return out;
}

std::vector<std::uint32_t> DiagnosisLog::faulty_rows(
    std::size_t memory_index) const {
  std::vector<std::uint32_t> rows;
  if (memory_index > std::numeric_limits<std::uint32_t>::max()) {
    return rows;
  }
  for_each_cell_mask(static_cast<std::uint32_t>(memory_index),
                     [&rows](std::uint32_t addr, std::uint32_t,
                             std::uint64_t) {
                       if (rows.empty() || rows.back() != addr) {
                         rows.push_back(addr);
                       }
                     });
  return rows;
}

std::uint64_t DiagnosisLog::cell_mask(LoggedWord word,
                                      std::uint32_t limb) const {
  if (index_ != nullptr) {
    const std::uint32_t id = index_->find(word);
    return id == 0 ? 0 : index_->cells.get(id - 1, limb);
  }
  const auto& words = tables_.words;
  const auto found = std::lower_bound(words.begin(), words.end(), word);
  if (found == words.end() || *found != word) {
    return 0;
  }
  const auto w = static_cast<std::size_t>(found - words.begin());
  const auto first = cell_masks_.begin() + cell_offsets_[w];
  const auto last = cell_masks_.begin() + cell_offsets_[w + 1];
  const auto cells = std::lower_bound(
      first, last, limb,
      [](const CellMask& m, std::uint32_t l) { return m.limb < l; });
  return cells != last && cells->limb == limb ? cells->mask : 0;
}

bool DiagnosisLog::contains(std::size_t memory_index,
                            sram::CellCoord cell) const {
  if (memory_index > std::numeric_limits<std::uint32_t>::max()) {
    return false;
  }
  const LoggedWord word{static_cast<std::uint32_t>(memory_index), cell.row};
  return (cell_mask(word, cell.bit / 64) >> (cell.bit % 64) & 1) != 0;
}

std::size_t DiagnosisLog::distinct_cell_count() const {
  if (index_ == nullptr) {
    return cell_count_;
  }
  std::size_t count = 0;
  for (std::uint32_t w = 0; w < index_->cells.low.size(); ++w) {
    index_->cells.for_each(w, [&count](std::uint32_t, std::uint64_t mask) {
      count += static_cast<std::size_t>(std::popcount(mask));
    });
  }
  return count;
}

DiagnosisLog::CellGroups DiagnosisLog::entries_by_cell() const {
  if (!sealed_) {
    std::optional<DiagnosisLog> copy;
    return sealed_form(*this, copy).entries_by_cell();
  }
  // Cells are numbered in cell-mask order, which is (memory, addr, bit)
  // order: first[k] cells lie before cell mask k.
  CellGroups groups;
  groups.cells.reserve(cell_count_);
  std::vector<std::uint32_t> first(cell_masks_.size());
  for (std::size_t w = 0; w < tables_.words.size(); ++w) {
    const LoggedWord& word = tables_.words[w];
    for (std::uint32_t k = cell_offsets_[w]; k < cell_offsets_[w + 1]; ++k) {
      first[k] = static_cast<std::uint32_t>(groups.cells.size());
      for (std::uint64_t bits = cell_masks_[k].mask; bits != 0;
           bits &= bits - 1) {
        groups.cells.push_back(
            {word.memory, word.addr,
             cell_masks_[k].limb * 64 +
                 static_cast<std::uint32_t>(std::countr_zero(bits))});
      }
    }
  }
  // Each record's cell: its bit's rank among its cell mask's, past
  // first[k].  Records are numbered in log order, bits ascending.
  const auto& entries = tables_.entries;
  std::vector<std::uint32_t> cell_of(records_);
  groups.offsets.assign(groups.cells.size() + 1, 0);
  std::size_t r = 0;
  for (const LogEntry& entry : entries) {
    const std::size_t k = cell_mask_of(entry);
    for (std::uint64_t bits = entry.mask; bits != 0; bits &= bits - 1) {
      const std::uint64_t below = (bits & (0 - bits)) - 1;
      const std::uint32_t c =
          first[k] + static_cast<std::uint32_t>(
                         std::popcount(cell_masks_[k].mask & below));
      cell_of[r++] = c;
      ++groups.offsets[c + 1];
    }
  }
  std::partial_sum(groups.offsets.begin(), groups.offsets.end(),
                   groups.offsets.begin());
  // Entries in log order, so each cell's come in log order too.
  groups.order.resize(records_);
  std::vector<std::uint32_t>& cursor = first;
  cursor.assign(groups.offsets.begin(), groups.offsets.end() - 1);
  r = 0;
  for (std::uint32_t i = 0; i < entries.size(); ++i) {
    for (std::uint64_t bits = entries[i].mask; bits != 0; bits &= bits - 1) {
      groups.order[cursor[cell_of[r++]]++] = i;
    }
  }
  return groups;
}

std::string DiagnosisLog::to_string(const DiagnosisRecord& record) const {
  return "mem" + std::to_string(record.memory_index) + " addr=" +
         std::to_string(record.addr) + " bit=" + std::to_string(record.bit) +
         " bg=" + background(record).to_string() +
         " phase=" + std::to_string(record.phase) +
         " element=" + std::to_string(record.element) +
         " op=" + std::to_string(record.op) +
         " visit=" + std::to_string(record.visit) +
         " cycle=" + std::to_string(record.cycle);
}

std::string DiagnosisLog::to_string() const {
  std::string out;
  for (const DiagnosisRecord record : records()) {
    out += to_string(record);
    out += '\n';
  }
  return out;
}

std::string DiagnosisLog::to_csv() const {
  std::string out = "memory,addr,bit,background,phase,element,op,visit,cycle\n";
  for (const DiagnosisRecord r : records()) {
    out += std::to_string(r.memory_index) + ',' + std::to_string(r.addr) +
           ',' + std::to_string(r.bit) + ',' + background(r).to_string() +
           ',' + std::to_string(r.phase) + ',' + std::to_string(r.element) +
           ',' + std::to_string(r.op) + ',' + std::to_string(r.visit) + ',' +
           std::to_string(r.cycle) + '\n';
  }
  return out;
}

const DiagnosisLog& sealed_form(const DiagnosisLog& log,
                                std::optional<DiagnosisLog>& copy) {
  if (log.sealed()) {
    return log;
  }
  copy.emplace(log);
  copy->seal();
  return *copy;
}

}  // namespace fastdiag::bisd
