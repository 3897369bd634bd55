#include "bisd/record.h"

#include <algorithm>
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
    : tables_(other.tables_), sealed_(other.sealed_) {}

DiagnosisLog& DiagnosisLog::operator=(const DiagnosisLog& other) {
  if (this != &other) {
    tables_ = other.tables_;
    sealed_ = other.sealed_;
    index_.reset();
  }
  return *this;
}

DiagnosisLog::Index& DiagnosisLog::index() {
  sealed_ = false;
  if (index_ == nullptr) {
    index_ = std::make_unique<Index>();
    for (std::uint32_t id = 0; id < tables_.cells.size(); ++id) {
      index_->cells.emplace(tables_.cells[id], id);
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

std::uint32_t DiagnosisLog::append_cell(const LoggedCell& cell) {
  require(tables_.cells.size() < kUnseen, "DiagnosisLog: cell table full");
  tables_.cells.push_back(cell);
  return static_cast<std::uint32_t>(tables_.cells.size() - 1);
}

void DiagnosisLog::index_memory(std::uint32_t memory, std::uint32_t words,
                                std::uint32_t bits) {
  Index& index = this->index();
  if (memory >= kIndexedMemories || words == 0 || bits == 0 ||
      std::uint64_t{words} * bits > kMaxMemorySlots) {
    return;
  }
  if (memory >= index.dense.size()) {
    index.dense.resize(std::size_t{memory} + 1);
  }
  Index::Dense& dense = index.dense[memory];
  if (dense.slots.empty()) {
    dense.words = words;
    dense.bits = bits;
  }
}

std::uint32_t DiagnosisLog::resolve_cell(std::uint32_t memory,
                                         sram::CellCoord cell) {
  Index& index = this->index();
  const LoggedCell key{memory, cell.row, cell.bit};
  if (memory < index.dense.size() && index.dense[memory].words != 0) {
    Index::Dense& dense = index.dense[memory];
    const bool inside = cell.row < dense.words && cell.bit < dense.bits;
    if (inside && dense.slots.empty()) {
      // First record of a declared memory: allocate its table unless the
      // budget is spent or the map already holds some of its cells.
      const std::size_t slots = std::size_t{dense.words} * dense.bits;
      const auto held = index.cells.lower_bound({memory, 0, 0});
      if (index.dense_slots + slots <= kMaxIndexSlots &&
          (held == index.cells.end() || held->first.memory != memory)) {
        dense.slots.assign(slots, 0);
        index.dense_slots += slots;
      } else {
        dense = Index::Dense{};
      }
    }
    if (!dense.slots.empty()) {
      if (inside) {
        std::uint32_t& slot =
            dense.slots[std::size_t{cell.row} * dense.bits + cell.bit];
        if (slot == 0) {
          slot = append_cell(key) + 1;
        }
        return slot - 1;
      }
      // A cell outside the declared geometry: the memory's cells move to
      // the map, which then serves it alone.
      for (std::size_t s = 0; s < dense.slots.size(); ++s) {
        if (dense.slots[s] != 0) {
          index.cells.emplace(
              LoggedCell{memory, static_cast<std::uint32_t>(s / dense.bits),
                         static_cast<std::uint32_t>(s % dense.bits)},
              dense.slots[s] - 1);
        }
      }
      index.dense_slots -= dense.slots.size();
      dense = Index::Dense{};
    }
  }
  const auto [it, inserted] = index.cells.try_emplace(
      key, static_cast<std::uint32_t>(tables_.cells.size()));
  if (inserted) {
    append_cell(key);
  }
  return it->second;
}

void DiagnosisLog::add(const DiagnosisRecord& record) {
  DiagnosisEvent event;
  event.cycle_base = record.cycle;
  event.phase = record.phase;
  event.element = record.element;
  event.op = record.op;
  event.visit = record.visit;
  event.background = record.background;
  add(record.memory_index, record.cell(), intern(event));
}

std::vector<std::uint32_t> DiagnosisLog::sorted_cell_ids() {
  // Dense tables walk in (addr, bit) order and the map is ordered by
  // (memory, addr, bit); no memory is in both, so a merge by memory sorts.
  const Index& index = this->index();
  std::vector<std::uint32_t> ids;
  ids.reserve(tables_.cells.size());
  auto held = index.cells.begin();
  for (std::uint32_t memory = 0; memory < index.dense.size(); ++memory) {
    const auto& slots = index.dense[memory].slots;
    if (slots.empty()) {
      continue;
    }
    for (; held != index.cells.end() && held->first.memory < memory; ++held) {
      ids.push_back(held->second);
    }
    for (const std::uint32_t slot : slots) {
      if (slot != 0) {
        ids.push_back(slot - 1);
      }
    }
  }
  for (; held != index.cells.end(); ++held) {
    ids.push_back(held->second);
  }
  ensure(ids.size() == tables_.cells.size(),
         "DiagnosisLog: insertion index lost a cell");
  return ids;
}

void DiagnosisLog::seal() {
  if (sealed_) {
    return;
  }
  Tables& t = tables_;
  const std::vector<std::uint32_t> order = sorted_cell_ids();
  std::vector<std::uint32_t> cell_rank(order.size());
  for (std::uint32_t rank = 0; rank < order.size(); ++rank) {
    cell_rank[order[rank]] = rank;
  }
  // One pass renumbers cells by rank and events by first use.
  std::vector<std::uint32_t> event_rank(t.events.size(), kUnseen);
  std::uint32_t events_used = 0;
  for (LogEntry& entry : t.entries) {
    entry.cell = cell_rank[entry.cell];
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
  std::vector<LoggedCell> cells(order.size());
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    cells[rank] = t.cells[order[rank]];
  }
  t.cells = std::move(cells);
  t.events = std::move(events);
  t.backgrounds = std::move(backgrounds);
  if (t.entries.capacity() - t.entries.size() > t.entries.size() / 8) {
    t.entries.shrink_to_fit();
  }
  index_.reset();
  sealed_ = true;
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

  for (std::size_t i = 1; i < tables.cells.size(); ++i) {
    if (!(tables.cells[i - 1] < tables.cells[i])) {
      return reject("cells not in strictly ascending order");
    }
  }
  std::vector<bool> cell_used(tables.cells.size(), false);
  std::size_t cells_used = 0;
  std::uint64_t events_seen = 0;
  for (const LogEntry& entry : tables.entries) {
    if (entry.cell >= tables.cells.size()) {
      return reject("cell id out of range");
    }
    if (entry.event >= events_seen) {
      if (entry.event != events_seen ||
          entry.event >= tables.events.size()) {
        return reject("event id out of range or first-use order");
      }
      ++events_seen;
    }
    if (!cell_used[entry.cell]) {
      cell_used[entry.cell] = true;
      ++cells_used;
    }
  }
  if (events_seen != tables.events.size()) {
    return reject("unused event");
  }
  if (cells_used != tables.cells.size()) {
    return reject("unused cell");
  }
  DiagnosisLog log;
  log.tables_ = std::move(tables);
  return log;
}

std::vector<sram::CellCoord> DiagnosisLog::cells(
    std::size_t memory_index) const {
  std::vector<sram::CellCoord> out;
  if (memory_index > std::numeric_limits<std::uint32_t>::max()) {
    return out;
  }
  const auto memory = static_cast<std::uint32_t>(memory_index);
  const auto& cells = tables_.cells;
  if (sealed_) {
    const auto lo = std::lower_bound(cells.begin(), cells.end(),
                                     LoggedCell{memory, 0, 0});
    auto hi = lo;
    while (hi != cells.end() && hi->memory == memory) {
      ++hi;
    }
    out.reserve(static_cast<std::size_t>(hi - lo));
    for (auto it = lo; it != hi; ++it) {
      out.push_back({it->addr, it->bit});
    }
    return out;
  }
  for (const LoggedCell& cell : cells) {
    if (cell.memory == memory) {
      out.push_back({cell.addr, cell.bit});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::uint32_t> DiagnosisLog::faulty_rows(
    std::size_t memory_index) const {
  std::vector<std::uint32_t> rows;
  for (const sram::CellCoord& cell : cells(memory_index)) {
    if (rows.empty() || rows.back() != cell.row) {
      rows.push_back(cell.row);
    }
  }
  return rows;
}

bool DiagnosisLog::contains(std::size_t memory_index,
                            sram::CellCoord cell) const {
  if (memory_index > std::numeric_limits<std::uint32_t>::max()) {
    return false;
  }
  const LoggedCell key{static_cast<std::uint32_t>(memory_index), cell.row,
                       cell.bit};
  if (index_ != nullptr) {
    if (key.memory < index_->dense.size()) {
      const Index::Dense& dense = index_->dense[key.memory];
      if (!dense.slots.empty() && key.addr < dense.words &&
          key.bit < dense.bits) {
        return dense.slots[std::size_t{key.addr} * dense.bits + key.bit] != 0;
      }
    }
    return index_->cells.count(key) != 0;
  }
  if (sealed_) {
    return std::binary_search(tables_.cells.begin(), tables_.cells.end(),
                              key);
  }
  return std::find(tables_.cells.begin(), tables_.cells.end(), key) !=
         tables_.cells.end();
}

DiagnosisLog::CellGroups DiagnosisLog::entries_by_cell() const {
  CellGroups groups;
  groups.offsets.assign(tables_.cells.size() + 1, 0);
  for (const LogEntry& entry : tables_.entries) {
    ++groups.offsets[entry.cell + 1];
  }
  std::partial_sum(groups.offsets.begin(), groups.offsets.end(),
                   groups.offsets.begin());
  groups.order.resize(tables_.entries.size());
  std::vector<std::uint32_t> cursor(groups.offsets.begin(),
                                    groups.offsets.end() - 1);
  for (std::uint32_t i = 0; i < tables_.entries.size(); ++i) {
    groups.order[cursor[tables_.entries[i].cell]++] = i;
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
