#include "diagnosis/syndrome.h"

#include <algorithm>
#include <optional>
#include <utility>

namespace fastdiag::diagnosis {

std::string ReadKey::to_string() const {
  return "p" + std::to_string(phase) + "e" + std::to_string(element) + "v" +
         std::to_string(visit) + "o" + std::to_string(op);
}

std::string CellSyndrome::to_string() const {
  std::string out = "(" + std::to_string(cell.row) + "," +
                    std::to_string(cell.bit) + "):";
  for (const auto& key : failed_reads) {
    out += ' ';
    out += key.to_string();
  }
  return out;
}

const CellSyndrome* MemorySyndrome::find(sram::CellCoord cell) const {
  const auto it = std::lower_bound(
      cells.begin(), cells.end(), cell,
      [](const CellSyndrome& s, sram::CellCoord c) { return s.cell < c; });
  return it != cells.end() && it->cell == cell ? &*it : nullptr;
}

std::map<std::uint32_t, std::size_t> MemorySyndrome::row_histogram() const {
  std::map<std::uint32_t, std::size_t> rows;
  for (const auto& syndrome : cells) {
    ++rows[syndrome.cell.row];
  }
  return rows;
}

std::vector<MemorySyndrome> extract_syndromes(const bisd::DiagnosisLog& log,
                                              std::size_t memory_count) {
  std::vector<MemorySyndrome> out(memory_count);
  for (std::size_t i = 0; i < memory_count; ++i) {
    out[i].memory_index = i;
  }
  // The grouped cells ascend by (memory, addr, bit), so each memory's
  // syndromes come out in cell order, and grouping the entries by cell
  // hands every cell its failed reads without decoding a record.
  std::optional<bisd::DiagnosisLog> copy;
  const bisd::DiagnosisLog& sealed = bisd::sealed_form(log, copy);
  const auto& tables = sealed.tables();
  const auto groups = sealed.entries_by_cell();
  std::vector<ReadKey> reads;
  for (std::size_t c = 0; c < groups.cells.size(); ++c) {
    const bisd::LoggedCell& cell = groups.cells[c];
    if (cell.memory >= memory_count) {
      break;  // cells ascend by memory: the rest are out of range too
    }
    reads.clear();
    for (std::uint32_t j = groups.offsets[c]; j < groups.offsets[c + 1];
         ++j) {
      const bisd::DiagnosisEvent& event =
          tables.events[tables.entries[groups.order[j]].event];
      reads.push_back(
          ReadKey{event.phase, event.element, event.visit, event.op});
    }
    std::sort(reads.begin(), reads.end());
    reads.erase(std::unique(reads.begin(), reads.end()), reads.end());
    CellSyndrome syndrome;
    syndrome.cell = {cell.addr, cell.bit};
    syndrome.failed_reads = reads;
    syndrome.record_count = groups.offsets[c + 1] - groups.offsets[c];
    out[cell.memory].cells.push_back(std::move(syndrome));
  }
  return out;
}

}  // namespace fastdiag::diagnosis
