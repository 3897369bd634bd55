#include "bisd/record.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace fastdiag::bisd {

std::string DiagnosisRecord::to_string() const {
  return "mem" + std::to_string(memory_index) + " addr=" +
         std::to_string(addr) + " bit=" + std::to_string(bit) + " bg=" +
         background.to_string() + " phase=" + std::to_string(phase) +
         " element=" + std::to_string(element) + " op=" +
         std::to_string(op) + " visit=" + std::to_string(visit) +
         " cycle=" + std::to_string(cycle);
}

namespace {

/// Sorts and deduplicates @p keys in place (all < @p universe).  A dense
/// key range — a memory's cells or rows, the common case — goes through a
/// bitmap walked in order; a sparse one through a sort.
void distinct_ascending(std::vector<std::uint64_t>& keys,
                        std::uint64_t universe) {
  if (universe > 8 * static_cast<std::uint64_t>(keys.size()) + 4096) {
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return;
  }
  std::vector<std::uint64_t> seen((universe + 63) / 64, 0);
  for (const std::uint64_t key : keys) {
    seen[key >> 6] |= std::uint64_t{1} << (key & 63);
  }
  keys.clear();
  for (std::size_t w = 0; w < seen.size(); ++w) {
    for (std::uint64_t bits = seen[w]; bits != 0; bits &= bits - 1) {
      keys.push_back(w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits)));
    }
  }
}

}  // namespace

void DiagnosisLog::add(DiagnosisRecord record) {
  const std::size_t memory = record.memory_index;
  const auto position = static_cast<std::uint32_t>(records_.size());
  records_.push_back(std::move(record));
  next_.push_back(kEnd);
  if (memory >= kIndexedMemories) {
    return;
  }
  if (memory >= head_.size()) {
    head_.resize(memory + 1, kEnd);
    tail_.resize(memory + 1, kEnd);
  }
  if (tail_[memory] == kEnd) {
    head_[memory] = position;
  } else {
    next_[tail_[memory]] = position;
  }
  tail_[memory] = position;
}

std::vector<std::uint32_t> DiagnosisLog::records_of(
    std::size_t memory_index) const {
  std::vector<std::uint32_t> positions;
  if (memory_index < kIndexedMemories) {
    if (memory_index < head_.size()) {
      for (std::uint32_t r = head_[memory_index]; r != kEnd; r = next_[r]) {
        positions.push_back(r);
      }
    }
    return positions;
  }
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].memory_index == memory_index) {
      positions.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return positions;
}

std::set<sram::CellCoord> DiagnosisLog::cells(std::size_t memory_index) const {
  const auto index = records_of(memory_index);
  std::uint64_t rows = 0;
  std::uint64_t width = 0;
  for (const std::uint32_t i : index) {
    rows = std::max<std::uint64_t>(rows, records_[i].addr + std::uint64_t{1});
    width = std::max<std::uint64_t>(width, records_[i].bit + std::uint64_t{1});
  }
  std::vector<std::uint64_t> keys;
  keys.reserve(index.size());
  for (const std::uint32_t i : index) {
    keys.push_back(records_[i].addr * width + records_[i].bit);
  }
  // addr and bit are 32-bit, so rows * width overflows only at the very
  // top of the range; a log that wide is sparse anyway.
  const bool wraps =
      width != 0 && rows > std::numeric_limits<std::uint64_t>::max() / width;
  distinct_ascending(keys, wraps ? std::numeric_limits<std::uint64_t>::max()
                                 : rows * width);
  std::set<sram::CellCoord> out;
  for (const std::uint64_t key : keys) {
    out.emplace_hint(out.end(),
                     sram::CellCoord{static_cast<std::uint32_t>(key / width),
                                     static_cast<std::uint32_t>(key % width)});
  }
  return out;
}

std::set<std::uint32_t> DiagnosisLog::faulty_rows(
    std::size_t memory_index) const {
  const auto index = records_of(memory_index);
  std::uint64_t rows = 0;
  std::vector<std::uint64_t> keys;
  keys.reserve(index.size());
  for (const std::uint32_t i : index) {
    rows = std::max<std::uint64_t>(rows, records_[i].addr + std::uint64_t{1});
    keys.push_back(records_[i].addr);
  }
  distinct_ascending(keys, rows);
  std::set<std::uint32_t> out;
  for (const std::uint64_t key : keys) {
    out.emplace_hint(out.end(), static_cast<std::uint32_t>(key));
  }
  return out;
}

std::size_t DiagnosisLog::distinct_cell_count() const {
  std::set<std::pair<std::size_t, sram::CellCoord>> seen;
  for (const auto& record : records_) {
    seen.insert({record.memory_index, record.cell()});
  }
  return seen.size();
}

std::string DiagnosisLog::to_string() const {
  std::string out;
  for (const auto& record : records_) {
    out += record.to_string();
    out += '\n';
  }
  return out;
}

std::string DiagnosisLog::to_csv() const {
  std::string out = "memory,addr,bit,background,phase,element,op,visit,cycle\n";
  for (const auto& r : records_) {
    out += std::to_string(r.memory_index) + ',' + std::to_string(r.addr) +
           ',' + std::to_string(r.bit) + ',' + r.background.to_string() +
           ',' + std::to_string(r.phase) + ',' + std::to_string(r.element) +
           ',' + std::to_string(r.op) + ',' + std::to_string(r.visit) + ',' +
           std::to_string(r.cycle) + '\n';
  }
  return out;
}

}  // namespace fastdiag::bisd
