#include "bisd/record.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/require.h"

namespace fastdiag::bisd {

namespace {

constexpr std::uint64_t kRowMask = ~std::uint64_t{0} << 32;

std::uint64_t cell_key(const DiagnosisRecord& record) {
  return std::uint64_t{record.addr} << 32 | record.bit;
}

/// The distinct values of (key & @p mask) over @p keys, ascending.  Keys
/// are (addr << 32 | bit), so ascending is CellCoord order.  A dense range
/// — a memory's cells or rows, the common case — goes through a bitmap over
/// addr * width + bit walked in order; a sparse one through a sort.
std::vector<std::uint64_t> distinct_keys(std::span<const std::uint64_t> keys,
                                         std::uint64_t mask) {
  std::uint64_t rows = 0;
  std::uint64_t width = 0;
  for (const std::uint64_t key : keys) {
    rows = std::max(rows, ((key & mask) >> 32) + 1);
    width = std::max(width, (key & mask & 0xFFFFFFFFu) + 1);
  }
  std::vector<std::uint64_t> out;
  const std::uint64_t budget =
      8 * static_cast<std::uint64_t>(keys.size()) + 4096;
  if (width == 0 || rows > budget / width) {
    out.reserve(keys.size());
    for (const std::uint64_t key : keys) {
      out.push_back(key & mask);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }
  std::vector<std::uint64_t> seen((rows * width + 63) / 64, 0);
  for (const std::uint64_t key : keys) {
    const std::uint64_t dense =
        ((key & mask) >> 32) * width + (key & mask & 0xFFFFFFFFu);
    seen[dense >> 6] |= std::uint64_t{1} << (dense & 63);
  }
  for (std::size_t w = 0; w < seen.size(); ++w) {
    for (std::uint64_t bits = seen[w]; bits != 0; bits &= bits - 1) {
      const std::uint64_t dense =
          w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits));
      out.push_back((dense / width) << 32 | dense % width);
    }
  }
  return out;
}

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

std::uint32_t DiagnosisLog::intern(const BitVector& background) {
  if (background.empty()) {
    return 0;
  }
  const auto it = background_ids_.lower_bound(background);
  if (it != background_ids_.end() && it->first == background) {
    return it->second;
  }
  require(backgrounds_.size() <= std::numeric_limits<std::uint32_t>::max(),
          "DiagnosisLog: background table full");
  const auto id = static_cast<std::uint32_t>(backgrounds_.size());
  backgrounds_.push_back(background);
  background_ids_.emplace_hint(it, background, id);
  return id;
}

void DiagnosisLog::add(const DiagnosisRecord& record) {
  require(record.background < backgrounds_.size(),
          "DiagnosisLog: background id not interned in this log");
  records_.push_back(record);
  const std::size_t memory = record.memory_index;
  if (memory >= kIndexedMemories) {
    return;
  }
  if (memory >= keys_.size()) {
    keys_.resize(memory + 1);
  }
  keys_[memory].push_back(cell_key(record));
}

std::span<const std::uint64_t> DiagnosisLog::keys_of(
    std::size_t memory_index, std::vector<std::uint64_t>& fallback) const {
  if (memory_index < kIndexedMemories) {
    if (memory_index < keys_.size()) {
      return keys_[memory_index];
    }
    return {};
  }
  for (const auto& record : records_) {
    if (record.memory_index == memory_index) {
      fallback.push_back(cell_key(record));
    }
  }
  return fallback;
}

std::set<sram::CellCoord> DiagnosisLog::cells(std::size_t memory_index) const {
  std::vector<std::uint64_t> fallback;
  std::set<sram::CellCoord> out;
  for (const std::uint64_t key :
       distinct_keys(keys_of(memory_index, fallback), ~std::uint64_t{0})) {
    out.emplace_hint(out.end(),
                     sram::CellCoord{static_cast<std::uint32_t>(key >> 32),
                                     static_cast<std::uint32_t>(key)});
  }
  return out;
}

std::set<std::uint32_t> DiagnosisLog::faulty_rows(
    std::size_t memory_index) const {
  std::vector<std::uint64_t> fallback;
  std::set<std::uint32_t> out;
  for (const std::uint64_t key :
       distinct_keys(keys_of(memory_index, fallback), kRowMask)) {
    out.emplace_hint(out.end(), static_cast<std::uint32_t>(key >> 32));
  }
  return out;
}

std::size_t DiagnosisLog::distinct_cell_count() const {
  std::size_t count = 0;
  for (const auto& keys : keys_) {
    count += distinct_keys(keys, ~std::uint64_t{0}).size();
  }
  // Un-indexed memories: (memory, cell) pairs through a sort.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> rest;
  for (const auto& record : records_) {
    if (record.memory_index >= kIndexedMemories) {
      rest.emplace_back(record.memory_index, cell_key(record));
    }
  }
  std::sort(rest.begin(), rest.end());
  return count + static_cast<std::size_t>(
                     std::unique(rest.begin(), rest.end()) - rest.begin());
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
  for (const auto& record : records_) {
    out += to_string(record);
    out += '\n';
  }
  return out;
}

std::string DiagnosisLog::to_csv() const {
  std::string out = "memory,addr,bit,background,phase,element,op,visit,cycle\n";
  for (const auto& r : records_) {
    out += std::to_string(r.memory_index) + ',' + std::to_string(r.addr) +
           ',' + std::to_string(r.bit) + ',' + background(r).to_string() +
           ',' + std::to_string(r.phase) + ',' + std::to_string(r.element) +
           ',' + std::to_string(r.op) + ',' + std::to_string(r.visit) + ',' +
           std::to_string(r.cycle) + '\n';
  }
  return out;
}

}  // namespace fastdiag::bisd
