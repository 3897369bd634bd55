#include "faults/composite_probe.h"

#include <string>
#include <utility>

#include "faults/fault_kind.h"
#include "util/require.h"

namespace fastdiag::faults {

std::size_t CompositeProbeBehavior::add_candidate(const FaultInstance& fault) {
  require(!attached_,
          "CompositeProbeBehavior: add_candidate after attach()");
  require(!is_address_fault(fault.kind),
          "CompositeProbeBehavior: address faults cannot be packed");
  Candidate candidate;
  candidate.fault = fault;
  candidate.set =
      std::make_unique<FaultSet>(std::vector<FaultInstance>{fault});
  candidates_.push_back(std::move(candidate));
  return candidates_.size() - 1;
}

void CompositeProbeBehavior::claim(sram::CellCoord cell,
                                   std::size_t candidate) {
  auto& owner = owner_[static_cast<std::size_t>(cell.row) * config_.bits +
                       cell.bit];
  require(owner < 0, [&] {
    return "CompositeProbeBehavior: candidates overlap at cell (" +
           std::to_string(cell.row) + "," + std::to_string(cell.bit) + ")";
  });
  owner = static_cast<std::int32_t>(candidate);
  row_has_owner_[cell.row] = true;
}

void CompositeProbeBehavior::attach(const sram::SramConfig& config) {
  config_ = config;
  attached_ = true;
  owner_.assign(static_cast<std::size_t>(config_.words) * config_.bits, -1);
  row_has_owner_.assign(config_.words, false);
  set_active_.assign(candidates_.size(), false);
  active_sets_.clear();
  active_sets_.reserve(candidates_.size());
  in_word_op_ = false;
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    auto& candidate = candidates_[i];
    candidate.set->attach(config_);  // validates the fault against config
    claim(candidate.fault.victim, i);
    if (needs_aggressor(candidate.fault.kind)) {
      claim(candidate.fault.aggressor, i);
    }
  }
}

void CompositeProbeBehavior::decode(std::uint32_t addr,
                                    std::vector<std::uint32_t>& rows) {
  rows.assign(1, addr);  // candidates are cell faults; decode stays healthy
}

void CompositeProbeBehavior::write_cell(sram::CellArray& cells,
                                        sram::CellCoord cell, bool value,
                                        sram::WriteStyle style,
                                        std::uint64_t now_ns) {
  const std::int32_t owner = owner_of(cell);
  if (owner < 0) {
    // Healthy cell: a plain store — exactly what FaultSet::write_cell does
    // for a cell carrying no state, no pinning and no aggressor role.
    cells.set(cell, value);
    return;
  }
  const auto index = static_cast<std::size_t>(owner);
  if (in_word_op_ && !set_active_[index]) {
    // Lazily open this candidate's word-op bracket so its coupling disturbs
    // queue until every write driver of the word pulse has released.
    set_active_[index] = true;
    active_sets_.push_back(static_cast<std::uint32_t>(index));
    candidates_[index].set->begin_word_op();
  }
  candidates_[index].set->write_cell(cells, cell, value, style, now_ns);
}

bool CompositeProbeBehavior::read_cell(sram::CellArray& cells,
                                       sram::CellCoord cell,
                                       std::uint64_t now_ns, bool& drives) {
  const std::int32_t owner = owner_of(cell);
  if (owner < 0) {
    drives = true;
    return cells.get(cell);
  }
  return candidates_[static_cast<std::size_t>(owner)].set->read_cell(
      cells, cell, now_ns, drives);
}

void CompositeProbeBehavior::begin_word_op() {
  in_word_op_ = true;
  active_sets_.clear();
}

void CompositeProbeBehavior::end_word_op(sram::CellArray& cells,
                                         std::uint64_t now_ns) {
  in_word_op_ = false;
  // Flush in first-write order of the word pulse (how active_sets_ filled).
  // Candidates only touch their own cells, so the order cannot change the
  // outcome, and the write order itself is deterministic.
  for (const auto index : active_sets_) {
    candidates_[index].set->end_word_op(cells, now_ns);
    set_active_[index] = false;
  }
  active_sets_.clear();
}

void CompositeProbeBehavior::write_row(sram::CellArray& cells,
                                       std::uint32_t row,
                                       const BitVector& value,
                                       sram::WriteStyle style,
                                       std::uint64_t now_ns) {
  if (row_is_transparent(row)) {
    cells.write_row_from(row, value);
    return;
  }
  FaultBehavior::write_row(cells, row, value, style, now_ns);
}

bool CompositeProbeBehavior::read_row(sram::CellArray& cells,
                                      std::uint32_t row, BitVector& out,
                                      BitVector& drives,
                                      std::uint64_t now_ns) {
  if (row_is_transparent(row)) {
    cells.read_row_into(row, out);
    return true;
  }
  return FaultBehavior::read_row(cells, row, out, drives, now_ns);
}

}  // namespace fastdiag::faults
