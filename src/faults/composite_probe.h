// Packs many *independent* single-fault candidates into ONE probe memory.
//
// The dictionary-style classifier (src/diagnosis) needs the March signature
// of every candidate (kind, placement); probing them one at a time costs a
// full replay per candidate.  Candidates whose cell sets are disjoint cannot
// interact — every fault model in src/faults is keyed on its own victim (and,
// for couplings, its own aggressor) cell — so one probe memory can carry one
// candidate per victim cell and a single replay yields every signature at
// once (demultiplexed per victim by MarchRunner::run_per_cell).
//
// Isolation is structural, not assumed: each candidate owns a private
// FaultSet holding exactly its one fault, and every access to a cell is
// routed to the candidate owning that cell (unowned cells take plain packed
// storage).  A candidate literally cannot observe another candidate's state.
// add_candidate() enforces the disjointness contract — overlapping victim or
// aggressor cells throw — and rejects address faults (decode rewrites affect
// whole rows and cannot be isolated per cell).
//
// The caller must additionally keep the per-column sense-amplifier latch
// clean for stuck-open candidates: an SOF read falls back to the latch,
// whose history is the previous read value of the *column*, so a column
// hosting an SOF victim must host no other victim (healthy aggressor cells
// are fine — they always read their nominal value).  The dictionary
// builder's packing planner honours that rule; this class cannot check it
// (the latch lives in sram::Sram).
//
// Word-level hooks: rows without any owned cell take packed limb copies,
// rows carrying candidate state run the exact per-cell routed loops.  The
// instance-sliced dictionary build replays the same candidate lists as
// faults::OverlaySlab probe lanes instead, bit-identical to this class.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "faults/fault.h"
#include "faults/fault_set.h"
#include "sram/fault_behavior.h"

namespace fastdiag::faults {

class CompositeProbeBehavior final : public sram::FaultBehavior {
 public:
  CompositeProbeBehavior() = default;

  /// Adds one candidate (before attach()).  Throws std::logic_error when
  /// the candidate is an address fault or its cells overlap a previously
  /// added candidate's cells.  Returns the candidate's index.
  std::size_t add_candidate(const FaultInstance& fault);

  [[nodiscard]] std::size_t candidate_count() const {
    return candidates_.size();
  }

  // sram::FaultBehavior --------------------------------------------------
  void attach(const sram::SramConfig& config) override;
  void decode(std::uint32_t addr, std::vector<std::uint32_t>& rows) override;
  void write_cell(sram::CellArray& cells, sram::CellCoord cell, bool value,
                  sram::WriteStyle style, std::uint64_t now_ns) override;
  bool read_cell(sram::CellArray& cells, sram::CellCoord cell,
                 std::uint64_t now_ns, bool& drives) override;
  void begin_word_op() override;
  void end_word_op(sram::CellArray& cells, std::uint64_t now_ns) override;

  /// Word-level hooks: rows without any candidate cell take packed limb
  /// copies; rows carrying candidate state run the per-cell routed loops.
  void write_row(sram::CellArray& cells, std::uint32_t row,
                 const BitVector& value, sram::WriteStyle style,
                 std::uint64_t now_ns) override;
  bool read_row(sram::CellArray& cells, std::uint32_t row, BitVector& out,
                BitVector& drives, std::uint64_t now_ns) override;

  /// True when no candidate owns a cell of physical @p row.
  [[nodiscard]] bool row_is_transparent(std::uint32_t row) const {
    return row >= row_has_owner_.size() || !row_has_owner_[row];
  }

 private:
  struct Candidate {
    FaultInstance fault;
    std::unique_ptr<FaultSet> set;  ///< holds exactly this one fault
  };

  /// The candidate owning @p cell, or -1.  Valid after attach().
  [[nodiscard]] std::int32_t owner_of(sram::CellCoord cell) const {
    return owner_[static_cast<std::size_t>(cell.row) * config_.bits +
                  cell.bit];
  }
  void claim(sram::CellCoord cell, std::size_t candidate);

  sram::SramConfig config_;
  bool attached_ = false;
  std::vector<Candidate> candidates_;

  /// Flat (row * bits + bit) -> owning candidate index, -1 when unowned.
  std::vector<std::int32_t> owner_;
  std::vector<bool> row_has_owner_;

  /// Word-op bracketing: candidate sets begun during the in-flight word
  /// write, so their queued coupling disturbs flush in end_word_op.
  bool in_word_op_ = false;
  std::vector<std::uint32_t> active_sets_;
  std::vector<bool> set_active_;
};

}  // namespace fastdiag::faults
