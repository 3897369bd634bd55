// Seam between the behavioral memory and the fault-semantics engine.
//
// Sram (this module) owns the storage, ports, modes and sense-amplifier
// latches; the defect behaviour is injected through this interface so that
// the fault engine (src/faults) can stay a separate, independently tested
// library.  A fault-free memory uses FaultFreeBehavior.
//
// The interface is two-tier.  The per-cell hooks (write_cell / read_cell)
// define the exact defect semantics; the word-level hooks (write_row /
// read_row) are the performance seam: their default implementations loop
// per cell — bit-for-bit the reference semantics — while implementations
// override them with packed limb copies (real measurement hardware scans
// full words per cycle, and so should the simulator).  FaultFreeBehavior
// below copies whole rows; faults::FaultSet copies the row and patches its
// sparse fault sites; faults::CompositeProbeBehavior routes packed
// dictionary candidates to private per-candidate engines.  Instance-sliced
// groups bypass these hooks: faults::OverlaySlab applies FaultSet's site
// records to one bit-lane of a shared arena instead.
#pragma once

#include <cstdint>
#include <vector>

#include "sram/cell_array.h"
#include "sram/config.h"

namespace fastdiag::sram {

/// How a write reaches the cell (Sec. 3.4 / Fig. 6).
enum class WriteStyle {
  /// Normal write cycle: both bitlines actively driven, so the cell flips
  /// even when its pull-up path is defective (the value then decays).
  normal,
  /// "No Write Recovery Cycle": the rising bitline is left at float GND, so
  /// only a healthy pull-up can flip the cell (NWRTM, ref [11]).
  nwrc,
};

class FaultBehavior {
 public:
  virtual ~FaultBehavior() = default;

  /// Called once when the behaviour is bound to a memory.
  virtual void attach(const SramConfig& config) = 0;

  /// Address decoding.  Fills @p rows with the physical rows whose wordline
  /// fires for logical @p addr.  A fault-free decoder yields exactly {addr};
  /// address-decoder faults may yield none, other rows, or several rows.
  virtual void decode(std::uint32_t addr,
                      std::vector<std::uint32_t>& rows) = 0;

  /// A write attempt of @p value into @p cell at simulated time @p now_ns.
  /// The implementation mutates @p cells according to the defects present
  /// (blocked transitions, forced values, coupling side effects, ...).
  virtual void write_cell(CellArray& cells, CellCoord cell, bool value,
                          WriteStyle style, std::uint64_t now_ns) = 0;

  /// Word-write bracketing.  All bits of a word are written by one pulse;
  /// coupling disturbs caused by aggressor transitions inside the word must
  /// land after every write driver has released (otherwise the outcome of an
  /// intra-word coupling fault would depend on bit ordering).  Implementations
  /// may queue side effects in write_cell and flush them in end_word_op.
  virtual void begin_word_op() {}
  virtual void end_word_op(CellArray& cells, std::uint64_t now_ns) {
    (void)cells;
    (void)now_ns;
  }

  /// A read of @p cell at @p now_ns.  Returns the sensed value and clears
  /// @p drives when the cell does not drive its bitlines (stuck-open cell),
  /// in which case the caller must fall back to the sense-amp latch.
  virtual bool read_cell(CellArray& cells, CellCoord cell,
                         std::uint64_t now_ns, bool& drives) = 0;

  // ---- word-level hooks (the simulation fast path) -------------------------

  /// One word-write pulse of @p value into physical @p row.  The default
  /// brackets a per-cell write_cell loop in begin_word_op/end_word_op —
  /// exactly what Sram's per-cell reference path does for a single decoded
  /// row — so existing FaultBehavior implementations keep their semantics
  /// without overriding anything.
  virtual void write_row(CellArray& cells, std::uint32_t row,
                         const BitVector& value, WriteStyle style,
                         std::uint64_t now_ns) {
    begin_word_op();
    const std::uint32_t bits = cells.bits();
    for (std::uint32_t j = 0; j < bits; ++j) {
      write_cell(cells, CellCoord{row, j}, value.get(j), style, now_ns);
    }
    end_word_op(cells, now_ns);
  }

  /// One word-read of physical @p row into @p out, recording which cells
  /// drove their bitlines in @p drives (both pre-sized to cells.bits()).
  /// Returns true when every cell drove — the caller may then skip the
  /// sense-latch fallback and @p drives is left unspecified.  The default
  /// loops read_cell per cell.
  virtual bool read_row(CellArray& cells, std::uint32_t row, BitVector& out,
                        BitVector& drives, std::uint64_t now_ns) {
    bool all_drive = true;
    const std::uint32_t bits = cells.bits();
    for (std::uint32_t j = 0; j < bits; ++j) {
      bool cell_drives = true;
      const bool value =
          read_cell(cells, CellCoord{row, j}, now_ns, cell_drives);
      out.set(j, value);
      drives.set(j, cell_drives);
      all_drive = all_drive && cell_drives;
    }
    return all_drive;
  }
};

/// Behaviour of a defect-free memory: identity decode, plain packed storage.
class FaultFreeBehavior final : public FaultBehavior {
 public:
  void attach(const SramConfig&) override {}

  void decode(std::uint32_t addr, std::vector<std::uint32_t>& rows) override {
    rows.assign(1, addr);
  }

  void write_cell(CellArray& cells, CellCoord cell, bool value, WriteStyle,
                  std::uint64_t) override {
    cells.set(cell, value);
  }

  bool read_cell(CellArray& cells, CellCoord cell, std::uint64_t,
                 bool& drives) override {
    drives = true;
    return cells.get(cell);
  }

  void write_row(CellArray& cells, std::uint32_t row, const BitVector& value,
                 WriteStyle, std::uint64_t) override {
    cells.write_row_from(row, value);
  }

  bool read_row(CellArray& cells, std::uint32_t row, BitVector& out,
                BitVector&, std::uint64_t) override {
    cells.read_row_into(row, out);
    return true;
  }
};

}  // namespace fastdiag::sram
