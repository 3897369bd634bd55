// Behavioral model of one embedded SRAM under diagnosis.
//
// The model is word-oriented (width c), addressable (n words), carries a
// simulated wall clock for retention behaviour, per-column sense-amplifier
// latches (needed for stuck-open and no-access address faults), an operating
// mode (normal / idle), and an optional row-repair remap into fault-free
// spare rows (the per-memory "backup memory" of Fig. 1/3).
//
// All defect behaviour is delegated to the attached FaultBehavior.
//
// Access kernel: the word_parallel kernel (default) routes single-row,
// unrepaired-column accesses through the behaviour's word-level hooks
// (write_row / read_row) — for faults::FaultSet one packed limb copy plus
// the row's sparse fault-site patches — and lets group executors
// (bisd::SocUnderTest::slice_groups, march::MarchRunner::run_group) advance
// unrepaired memories as bit-lanes of a shared sram::InstanceSlab with the
// same fault sites overlaid per lane.  The per_cell kernel forces the
// bit-at-a-time reference loop on every access and never slices.  Both
// produce bit-identical results — the reference exists so differential
// tests and benchmarks can prove it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sram/access_kernel.h"
#include "sram/cell_array.h"
#include "sram/config.h"
#include "sram/fault_behavior.h"
#include "util/bitvec.h"

namespace fastdiag::sram {

/// Operating mode.  In Mode::idle every data-port operation throws; the fast
/// scheme idles the memory while its PSC shifts responses out (Sec. 3.3).
enum class Mode { normal, idle };

/// Operation counters, used by tests and by the complexity cross-checks.
struct OpCounters {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t nwrc_writes = 0;
};

class Sram {
 public:
  /// Builds a memory with the given configuration and fault behaviour
  /// (pass nullptr for a fault-free memory).
  explicit Sram(SramConfig config,
                std::unique_ptr<FaultBehavior> behavior = nullptr);

  [[nodiscard]] const SramConfig& config() const { return config_; }
  [[nodiscard]] std::uint32_t words() const { return config_.words; }
  [[nodiscard]] std::uint32_t bits() const { return config_.bits; }

  // ---- mode & time -------------------------------------------------------

  void set_mode(Mode mode) { mode_ = mode; }
  [[nodiscard]] Mode mode() const { return mode_; }

  /// Selects the access kernel (default AccessKernel::word_parallel).
  void set_access_kernel(AccessKernel kernel) { kernel_ = kernel; }
  [[nodiscard]] AccessKernel access_kernel() const { return kernel_; }

  /// Advances the simulated wall clock (DRF decay is evaluated lazily
  /// against this clock on the next access of each cell).
  void advance_time_ns(std::uint64_t ns) { now_ns_ += ns; }
  [[nodiscard]] std::uint64_t now_ns() const { return now_ns_; }

  // ---- data port ---------------------------------------------------------

  /// Reads the word at @p addr.  Throws std::logic_error in idle mode and
  /// std::out_of_range for addr >= words().
  [[nodiscard]] BitVector read(std::uint32_t addr);

  /// Reads the word at @p addr into @p out (resized to bits()).  The
  /// allocation-free read path: @p out's storage is reused, so a caller
  /// looping over addresses with one scratch vector never touches the heap.
  void read_into(std::uint32_t addr, BitVector& out);

  /// Writes @p value (width bits()) to @p addr with a normal write cycle.
  void write(std::uint32_t addr, const BitVector& value);

  /// Writes with a No-Write-Recovery cycle: healthy cells flip, cells whose
  /// pull-up path is open (DRFs) do not (Sec. 3.4).
  void nwrc_write(std::uint32_t addr, const BitVector& value);

  /// Reads a single bit — convenience for the serial-interface models.
  /// Performs one full word read (the hardware senses the whole word) but
  /// allocates nothing.
  [[nodiscard]] bool read_bit(std::uint32_t addr, std::uint32_t bit);

  // ---- repair ------------------------------------------------------------

  /// Remaps logical @p addr onto fault-free spare row @p spare (must be
  /// < config().spare_rows).  Later accesses to @p addr bypass the defective
  /// row entirely.
  void repair_row(std::uint32_t addr, std::uint32_t spare);

  /// Spare rows already consumed.
  [[nodiscard]] std::uint32_t spares_used() const;

  /// True when @p addr has been remapped to a spare.
  [[nodiscard]] bool is_repaired(std::uint32_t addr) const;

  /// Remaps IO bit @p bit onto fault-free spare column @p spare (must be
  /// < config().spare_cols).  The column mux swap shares the row decoder,
  /// so address faults are *not* fixed by a column spare — only the cells
  /// of the defective lane are.
  void repair_column(std::uint32_t bit, std::uint32_t spare);

  /// Spare columns already consumed.
  [[nodiscard]] std::uint32_t col_spares_used() const;

  /// True when IO bit @p bit has been remapped to a spare lane.
  [[nodiscard]] bool is_column_repaired(std::uint32_t bit) const;

  // ---- instance slicing ---------------------------------------------------

  /// The raw cell matrix — the gather/scatter seam of InstanceSlab and the
  /// golden-model bootstrap.  Bypasses the fault engine, mode checks and
  /// counters, like peek()/poke().
  [[nodiscard]] const CellArray& cells() const { return cells_; }
  [[nodiscard]] CellArray& cells_mut() { return cells_; }

  /// The per-column sense-amplifier latch (the last value each column's
  /// sense amp resolved) and its restore seam: a sliced group carries each
  /// lane's latch through the packed run and lands it here at scatter, so a
  /// later stuck-open read falls back to exactly what a per-memory run
  /// would have latched.
  [[nodiscard]] const BitVector& sense_latch() const { return sense_latch_; }
  void restore_sense_latch(const BitVector& latch) {
    require_width(latch);
    sense_latch_ = latch;
  }

  /// Adds @p ops to the operation counters without touching storage.  The
  /// sliced execution paths perform the group's port traffic on the packed
  /// slab and credit each lane afterwards, so counters match a per-memory
  /// run op for op.
  void credit_ops(const OpCounters& ops) {
    counters_.reads += ops.reads;
    counters_.writes += ops.writes;
    counters_.nwrc_writes += ops.nwrc_writes;
  }

  // ---- introspection -----------------------------------------------------

  /// The attached fault behaviour (never null — a default-constructed
  /// memory carries FaultFreeBehavior).  The in-field layer uses this to
  /// reach the SoftErrorBehavior wrapper for scrub hints and scoring.
  [[nodiscard]] FaultBehavior& behavior() { return *behavior_; }
  [[nodiscard]] const FaultBehavior& behavior() const { return *behavior_; }

  [[nodiscard]] const OpCounters& counters() const { return counters_; }
  void reset_counters() { counters_ = OpCounters{}; }

  /// Direct cell access for tests and golden-model bootstrap; bypasses the
  /// fault engine, mode checks and counters.
  [[nodiscard]] bool peek(CellCoord cell) const { return cells_.get(cell); }
  void poke(CellCoord cell, bool value) { cells_.set(cell, value); }

 private:
  void check_port_usable(std::uint32_t addr) const;
  void require_width(const BitVector& value) const;
  void write_impl(std::uint32_t addr, const BitVector& value,
                  WriteStyle style);
  /// The bit-at-a-time reference read (wired-AND across decoded rows,
  /// per-bit sense-latch fallback, column-spare muxing).
  void read_per_cell(BitVector& out);

  SramConfig config_;
  std::unique_ptr<FaultBehavior> behavior_;
  CellArray cells_;
  Mode mode_ = Mode::normal;
  AccessKernel kernel_ = AccessKernel::word_parallel;
  std::uint64_t now_ns_ = 0;
  OpCounters counters_;

  /// Per-column sense-amplifier latch: the last value each column's sense
  /// amp resolved.  Consulted when no accessed cell drives the bitlines.
  BitVector sense_latch_;

  /// Repair state: logical row -> spare slot, plus the spare storage itself
  /// (spare rows are fault-free).
  std::vector<std::optional<std::uint32_t>> row_remap_;
  std::optional<CellArray> spare_cells_;
  std::vector<bool> spare_in_use_;

  /// Column repair: IO bit -> spare lane; spare lanes share the row decode
  /// but their cells are fault-free.
  std::vector<std::optional<std::uint32_t>> col_remap_;
  std::optional<CellArray> spare_col_cells_;
  std::vector<bool> col_spare_in_use_;
  bool any_col_repair_ = false;

  std::vector<std::uint32_t> decode_scratch_;
  BitVector drives_scratch_;
  BitVector read_scratch_;  ///< backs read_bit()
};

}  // namespace fastdiag::sram
