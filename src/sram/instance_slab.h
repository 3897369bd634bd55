// Instance-sliced packed storage: up to 64 identical-geometry memories as
// bit-lanes of one transposed arena.
//
// PR 2 packed the *cells* of one memory into 64-bit limbs; this layer packs
// *instances*.  The slab stores one limb per cell-column (row, bit): bit k
// of that limb is lane k's value of the cell, so a uniform March operation
// (every lane receives the same data — the shared-BISD broadcast of the
// paper's Fig. 3) advances the whole group with one word op per cell-column,
// and a comparison against a broadcast expectation demuxes straight into a
// per-lane mismatch mask.
//
// gather()/scatter() convert between this layout and each lane's CellArray
// arena with 64x64 bit-matrix transposes (simd::transpose_64x64 — an
// involution, so the same kernel runs both directions), touching
// rows * words_per_row transposes instead of rows * bits cell moves.
//
// The slab itself is plain storage.  Fault behaviour rides on top as a
// sparse per-lane overlay (faults::OverlaySlab): each lane's fault sites
// patch that lane's column bits around the broadcast pulse and the packed
// compare, so faulty lanes share the word ops of clean ones.
//
// Spare rows ride the arena too: after the rows() word rows come
// spare_rows() rows, the largest spare_rows of any lane, and lane k's spare
// row s is bit k of arena row rows() + s (lanes with fewer spares leave the
// tail bits unused).  gather()/scatter() copy them with the word rows, so a
// row-repaired memory is a lane like any other; the overlay routes its
// repaired addresses onto its spare rows.  Lanes must not have consumed
// column spares — a column mux swap splits one cell-column across two
// storage lanes, which the slab does not mirror.
#pragma once

#include <cstdint>
#include <vector>

#include "sram/sram.h"

namespace fastdiag::sram {

class InstanceSlab {
 public:
  /// @p lanes: 1..64 memories of identical words x bits (spare_rows may
  /// differ) with no column spares consumed.  Raw pointers are kept — the
  /// memories must outlive the slab.
  explicit InstanceSlab(std::vector<Sram*> lanes);

  /// Standalone arena of @p rows x @p bits cell-columns for @p lane_count
  /// virtual lanes (1..64) with no backing memories: the dictionary-build
  /// probe slabs drive the arena directly and demux mismatches to lane
  /// coordinates, so there is nothing to gather from or scatter to (both
  /// are errors on a standalone slab).
  InstanceSlab(std::uint32_t rows, std::uint32_t bits, std::size_t lane_count);

  [[nodiscard]] std::size_t lane_count() const { return lane_count_; }
  /// Bit k set for every registered lane (low lane_count() bits).
  [[nodiscard]] std::uint64_t lane_mask() const { return lane_mask_; }
  /// Word rows (the lanes' words()); spare rows follow them in the arena.
  [[nodiscard]] std::uint32_t rows() const { return rows_; }
  /// Spare rows after the word rows: the largest spare_rows of any lane
  /// (0 on a standalone slab).
  [[nodiscard]] std::uint32_t spare_rows() const { return spare_rows_; }
  [[nodiscard]] std::uint32_t bits() const { return bits_; }

  /// Loads the arena from every lane's current cells and spare rows.
  void gather();

  /// Writes the arena back into every lane's cells and spare rows (the
  /// inverse of gather; the padding bits above bits() stay zero in every
  /// lane).
  void scatter();

  /// One uniform word-write pulse into @p row: every lane's cell (row, j)
  /// takes bit j of the broadcast image — @p bcast[j] is all-ones or
  /// all-zeros per column (see simd::expand_bits), bits() entries.
  void write_row(std::uint32_t row, const std::uint64_t* bcast);

  /// The lane limb of one cell-column (bit k = lane k's value of cell
  /// (row, bit)); @p row may name a spare row (rows() + s).
  [[nodiscard]] std::uint64_t column(std::uint32_t row,
                                     std::uint32_t bit) const;

  /// The whole arena ((rows() + spare_rows()) x bits() limbs, row-major) —
  /// the storage the per-lane fault overlay patches.
  [[nodiscard]] std::uint64_t* arena() { return arena_.data(); }

 private:
  /// Points @p limbs[k] at lane k's storage row behind arena row @p row:
  /// a cell row, or a spare row past rows() (null where lane k has fewer
  /// spare rows).
  void lane_rows(std::uint32_t row, std::uint64_t** limbs);

  std::vector<Sram*> lanes_;
  std::size_t lane_count_ = 0;
  std::uint32_t rows_ = 0;
  std::uint32_t spare_rows_ = 0;
  std::uint32_t bits_ = 0;
  std::uint64_t lane_mask_ = 0;
  /// (rows_ + spare_rows_) x bits_ limbs, row-major:
  /// arena_[row * bits_ + bit].
  std::vector<std::uint64_t> arena_;
};

}  // namespace fastdiag::sram
