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
// compare, so faulty lanes share the word ops of clean ones.  Lanes must
// not have consumed row or column spares — a remapped row lives outside the
// cell matrix the slab mirrors.
#pragma once

#include <cstdint>
#include <vector>

#include "sram/sram.h"

namespace fastdiag::sram {

class InstanceSlab {
 public:
  /// @p lanes: 1..64 memories of identical geometry with no spares
  /// consumed.  Raw pointers are kept — the memories must outlive the slab.
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
  [[nodiscard]] std::uint32_t rows() const { return rows_; }
  [[nodiscard]] std::uint32_t bits() const { return bits_; }

  /// Loads the arena from every lane's current CellArray contents.
  void gather();

  /// Writes the arena back into every lane's CellArray (the inverse of
  /// gather; the padding bits above bits() stay zero in every lane).
  void scatter();

  /// One uniform word-write pulse into @p row: every lane's cell (row, j)
  /// takes bit j of the broadcast image — @p bcast[j] is all-ones or
  /// all-zeros per column (see simd::expand_bits), bits() entries.
  void write_row(std::uint32_t row, const std::uint64_t* bcast);

  /// The lane limb of one cell-column (bit k = lane k's value of cell
  /// (row, bit)).
  [[nodiscard]] std::uint64_t column(std::uint32_t row,
                                     std::uint32_t bit) const;

  /// The whole arena (rows() x bits() limbs, row-major) — the storage the
  /// per-lane fault overlay patches.
  [[nodiscard]] std::uint64_t* arena() { return arena_.data(); }

 private:
  std::vector<Sram*> lanes_;
  std::size_t lane_count_ = 0;
  std::uint32_t rows_ = 0;
  std::uint32_t bits_ = 0;
  std::uint64_t lane_mask_ = 0;
  /// rows_ x bits_ limbs, row-major: arena_[row * bits_ + bit].
  std::vector<std::uint64_t> arena_;
};

}  // namespace fastdiag::sram
