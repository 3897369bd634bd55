#include "sram/instance_slab.h"

#include <algorithm>
#include <string>

#include "util/require.h"
#include "util/simd.h"

namespace fastdiag::sram {

InstanceSlab::InstanceSlab(std::vector<Sram*> lanes)
    : lanes_(std::move(lanes)) {
  require(!lanes_.empty() && lanes_.size() <= 64,
          "InstanceSlab: 1..64 lanes required");
  require(lanes_.front() != nullptr, "InstanceSlab: null lane");
  rows_ = lanes_.front()->words();
  bits_ = lanes_.front()->bits();
  for (const Sram* lane : lanes_) {
    require(lane != nullptr, "InstanceSlab: null lane");
    require(lane->words() == rows_ && lane->bits() == bits_,
            [&] {
              return "InstanceSlab: lane '" + lane->config().name +
                     "' geometry differs from the group";
            });
    require(lane->col_spares_used() == 0, [&] {
      return "InstanceSlab: lane '" + lane->config().name +
             "' has consumed column spares (a swapped column lives outside "
             "the slab)";
    });
    spare_rows_ = std::max(spare_rows_, lane->config().spare_rows);
  }
  lane_count_ = lanes_.size();
  lane_mask_ = lane_count_ == 64 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << lane_count_) - 1;
  arena_.assign((static_cast<std::size_t>(rows_) + spare_rows_) * bits_, 0);
}

InstanceSlab::InstanceSlab(std::uint32_t rows, std::uint32_t bits,
                           std::size_t lane_count)
    : lane_count_(lane_count), rows_(rows), bits_(bits) {
  require(rows_ > 0 && bits_ > 0, "InstanceSlab: empty geometry");
  require(lane_count_ >= 1 && lane_count_ <= 64,
          "InstanceSlab: 1..64 lanes required");
  lane_mask_ = lane_count_ == 64 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << lane_count_) - 1;
  arena_.assign(static_cast<std::size_t>(rows_) * bits_, 0);
}

void InstanceSlab::lane_rows(std::uint32_t row, std::uint64_t** limbs) {
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    Sram& lane = *lanes_[k];
    if (row < rows_) {
      limbs[k] = lane.cells_mut().row_words_mut(row);
      continue;
    }
    CellArray* spares = lane.spare_cells_mut();
    const std::uint32_t s = row - rows_;
    limbs[k] = spares != nullptr && s < spares->rows()
                   ? spares->row_words_mut(s)
                   : nullptr;
  }
}

void InstanceSlab::gather() {
  require(!lanes_.empty(), "InstanceSlab::gather: standalone slab");
  const std::size_t words_per_row = lanes_.front()->cells().words_per_row();
  std::uint64_t* limbs[64];
  std::uint64_t block[64];
  for (std::uint32_t row = 0; row < rows_ + spare_rows_; ++row) {
    lane_rows(row, limbs);
    std::uint64_t* arena_row = &arena_[static_cast<std::size_t>(row) * bits_];
    for (std::size_t w = 0; w < words_per_row; ++w) {
      // block[k] = lane k's limb of 64 consecutive cell-columns; after the
      // transpose, block[b] is the lane limb of column 64w + b.
      for (std::size_t k = 0; k < lanes_.size(); ++k) {
        block[k] = limbs[k] != nullptr ? limbs[k][w] : 0;
      }
      std::fill(block + lanes_.size(), block + 64, 0);
      simd::transpose_64x64(block);
      const std::uint32_t base = static_cast<std::uint32_t>(w) * 64;
      const std::uint32_t take = std::min<std::uint32_t>(64, bits_ - base);
      simd::copy_limbs(arena_row + base, block, take);
    }
  }
}

void InstanceSlab::scatter() {
  require(!lanes_.empty(), "InstanceSlab::scatter: standalone slab");
  const std::size_t words_per_row = lanes_.front()->cells().words_per_row();
  std::uint64_t* limbs[64];
  std::uint64_t block[64];
  for (std::uint32_t row = 0; row < rows_ + spare_rows_; ++row) {
    lane_rows(row, limbs);
    const std::uint64_t* arena_row =
        &arena_[static_cast<std::size_t>(row) * bits_];
    for (std::size_t w = 0; w < words_per_row; ++w) {
      const std::uint32_t base = static_cast<std::uint32_t>(w) * 64;
      const std::uint32_t take = std::min<std::uint32_t>(64, bits_ - base);
      simd::copy_limbs(block, arena_row + base, take);
      // Columns past bits() do not exist, so the zero fill keeps every
      // lane's padding bits above bits() zero — the CellArray invariant.
      std::fill(block + take, block + 64, 0);
      simd::transpose_64x64(block);
      for (std::size_t k = 0; k < lanes_.size(); ++k) {
        if (limbs[k] != nullptr) {
          limbs[k][w] = block[k];
        }
      }
    }
  }
}

void InstanceSlab::write_row(std::uint32_t row, const std::uint64_t* bcast) {
  require_in_range(row < rows_, "InstanceSlab::write_row: row out of range");
  // The broadcast image is all-ones/all-zeros per column, so unregistered
  // lane bits take harmless values: compares mask them out and scatter
  // only reads real lanes.
  simd::copy_limbs(&arena_[static_cast<std::size_t>(row) * bits_], bcast,
                   bits_);
}

std::uint64_t InstanceSlab::column(std::uint32_t row, std::uint32_t bit) const {
  require_in_range(row < rows_ + spare_rows_ && bit < bits_,
                   "InstanceSlab::column: out of range");
  return arena_[static_cast<std::size_t>(row) * bits_ + bit];
}

}  // namespace fastdiag::sram
