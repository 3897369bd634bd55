#include "sram/cell_array.h"

#include <algorithm>
#include <string>

#include "util/require.h"
#include "util/simd.h"

namespace fastdiag::sram {

namespace {
constexpr std::size_t kBitsPerWord = 64;
}  // namespace

CellArray::CellArray(std::uint32_t rows, std::uint32_t bits)
    : rows_(rows),
      bits_(bits),
      words_per_row_((static_cast<std::size_t>(bits) + kBitsPerWord - 1) /
                     kBitsPerWord) {
  require(rows > 0 && bits > 0, "CellArray: rows and bits must be > 0");
  arena_.assign(static_cast<std::size_t>(rows) * words_per_row_, 0);
}

void CellArray::check(CellCoord cell) const {
  require_in_range(cell.row < rows_ && cell.bit < bits_, [&] {
    return "CellArray: cell (" + std::to_string(cell.row) + "," +
           std::to_string(cell.bit) + ") outside " + std::to_string(rows_) +
           "x" + std::to_string(bits_);
  });
}

bool CellArray::get(CellCoord cell) const {
  check(cell);
  const std::uint64_t word =
      arena_[cell.row * words_per_row_ + cell.bit / kBitsPerWord];
  return ((word >> (cell.bit % kBitsPerWord)) & 1u) != 0;
}

void CellArray::set(CellCoord cell, bool value) {
  check(cell);
  std::uint64_t& word =
      arena_[cell.row * words_per_row_ + cell.bit / kBitsPerWord];
  const std::uint64_t mask = std::uint64_t{1} << (cell.bit % kBitsPerWord);
  if (value) {
    word |= mask;
  } else {
    word &= ~mask;
  }
}

BitVector CellArray::get_row(std::uint32_t row) const {
  check(CellCoord{row, 0});
  BitVector out;
  out.assign_words(&arena_[row * words_per_row_], bits_);
  return out;
}

void CellArray::read_row_into(std::uint32_t row, BitVector& out) const {
  check(CellCoord{row, 0});
  out.assign_words(&arena_[row * words_per_row_], bits_);
}

void CellArray::set_row(std::uint32_t row, const BitVector& value) {
  check(CellCoord{row, 0});
  require(value.width() == bits_, "CellArray::set_row: width mismatch");
  // value's bits above width() are zero (BitVector invariant), so a straight
  // limb copy preserves the arena's zero-padding invariant.
  simd::copy_limbs(&arena_[row * words_per_row_], value.word_data(),
                   words_per_row_);
}

const std::uint64_t* CellArray::row_words(std::uint32_t row) const {
  check(CellCoord{row, 0});
  return &arena_[row * words_per_row_];
}

std::uint64_t* CellArray::row_words_mut(std::uint32_t row) {
  check(CellCoord{row, 0});
  return &arena_[row * words_per_row_];
}

void CellArray::fill(bool value) {
  std::fill(arena_.begin(), arena_.end(),
            value ? ~std::uint64_t{0} : std::uint64_t{0});
  const std::size_t used = bits_ % kBitsPerWord;
  if (value && used != 0) {
    // Re-mask the top limb of every row so padding bits stay zero.
    const std::uint64_t mask = (std::uint64_t{1} << used) - 1;
    for (std::uint32_t row = 0; row < rows_; ++row) {
      arena_[row * words_per_row_ + words_per_row_ - 1] &= mask;
    }
  }
}

std::uint64_t CellArray::flat_index(CellCoord cell) const {
  check(cell);
  return static_cast<std::uint64_t>(cell.row) * bits_ + cell.bit;
}

}  // namespace fastdiag::sram
