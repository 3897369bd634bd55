// Comparator array of the BISD controller (Fig. 1 / Fig. 3): one comparator
// per memory, matching each serialized response bit against its expected
// value.  The hardware compares one bit per shift clock; compare_word()
// folds up to 64 clocks of comparisons into one XOR with per-bit counting,
// pairing with ParallelToSerialConverter::shift_out_word.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "util/require.h"

namespace fastdiag::bisd {

class ComparatorArray {
 public:
  explicit ComparatorArray(std::size_t memories)
      : comparisons_(memories, 0), mismatches_(memories, 0) {
    require(memories > 0, "ComparatorArray: at least one memory required");
  }

  /// Compares @p count (<= 64) response bits of memory @p index at once
  /// (bit i = the bit of shift clock i).  Counts @p count comparisons and
  /// one mismatch per disagreeing bit, and returns the mismatch mask (bit i
  /// set = clock i disagreed).
  std::uint64_t compare_word(std::size_t index, std::uint64_t expected,
                             std::uint64_t observed, std::size_t count) {
    require_in_range(index < comparisons_.size(),
                     "ComparatorArray: bad memory index");
    require(count <= 64, "ComparatorArray: at most 64 bits per batch");
    const std::uint64_t mask =
        count == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1;
    const std::uint64_t diff = (expected ^ observed) & mask;
    comparisons_[index] += count;
    mismatches_[index] += static_cast<std::uint64_t>(std::popcount(diff));
    return diff;
  }

  [[nodiscard]] std::uint64_t comparisons(std::size_t index) const {
    require_in_range(index < comparisons_.size(),
                     "ComparatorArray: bad memory index");
    return comparisons_[index];
  }
  [[nodiscard]] std::uint64_t mismatches(std::size_t index) const {
    require_in_range(index < mismatches_.size(),
                     "ComparatorArray: bad memory index");
    return mismatches_[index];
  }

 private:
  std::vector<std::uint64_t> comparisons_;
  std::vector<std::uint64_t> mismatches_;
};

}  // namespace fastdiag::bisd
