#include "util/simd.h"

namespace fastdiag::simd {

void transpose_64x64(std::uint64_t a[64]) {
  // Recursive block swap (Hacker's Delight 7-3) in the main-diagonal form
  // for LSB-first limbs: the pass at scale j exchanges bit log2(j) of the
  // row index with the same bit of the column index; doing so for every bit
  // position is exactly the transpose, and each pass is its own inverse.
  std::uint64_t m = 0x00000000FFFFFFFFull;
  for (std::uint32_t j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (std::uint32_t k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k + j]) & m;
      a[k] ^= t << j;
      a[k + j] ^= t;
    }
  }
}

}  // namespace fastdiag::simd
