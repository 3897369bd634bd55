// The 64-bit limb kernels of the simulator's hot loops.
//
// The simulator's inner loops (BitVector xor/blend/compare, the CellArray
// row copies, and the instance-sliced lane compares of sram::InstanceSlab)
// all reduce to a handful of flat uint64_t array operations.  They are plain
// inline loops: the paper's e-SRAMs are small, so a word is one or two limbs
// and a slab compare spans one limb per column (at most 72 in the
// benchmark's memories).  At that size hand-written AVX2/AVX-512 bodies
// behind a runtime-dispatched function-pointer table gave no end-to-end
// gain over these loops (README, "Plain limb kernels"), and inline loops
// let the compiler fold each call into its call site.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace fastdiag::simd {

/// The one kernel implementation.  The enum, isa_name() and active_level()
/// remain for the benchmark fingerprint, which prints the active level.
enum class IsaLevel { scalar = 0 };

/// "scalar".
[[nodiscard]] inline const char* isa_name(IsaLevel) { return "scalar"; }

/// Level of the kernels below: always IsaLevel::scalar.
[[nodiscard]] inline IsaLevel active_level() { return IsaLevel::scalar; }

// Every kernel operates on flat uint64_t arrays of @p n limbs and none of
// them allocates.

/// dst[i] = src[i].
inline void copy_limbs(std::uint64_t* dst, const std::uint64_t* src,
                       std::size_t n) {
  if (n != 0) {
    std::memcpy(dst, src, n * sizeof(std::uint64_t));
  }
}

/// dst[i] ^= src[i].
inline void xor_limbs(std::uint64_t* dst, const std::uint64_t* src,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] ^= src[i];
  }
}

/// OR over i of (a[i] ^ b[i]) — zero iff the arrays are equal.
inline std::uint64_t diff_or(const std::uint64_t* a, const std::uint64_t* b,
                             std::size_t n) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc |= a[i] ^ b[i];
  }
  return acc;
}

/// dst[i] = (dst[i] & mask[i]) | (fallback[i] & ~mask[i]) — the
/// sense-amplifier blend of BitVector::blend.
inline void blend_limbs(std::uint64_t* dst, const std::uint64_t* mask,
                        const std::uint64_t* fallback, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = (dst[i] & mask[i]) | (fallback[i] & ~mask[i]);
  }
}

/// OR over i of ((lanes[i] ^ expect[i]) & lane_mask) — the instance-sliced
/// compare: bit k of the result is set when bit-lane k disagrees with the
/// broadcast expectation anywhere in the range.
inline std::uint64_t lane_diff_or(const std::uint64_t* lanes,
                                  const std::uint64_t* expect,
                                  std::uint64_t lane_mask, std::size_t n) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc |= lanes[i] ^ expect[i];
  }
  return acc & lane_mask;
}

/// masks[j] = all-ones when bit j of the packed array is set, else zero
/// (j < n_bits).  Expands a memory word into the per-column broadcast
/// image the sliced write/compare paths consume.
inline void expand_bits(const std::uint64_t* packed, std::uint64_t* masks,
                        std::size_t n_bits) {
  for (std::size_t j = 0; j < n_bits; ++j) {
    // bit -> {0, ~0} without branches: (bit - 1) is ~0 for 0 and 0 for 1.
    masks[j] = ~(((packed[j >> 6] >> (j & 63)) & 1u) - 1);
  }
}

/// Bit i (i < n <= 64) of the result is set when
/// ((a[i] ^ b[i]) & lane_mask) != 0 — the column-major demux half of the
/// mismatch path: one call turns up to 64 lane-columns into a bitmap of
/// columns that disagree anywhere, so the caller only walks those.
inline std::uint64_t diff_column_mask(const std::uint64_t* a,
                                      const std::uint64_t* b,
                                      std::uint64_t lane_mask, std::size_t n) {
  std::uint64_t cols = 0;
  for (std::size_t i = 0; i < n; ++i) {
    cols |= static_cast<std::uint64_t>(((a[i] ^ b[i]) & lane_mask) != 0) << i;
  }
  return cols;
}

/// In-place transpose of a 64x64 bit matrix: bit j of a[i] becomes bit i of
/// a[j].  An involution, so the same call implements both directions of the
/// InstanceSlab gather/scatter (Hacker's Delight 7-3, main-diagonal form).
void transpose_64x64(std::uint64_t a[64]);

}  // namespace fastdiag::simd
