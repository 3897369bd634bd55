// Runtime-dispatched SIMD kernels for the 64-bit limb hot loops.
//
// The simulator's inner loops (BitVector xor/blend/compare, the CellArray
// row copies, and the instance-sliced lane compares of sram::InstanceSlab)
// all reduce to a handful of flat uint64_t array operations.  This facade
// selects an implementation once per process — scalar reference, AVX2, or
// AVX-512 where the CPU supports it — and exposes it as a table of function
// pointers, so every call site stays ISA-agnostic and the scalar path
// remains the always-available differential reference.
//
// Selection order:
//   1. CPUID detection picks the widest supported level (detected_level()).
//   2. The FASTDIAG_FORCE_ISA environment variable (scalar | avx2 | avx512)
//      overrides it downward; forcing a level the CPU lacks is a hard error.
//      The override is logged to stderr at first use so CI logs show which
//      path actually ran.
//   3. force() re-pins the level in-process — the hook differential tests
//      use to sweep every available level inside one binary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace fastdiag::simd {

/// Dispatch levels, ordered: a CPU supporting level L supports all lower
/// levels, so forcing any level <= detected_level() is always valid.
enum class IsaLevel { scalar = 0, avx2 = 1, avx512 = 2 };

/// "scalar" / "avx2" / "avx512".
[[nodiscard]] const char* isa_name(IsaLevel level);

/// Parses an isa_name() string; nullopt for anything else.
[[nodiscard]] std::optional<IsaLevel> parse_isa(std::string_view name);

/// The limb kernels.  All pointers operate on flat uint64_t arrays of @p n
/// limbs; none of them allocates, and every implementation is bit-exact
/// against the scalar reference (asserted by the dispatch tests).
struct LimbOps {
  IsaLevel level = IsaLevel::scalar;

  /// dst[i] = src[i].
  void (*copy_limbs)(std::uint64_t* dst, const std::uint64_t* src,
                     std::size_t n);

  /// dst[i] ^= src[i].
  void (*xor_limbs)(std::uint64_t* dst, const std::uint64_t* src,
                    std::size_t n);

  /// OR over i of (a[i] ^ b[i]) — zero iff the arrays are equal.
  std::uint64_t (*diff_or)(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n);

  /// dst[i] = (dst[i] & mask[i]) | (fallback[i] & ~mask[i]) — the
  /// sense-amplifier blend of BitVector::blend.
  void (*blend_limbs)(std::uint64_t* dst, const std::uint64_t* mask,
                      const std::uint64_t* fallback, std::size_t n);

  /// OR over i of ((lanes[i] ^ expect[i]) & lane_mask) — the instance-sliced
  /// compare: bit k of the result is set when bit-lane k disagrees with the
  /// broadcast expectation anywhere in the range.
  std::uint64_t (*lane_diff_or)(const std::uint64_t* lanes,
                                const std::uint64_t* expect,
                                std::uint64_t lane_mask, std::size_t n);

  /// masks[j] = all-ones when bit j of the packed array is set, else zero
  /// (j < n_bits).  Expands a memory word into the per-column broadcast
  /// image the sliced write/compare paths consume.
  void (*expand_bits)(const std::uint64_t* packed, std::uint64_t* masks,
                      std::size_t n_bits);

  /// Bit i (i < n <= 64) of the result is set when
  /// ((a[i] ^ b[i]) & lane_mask) != 0 — the column-major demux half of the
  /// mismatch path: one call turns up to 64 lane-columns into a bitmap of
  /// columns that disagree anywhere, so the caller only walks those.
  std::uint64_t (*diff_column_mask)(const std::uint64_t* a,
                                    const std::uint64_t* b,
                                    std::uint64_t lane_mask, std::size_t n);
};

/// Widest level this CPU supports (computed once).
[[nodiscard]] IsaLevel detected_level();

/// The active kernel table.  First call resolves detection plus the
/// FASTDIAG_FORCE_ISA override; afterwards this is one atomic load.
[[nodiscard]] const LimbOps& dispatch();

/// Level of the active table.
[[nodiscard]] IsaLevel active_level();

/// Re-pins the active table to @p level.  Returns false (and changes
/// nothing) when the CPU does not support @p level.  Test-loop hook; safe
/// to call concurrently with dispatch() readers.
bool force(IsaLevel level);

/// In-place transpose of a 64x64 bit matrix: bit j of a[i] becomes bit i of
/// a[j].  An involution, so the same call implements both directions of the
/// InstanceSlab gather/scatter (Hacker's Delight 7-3, main-diagonal form).
void transpose_64x64(std::uint64_t a[64]);

}  // namespace fastdiag::simd
