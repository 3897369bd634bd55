#include "util/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>

#include "util/require.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FASTDIAG_SIMD_X86 1
#include <immintrin.h>
#else
#define FASTDIAG_SIMD_X86 0
#endif

namespace fastdiag::simd {
namespace {

// ---- scalar reference kernels ---------------------------------------------

void copy_scalar(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  if (n != 0) {
    std::memcpy(dst, src, n * sizeof(std::uint64_t));
  }
}

void xor_scalar(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] ^= src[i];
  }
}

std::uint64_t diff_or_scalar(const std::uint64_t* a, const std::uint64_t* b,
                             std::size_t n) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc |= a[i] ^ b[i];
  }
  return acc;
}

void blend_scalar(std::uint64_t* dst, const std::uint64_t* mask,
                  const std::uint64_t* fallback, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = (dst[i] & mask[i]) | (fallback[i] & ~mask[i]);
  }
}

std::uint64_t lane_diff_or_scalar(const std::uint64_t* lanes,
                                  const std::uint64_t* expect,
                                  std::uint64_t lane_mask, std::size_t n) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc |= lanes[i] ^ expect[i];
  }
  return acc & lane_mask;
}

void expand_bits_scalar(const std::uint64_t* packed, std::uint64_t* masks,
                        std::size_t n_bits) {
  for (std::size_t j = 0; j < n_bits; ++j) {
    // bit -> {0, ~0} without branches: (bit - 1) is ~0 for 0 and 0 for 1.
    masks[j] = ~(((packed[j >> 6] >> (j & 63)) & 1u) - 1);
  }
}

std::uint64_t diff_column_mask_scalar(const std::uint64_t* a,
                                      const std::uint64_t* b,
                                      std::uint64_t lane_mask, std::size_t n) {
  std::uint64_t cols = 0;
  for (std::size_t i = 0; i < n; ++i) {
    cols |= static_cast<std::uint64_t>(((a[i] ^ b[i]) & lane_mask) != 0) << i;
  }
  return cols;
}

constexpr LimbOps kScalarOps{IsaLevel::scalar,
                             copy_scalar,
                             xor_scalar,
                             diff_or_scalar,
                             blend_scalar,
                             lane_diff_or_scalar,
                             expand_bits_scalar,
                             diff_column_mask_scalar};

#if FASTDIAG_SIMD_X86

// ---- AVX2 kernels (4 limbs per vector, scalar tails) ----------------------
//
// Compiled with per-function target attributes so the rest of the binary
// stays baseline-ISA; these bodies only ever run behind the CPUID check.

__attribute__((target("avx2"))) void copy_avx2(std::uint64_t* dst,
                                               const std::uint64_t* src,
                                               std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i)));
  }
  for (; i < n; ++i) {
    dst[i] = src[i];
  }
}

__attribute__((target("avx2"))) void xor_avx2(std::uint64_t* dst,
                                              const std::uint64_t* src,
                                              std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(a, b));
  }
  for (; i < n; ++i) {
    dst[i] ^= src[i];
  }
}

__attribute__((target("avx2"))) std::uint64_t horizontal_or_avx2(__m256i v) {
  const __m128i folded = _mm_or_si128(_mm256_castsi256_si128(v),
                                      _mm256_extracti128_si256(v, 1));
  return static_cast<std::uint64_t>(_mm_extract_epi64(folded, 0)) |
         static_cast<std::uint64_t>(_mm_extract_epi64(folded, 1));
}

__attribute__((target("avx2"))) std::uint64_t diff_or_avx2(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_or_si256(acc, _mm256_xor_si256(va, vb));
  }
  std::uint64_t tail = horizontal_or_avx2(acc);
  for (; i < n; ++i) {
    tail |= a[i] ^ b[i];
  }
  return tail;
}

__attribute__((target("avx2"))) void blend_avx2(std::uint64_t* dst,
                                                const std::uint64_t* mask,
                                                const std::uint64_t* fallback,
                                                std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i m =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + i));
    const __m256i f =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fallback + i));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_or_si256(_mm256_and_si256(d, m), _mm256_andnot_si256(m, f)));
  }
  for (; i < n; ++i) {
    dst[i] = (dst[i] & mask[i]) | (fallback[i] & ~mask[i]);
  }
}

__attribute__((target("avx2"))) std::uint64_t lane_diff_or_avx2(
    const std::uint64_t* lanes, const std::uint64_t* expect,
    std::uint64_t lane_mask, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i vl =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lanes + i));
    const __m256i ve =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(expect + i));
    acc = _mm256_or_si256(acc, _mm256_xor_si256(vl, ve));
  }
  std::uint64_t tail = horizontal_or_avx2(acc);
  for (; i < n; ++i) {
    tail |= lanes[i] ^ expect[i];
  }
  return tail & lane_mask;
}

__attribute__((target("avx2"))) void expand_bits_avx2(
    const std::uint64_t* packed, std::uint64_t* masks, std::size_t n_bits) {
  const __m256i ramp = _mm256_set_epi64x(3, 2, 1, 0);
  const __m256i ones = _mm256_set1_epi64x(1);
  std::size_t j = 0;
  // Within one source limb the four shift counts stay in [0, 63], so srlv
  // expands four columns per vector; limb boundaries fall to the tail loop.
  while (j + 4 <= n_bits && (j & 63) <= 60) {
    const __m256i limb =
        _mm256_set1_epi64x(static_cast<long long>(packed[j >> 6]));
    const __m256i counts =
        _mm256_add_epi64(_mm256_set1_epi64x(static_cast<long long>(j & 63)),
                         ramp);
    const __m256i bits =
        _mm256_and_si256(_mm256_srlv_epi64(limb, counts), ones);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(masks + j),
                        _mm256_cmpeq_epi64(bits, ones));
    j += 4;
  }
  for (; j < n_bits; ++j) {
    masks[j] = ~(((packed[j >> 6] >> (j & 63)) & 1u) - 1);
  }
}

__attribute__((target("avx2"))) std::uint64_t diff_column_mask_avx2(
    const std::uint64_t* a, const std::uint64_t* b, std::uint64_t lane_mask,
    std::size_t n) {
  const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(lane_mask));
  const __m256i zero = _mm256_setzero_si256();
  std::uint64_t cols = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i diff = _mm256_and_si256(_mm256_xor_si256(va, vb), vm);
    // One sign bit per 64-bit column: equal columns compare to all-ones, so
    // the inverted movemask is the per-column "disagrees somewhere" nibble.
    const auto eq = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(diff, zero))));
    cols |= static_cast<std::uint64_t>(~eq & 0xFu) << i;
  }
  for (; i < n; ++i) {
    cols |= static_cast<std::uint64_t>(((a[i] ^ b[i]) & lane_mask) != 0) << i;
  }
  return cols;
}

constexpr LimbOps kAvx2Ops{IsaLevel::avx2,
                           copy_avx2,
                           xor_avx2,
                           diff_or_avx2,
                           blend_avx2,
                           lane_diff_or_avx2,
                           expand_bits_avx2,
                           diff_column_mask_avx2};

// ---- AVX-512F kernels (8 limbs per vector) --------------------------------

// GCC's AVX-512 headers build several intrinsics on _mm512_undefined_epi32(),
// whose deliberate self-initialization trips -Wuninitialized under -Werror
// when inlined here (GCC PR105593).  The warning is about the header's own
// undefined value, not this code.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

__attribute__((target("avx512f"))) void copy_avx512(std::uint64_t* dst,
                                                    const std::uint64_t* src,
                                                    std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_si512(dst + i, _mm512_loadu_si512(src + i));
  }
  for (; i < n; ++i) {
    dst[i] = src[i];
  }
}

__attribute__((target("avx512f"))) void xor_avx512(std::uint64_t* dst,
                                                   const std::uint64_t* src,
                                                   std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_si512(dst + i,
                        _mm512_xor_si512(_mm512_loadu_si512(dst + i),
                                         _mm512_loadu_si512(src + i)));
  }
  for (; i < n; ++i) {
    dst[i] ^= src[i];
  }
}

__attribute__((target("avx512f"))) std::uint64_t diff_or_avx512(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_or_si512(acc, _mm512_xor_si512(_mm512_loadu_si512(a + i),
                                                _mm512_loadu_si512(b + i)));
  }
  std::uint64_t tail =
      static_cast<std::uint64_t>(_mm512_reduce_or_epi64(acc));
  for (; i < n; ++i) {
    tail |= a[i] ^ b[i];
  }
  return tail;
}

__attribute__((target("avx512f"))) void blend_avx512(
    std::uint64_t* dst, const std::uint64_t* mask,
    const std::uint64_t* fallback, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i d = _mm512_loadu_si512(dst + i);
    const __m512i m = _mm512_loadu_si512(mask + i);
    const __m512i f = _mm512_loadu_si512(fallback + i);
    _mm512_storeu_si512(
        dst + i,
        _mm512_or_si512(_mm512_and_si512(d, m), _mm512_andnot_si512(m, f)));
  }
  for (; i < n; ++i) {
    dst[i] = (dst[i] & mask[i]) | (fallback[i] & ~mask[i]);
  }
}

__attribute__((target("avx512f"))) std::uint64_t lane_diff_or_avx512(
    const std::uint64_t* lanes, const std::uint64_t* expect,
    std::uint64_t lane_mask, std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_or_si512(acc,
                          _mm512_xor_si512(_mm512_loadu_si512(lanes + i),
                                           _mm512_loadu_si512(expect + i)));
  }
  std::uint64_t tail =
      static_cast<std::uint64_t>(_mm512_reduce_or_epi64(acc));
  for (; i < n; ++i) {
    tail |= lanes[i] ^ expect[i];
  }
  return tail & lane_mask;
}

__attribute__((target("avx512f"))) std::uint64_t diff_column_mask_avx512(
    const std::uint64_t* a, const std::uint64_t* b, std::uint64_t lane_mask,
    std::size_t n) {
  const __m512i vm = _mm512_set1_epi64(static_cast<long long>(lane_mask));
  std::uint64_t cols = 0;
  std::size_t i = 0;
  // The mask-register compare demuxes eight lane-columns per instruction:
  // _mm512_cmpneq_epi64_mask yields the per-column disagreement byte
  // directly, with the lane mask folded in by comparing masked operands.
  for (; i + 8 <= n; i += 8) {
    const __mmask8 neq = _mm512_cmpneq_epi64_mask(
        _mm512_and_si512(_mm512_loadu_si512(a + i), vm),
        _mm512_and_si512(_mm512_loadu_si512(b + i), vm));
    cols |= static_cast<std::uint64_t>(neq) << i;
  }
  for (; i < n; ++i) {
    cols |= static_cast<std::uint64_t>(((a[i] ^ b[i]) & lane_mask) != 0) << i;
  }
  return cols;
}

// expand_bits is bandwidth-trivial next to the compares; the AVX2 variant
// is already past the point of diminishing returns, so the avx512 table
// reuses it (AVX-512F implies AVX2 at runtime).
constexpr LimbOps kAvx512Ops{IsaLevel::avx512,
                             copy_avx512,
                             xor_avx512,
                             diff_or_avx512,
                             blend_avx512,
                             lane_diff_or_avx512,
                             expand_bits_avx2,
                             diff_column_mask_avx512};

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // FASTDIAG_SIMD_X86

const LimbOps& table_for(IsaLevel level) {
#if FASTDIAG_SIMD_X86
  switch (level) {
    case IsaLevel::avx512:
      return kAvx512Ops;
    case IsaLevel::avx2:
      return kAvx2Ops;
    case IsaLevel::scalar:
      break;
  }
#else
  (void)level;
#endif
  return kScalarOps;
}

std::atomic<const LimbOps*> g_active{nullptr};
std::once_flag g_init_once;

void init_active() {
  IsaLevel level = detected_level();
  if (const char* forced = std::getenv("FASTDIAG_FORCE_ISA")) {
    const auto parsed = parse_isa(forced);
    require(parsed.has_value(), [&] {
      return "FASTDIAG_FORCE_ISA='" + std::string(forced) +
             "' is not one of scalar|avx2|avx512";
    });
    require(*parsed <= detected_level(), [&] {
      return std::string("FASTDIAG_FORCE_ISA=") + isa_name(*parsed) +
             " exceeds what this CPU supports (detected " +
             isa_name(detected_level()) + ")";
    });
    level = *parsed;
    std::fprintf(stderr, "fastdiag: simd dispatch forced to %s (detected %s)\n",
                 isa_name(level), isa_name(detected_level()));
  }
  g_active.store(&table_for(level), std::memory_order_release);
}

}  // namespace

const char* isa_name(IsaLevel level) {
  switch (level) {
    case IsaLevel::scalar:
      return "scalar";
    case IsaLevel::avx2:
      return "avx2";
    case IsaLevel::avx512:
      return "avx512";
  }
  return "scalar";
}

std::optional<IsaLevel> parse_isa(std::string_view name) {
  if (name == "scalar") {
    return IsaLevel::scalar;
  }
  if (name == "avx2") {
    return IsaLevel::avx2;
  }
  if (name == "avx512") {
    return IsaLevel::avx512;
  }
  return std::nullopt;
}

IsaLevel detected_level() {
#if FASTDIAG_SIMD_X86
  static const IsaLevel detected = [] {
    if (__builtin_cpu_supports("avx512f")) {
      return IsaLevel::avx512;
    }
    if (__builtin_cpu_supports("avx2")) {
      return IsaLevel::avx2;
    }
    return IsaLevel::scalar;
  }();
  return detected;
#else
  return IsaLevel::scalar;
#endif
}

const LimbOps& dispatch() {
  const LimbOps* active = g_active.load(std::memory_order_acquire);
  if (active == nullptr) {
    std::call_once(g_init_once, init_active);
    active = g_active.load(std::memory_order_acquire);
  }
  return *active;
}

IsaLevel active_level() { return dispatch().level; }

bool force(IsaLevel level) {
  if (level > detected_level()) {
    return false;
  }
  std::call_once(g_init_once, init_active);
  g_active.store(&table_for(level), std::memory_order_release);
  return true;
}

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
