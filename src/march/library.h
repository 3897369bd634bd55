// The March algorithm library.
//
// All classical tests are built for an explicit word width so they can be
// applied to heterogeneous memories (the BISD controller dimensions tests by
// the widest memory, Sec. 3.1):
//
//   MATS+      5n    {any(w0); up(r0,w1); down(r1,w0)}
//   March X    6n    {any(w0); up(r0,w1); down(r1,w0); any(r0)}
//   March Y    8n    {any(w0); up(r0,w1,r1); down(r1,w0,r0); any(r0)}
//   March C-  10n    {any(w0); up(r0,w1); up(r1,w0);
//                     down(r0,w1); down(r1,w0); any(r0)}
//   March A   15n    {any(w0); up(r0,w1,w0,w1); up(r1,w0,w1);
//                     down(r1,w0,w1,w0); down(r0,w1,w0)}
//   March B   17n    {any(w0); up(r0,w1,r1,w0,r0,w1); up(r1,w0,w1);
//                     down(r1,w0,w1,w0); down(r0,w1,w0)}
//   March CW        March C- under the solid background + per stripe
//                    background B: {any(wB); any(rB,w~B); any(r~B,wB)}
//                    (the element set that reproduces Eq. (2) exactly under
//                    the SPC/PSC cost model)
//   March CW+NWRTM  March CW whose solid-phase M1/M2 write-backs are NWRC
//                    writes (up(r0,nw1); up(r1,nw0)): a DRF cell fails the
//                    NWRC and the next element's read exposes it — DRFs
//                    detected with zero wait and zero extra operations
//   <any>+retention  appends {any(w0); once(pause); any(r0);
//                    any(w1); once(pause); any(r1)} — the classical
//                    delay-based DRF extension (100 ms per state)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "march/test.h"

namespace fastdiag::march {

[[nodiscard]] MarchTest mats_plus(std::size_t width);
[[nodiscard]] MarchTest march_x(std::size_t width);
[[nodiscard]] MarchTest march_y(std::size_t width);
[[nodiscard]] MarchTest march_c_minus(std::size_t width);
[[nodiscard]] MarchTest march_a(std::size_t width);
[[nodiscard]] MarchTest march_b(std::size_t width);
[[nodiscard]] MarchTest march_cw(std::size_t width);
[[nodiscard]] MarchTest march_cw_nwrtm(std::size_t width);

/// March LR, 14n — linked-fault oriented:
/// {any(w0); down(r0,w1); up(r1,w0,r0,w1); up(r1,w0); up(r0,w1,r1,w0);
///  any(r0)}
[[nodiscard]] MarchTest march_lr(std::size_t width);

/// March SS, 22n — all simple static faults, read-after-read pairs:
/// {any(w0); up(r0,r0,w0,r0,w1); up(r1,r1,w1,r1,w0);
///  down(r0,r0,w0,r0,w1); down(r1,r1,w1,r1,w0); any(r0)}
[[nodiscard]] MarchTest march_ss(std::size_t width);

/// March G, 23n + 2 pauses — March B extended with delay elements, the
/// classical all-in-one (incl. SOF via read-after-write and DRFs via the
/// retention pauses).  @p pause_ns defaults to the paper's 100 ms.
[[nodiscard]] MarchTest march_g(std::size_t width,
                                std::uint64_t pause_ns = 100'000'000);

// ---- ablation variants (E9 in core/paper_tables.cpp) -----------------------

/// March CW with the *paper's* 2-read top-up {wB; (rB,w~B); (r~B,wB)} —
/// exactly Eq. (2)'s (3n+3c+2n(c+1)) per background, but its final write is
/// unverified and some intra-word CFid instances escape (see E9's table A).
[[nodiscard]] MarchTest march_cw_paper_topup(std::size_t width);

/// NWRTM merge in the "NWRC + immediate verify read" form:
/// up(r0,nw1,r1); up(r1,nw0,r0).  Same DRF coverage as march_cw_nwrtm(),
/// detection one element earlier, but costs n(1+c) extra cycles per
/// polarity under the PSC cost model — the variant Eq. (4)'s (2n+2c)t
/// budget cannot afford.
[[nodiscard]] MarchTest march_cw_nwrtm_verify(std::size_t width);

/// Classical delay-based DRF extension: appends w/pause/r element pairs for
/// both states.  @p pause_ns defaults to the 100 ms the paper quotes.
[[nodiscard]] MarchTest with_retention_pause(
    const MarchTest& base, std::uint64_t pause_ns = 100'000'000);

/// Every library algorithm (without retention extensions) for sweep-style
/// tests and benches.
[[nodiscard]] std::vector<MarchTest> all_library_tests(std::size_t width);

/// Complexity bookkeeping of the reconstructed DiagRSMarch of [7,8]
/// (Sec. 2 / Eq. (1)): a serial pass touches every bit of every word, and
/// the algorithm spends 17 passes in its base part plus 9 passes per
/// diagnostic M1 iteration, i.e. T = (17 + 9k) * n * c * t.
struct DiagRsMarchShape {
  std::uint64_t base_passes = 17;
  std::uint64_t m1_passes = 9;
};
[[nodiscard]] constexpr DiagRsMarchShape diag_rs_march_shape() { return {}; }

}  // namespace fastdiag::march
