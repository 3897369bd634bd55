#include "bisd/baseline_scheme.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "serial/serial_interface.h"
#include "util/require.h"

namespace fastdiag::bisd {
namespace {

using serial::BidiSerialInterface;
using serial::SerialPassResult;
using serial::ShiftDirection;

/// Fill patterns the reconstructed DiagRSMarch shifts through the chains.
enum class Fill { zeros, ones, checker, checker_inv };

BitVector fill_pattern(Fill fill, std::uint32_t addr, std::uint32_t bits) {
  BitVector word(bits);
  switch (fill) {
    case Fill::zeros:
      break;
    case Fill::ones:
      word.fill(true);
      break;
    case Fill::checker:
      for (std::uint32_t j = 0; j < bits; ++j) {
        word.set(j, ((j ^ addr) & 1u) != 0);
      }
      break;
    case Fill::checker_inv:
      for (std::uint32_t j = 0; j < bits; ++j) {
        word.set(j, ((j ^ addr) & 1u) == 0);
      }
      break;
  }
  return word;
}

struct PassSpec {
  ShiftDirection dir;
  Fill fill;
  /// Retention pause taken before this pass (delay-based DRF reads).
  std::uint64_t pause_before_ns = 0;
};

/// Base part: 17 passes — init, solid marching pairs and checkerboard pairs.
///
/// Directions strictly alternate.  Localization through the serial chain is
/// only trustworthy when a pass shifts *against* the previous fill: a right
/// fill corrupts the content above the lowest faulty cell, so the following
/// left-shifting observation meets clean content and clean transit up to
/// exactly that cell (and vice versa).  Same-direction back-to-back passes
/// would blame the first good cell whose content the previous fill already
/// corrupted.
std::vector<PassSpec> base_passes() {
  using D = ShiftDirection;
  return {
      {D::right, Fill::zeros},       {D::left, Fill::ones},
      {D::right, Fill::zeros},       {D::left, Fill::checker},
      {D::right, Fill::checker_inv}, {D::left, Fill::zeros},
      {D::right, Fill::ones},        {D::left, Fill::zeros},
      {D::right, Fill::checker},     {D::left, Fill::checker_inv},
      {D::right, Fill::zeros},       {D::left, Fill::ones},
      {D::right, Fill::zeros},       {D::left, Fill::checker_inv},
      {D::right, Fill::checker},     {D::left, Fill::zeros},
      {D::right, Fill::zeros},
  };
}

/// Diagnostic M1 block: 9 passes per iteration, alternating directions.
/// The left passes localize the lowest faulty cell of the first failing
/// word, the right passes the highest — the "at most two faults per
/// iteration" behaviour of Sec. 4.2.
std::vector<PassSpec> m1_passes() {
  using D = ShiftDirection;
  return {
      {D::left, Fill::ones},       {D::right, Fill::zeros},
      {D::left, Fill::ones},       {D::right, Fill::checker},
      {D::left, Fill::checker_inv}, {D::right, Fill::zeros},
      {D::left, Fill::ones},       {D::right, Fill::zeros},
      {D::left, Fill::zeros},
  };
}

/// Retention pause per polarity (the paper's 100 ms).
constexpr std::uint64_t kRetentionPauseNs = 100'000'000;

/// Safety bound on diagnostic iterations.
constexpr std::uint64_t kMaxIterations = 100'000;

/// Delay-based retention block: (w, pause, r) pairs for both data states —
/// 8 passes, two pauses per block (Eq. (4)'s 8k and 200 ms terms).  Each
/// observe pass shifts against its fill so decayed cells localize.
std::vector<PassSpec> retention_passes(std::uint64_t pause_ns) {
  using D = ShiftDirection;
  return {
      {D::right, Fill::zeros},          // w0 fill
      {D::left, Fill::zeros, pause_ns}, // pause, then observe the zeros
      {D::right, Fill::ones},           // w1 fill
      {D::left, Fill::ones, pause_ns},  // pause, then observe the ones
      {D::right, Fill::zeros},
      {D::left, Fill::zeros},
      {D::right, Fill::ones},
      {D::left, Fill::ones},
  };
}

}  // namespace

BaselineScheme::BaselineScheme(BaselineSchemeOptions options)
    : options_(options) {}

std::string BaselineScheme::name() const {
  return options_.include_drf
             ? "baseline-bidir-serial (DiagRSMarch + retention)"
             : "baseline-bidir-serial (DiagRSMarch)";
}

std::uint64_t BaselineScheme::passes_per_iteration() const {
  return options_.include_drf ? 9u + 8u : 9u;
}

DiagnosisResult BaselineScheme::diagnose(SocUnderTest& soc) {
  const std::size_t memories = soc.memory_count();
  const std::uint64_t pass_cycles =
      static_cast<std::uint64_t>(soc.max_words()) * soc.max_bits();

  // Per-memory machinery: the bi-directional interface, a golden shadow
  // (with its own interface) providing the expected streams, and the
  // repair bookkeeping.
  std::vector<std::unique_ptr<sram::Sram>> golden;
  std::vector<std::unique_ptr<BidiSerialInterface>> real_if;
  std::vector<std::unique_ptr<BidiSerialInterface>> golden_if;
  // Spares are allocated in index order; a retest after repair starts at
  // the memory's next free one.
  std::vector<std::uint32_t> spares_used(memories, 0);
  for (std::size_t i = 0; i < memories; ++i) {
    spares_used[i] = soc.memory(i).spares_used();
    auto config = soc.config(i);
    config.name += ".golden";
    golden.push_back(std::make_unique<sram::Sram>(config));
    real_if.push_back(std::make_unique<BidiSerialInterface>(soc.memory(i)));
    golden_if.push_back(std::make_unique<BidiSerialInterface>(*golden[i]));
  }

  DiagnosisResult result;
  result.iterations = 0;
  // The passes carry no March background: records log an all-zero one of
  // their memory's width.
  std::vector<std::uint32_t> background_ids(memories);
  for (std::size_t i = 0; i < memories; ++i) {
    background_ids[i] = result.log.intern(BitVector(soc.config(i).bits));
  }
  std::uint64_t cycles = 0;

  /// One candidate: the first faulty cell from the pass's exit end.
  struct Candidate {
    std::uint32_t addr;
    std::uint32_t bit;
  };

  // Runs one pass on every memory (hardware runs them in parallel: one
  // pass_cycles charge) and extracts at most one candidate per memory.
  // Localization is only trustworthy when this pass shifts against the
  // previous fill (see base_passes()); other passes still cost their
  // cycles but register nothing.
  std::optional<ShiftDirection> last_dir;
  const auto run_pass =
      [&](const PassSpec& spec, std::size_t pass_index,
          std::vector<std::optional<Candidate>>& candidates) {
        if (spec.pause_before_ns > 0) {
          result.time.add_pause_ns(spec.pause_before_ns);
          soc.advance_time_ns(spec.pause_before_ns);
        }
        cycles += pass_cycles;
        soc.advance_time_ns(pass_cycles * options_.clock.period_ns);
        const bool localizes =
            last_dir.has_value() && *last_dir != spec.dir;
        last_dir = spec.dir;

        for (std::size_t i = 0; i < memories; ++i) {
          const std::uint32_t bits = soc.config(i).bits;
          const auto provider = [&](std::uint32_t addr) {
            return fill_pattern(spec.fill, addr, bits);
          };
          const SerialPassResult seen = real_if[i]->pass(spec.dir, provider);
          const SerialPassResult want = golden_if[i]->pass(spec.dir, provider);

          candidates[i] = std::nullopt;
          if (!localizes) {
            continue;
          }
          for (std::size_t v = 0; v < seen.observed.size(); ++v) {
            // Stream order: right shift exits MSB first, so the first
            // trustworthy mismatch is the highest differing bit; left
            // shift is the mirror image.  The limb-wise scan builds no
            // temporary diff vector.
            const std::ptrdiff_t bit =
                spec.dir == ShiftDirection::right
                    ? seen.observed[v].last_mismatch(want.observed[v])
                    : seen.observed[v].first_mismatch(want.observed[v]);
            if (bit < 0) {
              continue;
            }
            candidates[i] = Candidate{seen.addresses[v],
                                      static_cast<std::uint32_t>(bit)};
            break;  // everything after the first failure is untrustworthy
          }
          (void)pass_index;
        }
      };

  // Registers a candidate (one failure register per direction) as a
  // one-bit entry, repairs the row from the backup memory, and syncs it to
  // the golden image so the next pass sees consistent data.  Returns true
  // when the fault is new.
  const auto register_and_repair = [&](std::size_t i,
                                       const Candidate& candidate,
                                       std::size_t pass_group,
                                       std::size_t pass_index) {
    if (result.log.contains(i, {candidate.addr, candidate.bit})) {
      return false;
    }
    DiagnosisEvent event;
    event.cycle_base = cycles;
    event.phase = static_cast<std::uint32_t>(pass_group);
    event.element = static_cast<std::uint32_t>(pass_index);
    event.background = background_ids[i];
    result.log.add_word(static_cast<std::uint32_t>(i), candidate.addr,
                        candidate.bit / 64,
                        std::uint64_t{1} << (candidate.bit % 64),
                        result.log.intern(event));

    auto& memory = soc.memory(i);
    if (!memory.is_repaired(candidate.addr) &&
        spares_used[i] < soc.config(i).spare_rows) {
      memory.repair_row(candidate.addr, spares_used[i]);
      ++spares_used[i];
      // Re-initialize the spare with the golden image of the row.
      memory.write(candidate.addr, golden[i]->read(candidate.addr));
    }
    return true;
  };

  // ---- base part: 17 passes, detection only ------------------------------
  // The base part establishes pass/fail; localization is the M1 block's job
  // (the paper's k counts M1 iterations, "each iteration ... can identify
  // at most two faults").
  {
    const auto passes = base_passes();
    ensure(passes.size() == base_pass_count(),
           "BaselineScheme: base part must be 17 passes");
    std::vector<std::optional<Candidate>> candidates(memories);
    for (std::size_t p = 0; p < passes.size(); ++p) {
      run_pass(passes[p], p, candidates);
    }
  }

  // ---- diagnostic loop: M1 (+ retention) blocks until nothing new --------
  auto m1 = m1_passes();
  ensure(m1.size() == 9, "BaselineScheme: M1 block must be 9 passes");
  for (std::uint64_t iteration = 0; iteration < kMaxIterations; ++iteration) {
    std::vector<PassSpec> block = m1;
    if (options_.include_drf) {
      const auto drf = retention_passes(kRetentionPauseNs);
      block.insert(block.end(), drf.begin(), drf.end());
    }

    // Failure-register pair per memory: the first new candidate from a
    // right pass and the first from a left pass ("at most two faults per
    // M1 iteration").
    std::vector<std::optional<Candidate>> first_right(memories);
    std::vector<std::optional<Candidate>> first_left(memories);
    std::vector<std::optional<Candidate>> candidates(memories);
    for (std::size_t p = 0; p < block.size(); ++p) {
      run_pass(block[p], p, candidates);
      for (std::size_t i = 0; i < memories; ++i) {
        if (!candidates[i]) {
          continue;
        }
        auto& slot = block[p].dir == ShiftDirection::right ? first_right[i]
                                                           : first_left[i];
        if (!slot) {
          slot = candidates[i];
        }
      }
    }

    ++result.iterations;
    bool any_new = false;
    for (std::size_t i = 0; i < memories; ++i) {
      for (const auto& slot : {first_right[i], first_left[i]}) {
        if (slot) {
          any_new |= register_and_repair(i, *slot, 1 + iteration, 0);
        }
      }
    }
    if (!any_new) {
      break;
    }
  }

  result.time.add_cycles(cycles);
  result.log.seal();
  return result;
}

}  // namespace fastdiag::bisd
