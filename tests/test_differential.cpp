// Randomized differential tests between the diagnosis architectures
// (test_kernel.cpp style: hundreds of seeded random fault mixes and
// geometries, bit-exact comparisons).
//
// Oracles, strongest to weakest:
//  * The wrap-emulating MarchRunner is an *exact* oracle for the fast
//    scheme: for every memory of any SoC, the sorted suspect-cell set the
//    scheme logs must equal the runner's — the SPC/PSC delivery, the
//    batched serialization and the controller's wrap-around addressing must
//    all be transparent.  This holds for every fault family, SOF and DRF
//    included.
//  * The reconstructed baseline localizes through the memory cells, so its
//    per-cell candidates may land on fill-corrupted neighbours inside a
//    faulty row (see baseline_scheme.h); its complete, repeatable guarantee
//    is the *row* set, and only for populations its serial passes fully
//    expose: stuck-at / transition faults, at most one fault per row, and
//    spares to repair past every find.  Coupling and address faults are
//    exposed differently by the two architectures by design (the fast
//    scheme's single-run completeness vs. iterative peeling) — that
//    difference is the paper's point, not a bug, so they are excluded here
//    and covered by the runner oracle above.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "core/fastdiag.h"

namespace fastdiag {
namespace {

using faults::FaultInstance;
using faults::FaultKind;
using sram::CellCoord;
using sram::SramConfig;

SramConfig cfg(const std::string& name, std::uint32_t words,
               std::uint32_t bits, std::uint32_t spares) {
  SramConfig config;
  config.name = name;
  config.words = words;
  config.bits = bits;
  config.spare_rows = spares;
  return config;
}

CellCoord random_cell(const SramConfig& config, Rng& rng) {
  return {static_cast<std::uint32_t>(rng.uniform(config.words)),
          static_cast<std::uint32_t>(rng.uniform(config.bits))};
}

/// Every fault family the engine models, SOF and DRF included.
std::vector<FaultInstance> random_full_mix(const SramConfig& config,
                                           std::size_t count, Rng& rng) {
  static const FaultKind cell_kinds[] = {
      FaultKind::sa0,  FaultKind::sa1,  FaultKind::tf_up,
      FaultKind::tf_down, FaultKind::sof, FaultKind::drf0, FaultKind::drf1};
  static const FaultKind coupling_kinds[] = {
      FaultKind::cf_in_up,   FaultKind::cf_in_down,  FaultKind::cf_id_up0,
      FaultKind::cf_id_up1,  FaultKind::cf_id_down0, FaultKind::cf_id_down1,
      FaultKind::cf_st_00,   FaultKind::cf_st_01,    FaultKind::cf_st_10,
      FaultKind::cf_st_11};
  std::vector<FaultInstance> out;
  for (std::size_t i = 0; i < count; ++i) {
    switch (rng.uniform(3)) {
      case 0:
        out.push_back(faults::make_cell_fault(
            cell_kinds[rng.uniform(std::size(cell_kinds))],
            random_cell(config, rng)));
        break;
      case 1: {
        const auto aggressor = random_cell(config, rng);
        auto victim = random_cell(config, rng);
        if (victim == aggressor) {
          victim.bit = (victim.bit + 1) % config.bits;
          if (victim == aggressor) {
            victim.row = (victim.row + 1) % config.words;
          }
        }
        out.push_back(faults::make_coupling_fault(
            coupling_kinds[rng.uniform(std::size(coupling_kinds))], aggressor,
            victim));
        break;
      }
      default: {
        const auto addr =
            static_cast<std::uint32_t>(rng.uniform(config.words));
        if (config.words < 2 || rng.bernoulli(0.34)) {
          out.push_back(
              faults::make_address_fault(FaultKind::af_no_access, addr));
          break;
        }
        std::uint32_t other =
            static_cast<std::uint32_t>(rng.uniform(config.words - 1));
        if (other >= addr) {
          ++other;
        }
        out.push_back(faults::make_address_fault(
            rng.bernoulli(0.5) ? FaultKind::af_wrong_row
                               : FaultKind::af_extra_row,
            addr, other));
        break;
      }
    }
  }
  return out;
}

/// Sorted suspect-cell vector of a diagnosis log for one memory.
std::vector<CellCoord> sorted_cells(const bisd::DiagnosisLog& log,
                                    std::size_t memory_index) {
  const auto cells = log.cells(memory_index);
  return {cells.begin(), cells.end()};  // std::set iterates sorted
}

// ---- fast scheme vs. wrap-emulating runner (cell-exact) -------------------

TEST(Differential, FastSchemeMatchesRunnerOnRandomSingleMemories) {
  Rng rng(90125);
  for (int trial = 0; trial < 300; ++trial) {
    const auto config =
        cfg("s" + std::to_string(trial),
            static_cast<std::uint32_t>(rng.uniform_in(2, 28)),
            static_cast<std::uint32_t>(rng.uniform_in(2, 36)), 4);
    const auto truth = random_full_mix(config, rng.uniform(6), rng);

    bisd::SocUnderTest soc;
    soc.add_memory(config, truth);
    bisd::FastScheme scheme;
    const auto result = scheme.diagnose(soc);

    sram::Sram standalone(config,
                          std::make_unique<faults::FaultSet>(truth));
    const auto reference = march::MarchRunner().run(
        standalone, scheme.test_for_width(config.bits));

    EXPECT_EQ(sorted_cells(result.log, 0), reference.suspect_cells())
        << "trial " << trial << " (" << config.words << "x" << config.bits
        << ")";
  }
}

TEST(Differential, FastSchemeMatchesRunnerOnHeterogeneousSoCs) {
  // The controller sweeps the largest capacity; smaller memories wrap and
  // see every pattern several times (Sec. 3.1).  The runner reproduces the
  // wrap through its global_words parameter — per-memory suspect sets must
  // still be identical.
  Rng rng(31);
  for (int trial = 0; trial < 150; ++trial) {
    const int memories = 2 + static_cast<int>(rng.uniform(2));
    std::vector<SramConfig> configs;
    std::vector<std::vector<FaultInstance>> truths;
    for (int m = 0; m < memories; ++m) {
      configs.push_back(
          cfg("h" + std::to_string(trial) + "_" + std::to_string(m),
              static_cast<std::uint32_t>(rng.uniform_in(2, 20)),
              static_cast<std::uint32_t>(rng.uniform_in(2, 70)), 4));
      truths.push_back(random_full_mix(configs.back(), rng.uniform(5), rng));
    }

    bisd::SocUnderTest soc;
    for (int m = 0; m < memories; ++m) {
      soc.add_memory(configs[m], truths[m]);
    }
    bisd::FastScheme scheme;
    const auto result = scheme.diagnose(soc);
    const auto test = scheme.test_for_width(soc.max_bits());
    const auto n_max = soc.max_words();

    for (int m = 0; m < memories; ++m) {
      sram::Sram standalone(configs[m],
                            std::make_unique<faults::FaultSet>(truths[m]));
      const auto reference =
          march::MarchRunner().run(standalone, test, n_max);
      EXPECT_EQ(sorted_cells(result.log, m), reference.suspect_cells())
          << "trial " << trial << " memory " << m;
    }
  }
}

// ---- fast vs. baseline (row-exact on fully-localizable populations) -------

TEST(Differential, FastAndBaselineAgreeOnStuckAtTransitionRows) {
  Rng rng(2027);
  for (int trial = 0; trial < 150; ++trial) {
    const auto config =
        cfg("b" + std::to_string(trial),
            static_cast<std::uint32_t>(rng.uniform_in(4, 16)),
            static_cast<std::uint32_t>(rng.uniform_in(2, 12)), 0);
    auto repairable = config;
    repairable.spare_rows = repairable.words;  // repair past every find

    static const FaultKind kinds[] = {FaultKind::sa0, FaultKind::sa1,
                                      FaultKind::tf_up, FaultKind::tf_down};
    std::set<std::uint32_t> used_rows;
    std::vector<FaultInstance> truth;
    const int count = 1 + static_cast<int>(rng.uniform(4));
    for (int f = 0; f < count && used_rows.size() < config.words; ++f) {
      std::uint32_t row;
      do {
        row = static_cast<std::uint32_t>(rng.uniform(config.words));
      } while (used_rows.count(row) != 0);
      used_rows.insert(row);
      truth.push_back(faults::make_cell_fault(
          kinds[rng.uniform(std::size(kinds))],
          {row, static_cast<std::uint32_t>(rng.uniform(config.bits))}));
    }

    bisd::SocUnderTest fast_soc;
    fast_soc.add_memory(repairable, truth);
    bisd::FastSchemeOptions fast_options;
    fast_options.include_drf = false;
    bisd::FastScheme fast(fast_options);
    const auto fast_rows = fast.diagnose(fast_soc).log.faulty_rows(0);

    bisd::SocUnderTest base_soc;
    base_soc.add_memory(repairable, truth);
    bisd::BaselineScheme baseline;
    const auto base_result = baseline.diagnose(base_soc);
    const auto base_rows = base_result.log.faulty_rows(0);

    EXPECT_EQ(fast_rows, base_rows) << "trial " << trial;
    EXPECT_EQ(fast_rows, std::vector<std::uint32_t>(used_rows.begin(),
                                                    used_rows.end()))
        << "trial " << trial;

    // The baseline's cell candidates stay inside the faulty rows even when
    // serial-chain corruption shifts them off the defective bit.
    for (const auto& record : base_result.log.records()) {
      EXPECT_TRUE(used_rows.count(record.addr) != 0)
          << "trial " << trial << ": stray candidate row " << record.addr;
    }
  }
}

}  // namespace
}  // namespace fastdiag
