// Cross-module integration and property tests: randomized differential
// checks between the layers (runner vs. fast scheme, fault engine vs.
// golden model), full diagnose-repair-verify lifecycles, and determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "core/fastdiag.h"

namespace fastdiag {
namespace {

using faults::FaultInstance;
using faults::FaultKind;
using sram::CellCoord;
using sram::SramConfig;

SramConfig cfg(std::uint32_t words, std::uint32_t bits,
               std::uint32_t spares = 8) {
  SramConfig config;
  config.name = "i" + std::to_string(words) + "x" + std::to_string(bits);
  config.words = words;
  config.bits = bits;
  config.spare_rows = spares;
  return config;
}

/// Draws a random population of non-SOF logic faults (SOF detection is
/// boundary-dependent; these properties need determinate full coverage).
std::vector<FaultInstance> random_logic_faults(const SramConfig& config,
                                               std::size_t count, Rng& rng) {
  std::vector<FaultInstance> out;
  const auto sites =
      rng.sample_without_replacement(config.cell_count(), count * 2);
  std::size_t next_site = 0;
  const auto take_cell = [&] {
    const auto site = sites[next_site++];
    return CellCoord{static_cast<std::uint32_t>(site / config.bits),
                     static_cast<std::uint32_t>(site % config.bits)};
  };
  for (std::size_t i = 0; i < count; ++i) {
    switch (rng.uniform(4)) {
      case 0:
        out.push_back(faults::make_cell_fault(
            rng.bernoulli(0.5) ? FaultKind::sa0 : FaultKind::sa1,
            take_cell()));
        break;
      case 1:
        out.push_back(faults::make_cell_fault(
            rng.bernoulli(0.5) ? FaultKind::tf_up : FaultKind::tf_down,
            take_cell()));
        break;
      case 2: {
        const auto aggressor = take_cell();
        auto victim = take_cell();
        if (victim == aggressor) {
          victim.bit = (victim.bit + 1) % config.bits;
        }
        static const FaultKind kinds[] = {
            FaultKind::cf_in_up,   FaultKind::cf_in_down,
            FaultKind::cf_id_up0,  FaultKind::cf_id_up1,
            FaultKind::cf_id_down0, FaultKind::cf_id_down1,
            FaultKind::cf_st_00,   FaultKind::cf_st_01,
            FaultKind::cf_st_10,   FaultKind::cf_st_11,
        };
        out.push_back(faults::make_coupling_fault(
            kinds[rng.uniform(std::size(kinds))], aggressor, victim));
        break;
      }
      default: {
        const auto cell = take_cell();
        std::uint32_t other =
            static_cast<std::uint32_t>(rng.uniform(config.words - 1));
        if (other >= cell.row) {
          ++other;
        }
        out.push_back(faults::make_address_fault(FaultKind::af_extra_row,
                                                 cell.row, other));
        break;
      }
    }
  }
  return out;
}

// ---- runner vs. fast scheme differential ---------------------------------

TEST(Differential, FastSchemeAgreesWithRunnerOnSingleMemory) {
  // Property: for a single memory, the set of cells the fast scheme logs
  // equals the suspect set of the word-parallel runner executing the same
  // algorithm — the SPC/PSC plumbing must be transparent.
  Rng rng(1234);
  for (int trial = 0; trial < 12; ++trial) {
    const auto config = cfg(16, 8);
    const auto truth = random_logic_faults(config, 1 + rng.uniform(4), rng);

    sram::Sram standalone(config,
                          std::make_unique<faults::FaultSet>(truth));
    const auto runner_result = march::MarchRunner().run(
        standalone, march::march_cw_nwrtm(config.bits));

    bisd::SocUnderTest soc;
    soc.add_memory(config, truth);
    bisd::FastScheme scheme;
    const auto scheme_result = scheme.diagnose(soc);

    const auto suspects = runner_result.suspect_cells();  // sorted unique
    EXPECT_EQ(scheme_result.log.cells(0),
              std::vector<sram::CellCoord>(suspects.begin(), suspects.end()))
        << "trial " << trial;
  }
}

TEST(Differential, FaultFreeMemoryMatchesGoldenUnderRandomTraffic) {
  // Property: a Sram with an *empty* FaultSet is indistinguishable from a
  // plain golden memory under arbitrary operation sequences.
  Rng rng(77);
  const auto config = cfg(16, 8);
  sram::Sram faulty(config, std::make_unique<faults::FaultSet>());
  sram::Sram golden(config);
  for (int step = 0; step < 2000; ++step) {
    const auto addr = static_cast<std::uint32_t>(rng.uniform(config.words));
    switch (rng.uniform(3)) {
      case 0: {
        const auto value = BitVector::from_value(
            config.bits, rng.next_u64() & 0xFFu);
        faulty.write(addr, value);
        golden.write(addr, value);
        break;
      }
      case 1: {
        const auto value = BitVector::from_value(
            config.bits, rng.next_u64() & 0xFFu);
        faulty.nwrc_write(addr, value);
        golden.nwrc_write(addr, value);
        break;
      }
      default:
        ASSERT_EQ(faulty.read(addr), golden.read(addr)) << "step " << step;
    }
  }
}

// ---- lifecycle ------------------------------------------------------------

TEST(Lifecycle, DiagnoseRepairVerifyAcrossRandomPopulations) {
  Rng rng(555);
  for (int trial = 0; trial < 8; ++trial) {
    const auto config = cfg(32, 8, 32);
    const auto truth = random_logic_faults(config, 3 + rng.uniform(5), rng);

    bisd::SocUnderTest soc;
    soc.add_memory(config, truth);
    bisd::FastScheme scheme;

    const auto first = scheme.diagnose(soc);
    const auto report =
        faults::match_diagnosis(truth, first.log.cells(0), config);
    EXPECT_DOUBLE_EQ(report.recall(), 1.0) << "trial " << trial;

    const auto plan = bisd::plan_repair(first.log, soc);
    ASSERT_TRUE(plan.fully_repairable()) << "trial " << trial;
    bisd::apply_repair(soc, plan);

    const auto second = scheme.diagnose(soc);
    EXPECT_TRUE(second.log.empty()) << "trial " << trial;
  }
}

TEST(Lifecycle, BaselineAndFastAgreeOnFaultyRowsOfRepairablePopulations) {
  // Row-level agreement: with ample spares, the iterative baseline must
  // eventually identify the same faulty rows the fast scheme sees at once
  // (modulo SOF-free populations).
  Rng rng(889);
  for (int trial = 0; trial < 6; ++trial) {
    const auto config = cfg(32, 8, 32);
    const auto truth = random_logic_faults(config, 2 + rng.uniform(4), rng);

    bisd::SocUnderTest fast_soc;
    fast_soc.add_memory(config, truth);
    bisd::FastSchemeOptions options;
    options.include_drf = false;
    bisd::FastScheme fast(options);
    const auto fast_rows = fast.diagnose(fast_soc).log.faulty_rows(0);

    bisd::SocUnderTest base_soc;
    base_soc.add_memory(config, truth);
    bisd::BaselineScheme baseline;
    const auto base_rows = baseline.diagnose(base_soc).log.faulty_rows(0);

    // The baseline's candidates can include the aggressor row of a coupling
    // fault the fast scheme attributes to the victim row (both are in the
    // footprint); require fast ⊆ base ∪ footprint-rows instead of equality.
    std::set<std::uint32_t> footprint_rows;
    for (const auto& fault : truth) {
      for (const auto& cell : fault.footprint(config)) {
        footprint_rows.insert(cell.row);
      }
    }
    for (const auto row : fast_rows) {
      EXPECT_TRUE(footprint_rows.count(row) != 0)
          << "fast row " << row << " not explained, trial " << trial;
    }
    for (const auto row : base_rows) {
      EXPECT_TRUE(footprint_rows.count(row) != 0)
          << "baseline row " << row << " not explained, trial " << trial;
    }
    // Every fault is found by both at row granularity.
    const auto rows_of = [&](const std::vector<std::uint32_t>& diagnosed) {
      std::size_t matched = 0;
      for (const auto& fault : truth) {
        for (const auto& cell : fault.footprint(config)) {
          if (std::binary_search(diagnosed.begin(), diagnosed.end(),
                                 cell.row)) {
            ++matched;
            break;
          }
        }
      }
      return matched;
    };
    EXPECT_EQ(rows_of(fast_rows), truth.size()) << "trial " << trial;
    EXPECT_EQ(rows_of(base_rows), truth.size()) << "trial " << trial;
  }
}

// ---- scan-out -------------------------------------------------------------

TEST(ScanOut, CsvExportRoundTripsTheRecords) {
  bisd::SocUnderTest soc;
  soc.add_memory(cfg(16, 4),
                 {faults::make_cell_fault(FaultKind::sa0, {3, 2})});
  bisd::FastScheme scheme;
  const auto result = scheme.diagnose(soc);
  const auto csv = result.log.to_csv();
  EXPECT_NE(csv.find("memory,addr,bit,background,phase,element,op,visit,cycle"),
            std::string::npos);
  EXPECT_NE(csv.find("0,3,2,"), std::string::npos);
  // One header line plus one line per record.
  const auto lines = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(static_cast<std::size_t>(lines),
            result.log.records().size() + 1);
}

// ---- determinism ----------------------------------------------------------

TEST(Determinism, WholePipelineIsBitExactUnderSeeds) {
  const auto run = [] {
    const auto spec = core::SessionSpec::builder()
                          .add_sram(cfg(32, 8, 32))
                          .add_sram(cfg(16, 12, 16))
                          .defect_rate(0.03)
                          .seed(31415)
                          .with_repair(true)
                          .build();
    EXPECT_TRUE(spec.has_value());
    return core::DiagnosisEngine::execute(spec.value());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.result.log.to_csv(), b.result.log.to_csv());
  EXPECT_EQ(a.result.time.cycles, b.result.time.cycles);
  EXPECT_EQ(a.repair->repaired_row_count(), b.repair->repaired_row_count());
}

TEST(Determinism, BatchResultsAreIndependentOfWorkerInterleaving) {
  // The cross-module version of the engine guarantee: a batch mixing
  // repair flows and heterogeneous SoCs replays bit-exactly at any
  // worker count, and execute() of the same spec matches the batch entry.
  core::SweepSpec sweep;
  sweep.base = core::SessionSpec::builder()
                   .add_sram(cfg(32, 8, 32))
                   .add_sram(cfg(16, 12, 16))
                   .with_repair(true);
  sweep.defect_rates = {0.01, 0.03};
  sweep.seeds = {271, 828};
  const auto specs = sweep.expand();
  ASSERT_TRUE(specs.has_value());

  const auto serial =
      core::DiagnosisEngine({.workers = 1}).run_batch(specs.value());
  const auto parallel =
      core::DiagnosisEngine({.workers = 8}).run_batch(specs.value());
  ASSERT_EQ(serial.run_count(), parallel.run_count());
  for (std::size_t i = 0; i < serial.run_count(); ++i) {
    EXPECT_EQ(serial.runs[i].result.log.to_csv(),
              parallel.runs[i].result.log.to_csv());
    const auto solo = core::DiagnosisEngine::execute(specs.value()[i]);
    EXPECT_EQ(solo.result.log.to_csv(),
              serial.runs[i].result.log.to_csv());
  }
}

}  // namespace
}  // namespace fastdiag
