// Differential tests for the sparse fault-site overlay at the paper's
// operating point.
//
// The default kernel advances identical-geometry memories — faulty ones
// included — as bit-lanes of packed slabs, with each lane's fault sites
// patched onto its column bits (faults::OverlaySlab), and runs lone
// memories as one packed row copy plus the row's site patches.  Both must
// be indistinguishable from the per_cell reference: logs, cycles, op
// counters, simulated clocks, and the state a later read() observes (cell
// contents, sense latches, retention clocks).  Two corpora:
//
//  * a scaled fleet: four geometries of three or more lanes each, three of
//    them wrapping the shared sweep, 1 % defects plus DRFs, several seeds;
//  * hand-placed sites that share a cell, row or column inside one lane —
//    the interactions per-kind records would get wrong — run through
//    FastScheme and the single-memory word path.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/fastdiag.h"
#include "faults/overlay_slab.h"

namespace fastdiag {
namespace {

using faults::FaultInstance;
using faults::FaultKind;
using sram::AccessKernel;
using sram::CellCoord;
using sram::SramConfig;

SramConfig cfg(const std::string& name, std::uint32_t words,
               std::uint32_t bits, std::uint64_t retention_ns) {
  SramConfig config;
  config.name = name;
  config.words = words;
  config.bits = bits;
  config.spare_rows = 2;
  config.retention_ns = retention_ns;
  return config;
}

/// Observable post-run state of one memory: every row read back, then
/// every row again after one retention period, so drift in cell contents,
/// sense latches or DRF timestamps shows.
std::vector<std::string> read_back(sram::Sram& memory) {
  std::vector<std::string> rows;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint32_t row = 0; row < memory.words(); ++row) {
      rows.push_back(memory.read(row).to_string());
    }
    memory.advance_time_ns(memory.config().retention_ns);
  }
  return rows;
}

void expect_memory_identical(sram::Sram& fast, sram::Sram& reference,
                             const std::string& label) {
  EXPECT_EQ(fast.now_ns(), reference.now_ns()) << label;
  EXPECT_EQ(fast.counters().reads, reference.counters().reads) << label;
  EXPECT_EQ(fast.counters().writes, reference.counters().writes) << label;
  EXPECT_EQ(fast.counters().nwrc_writes, reference.counters().nwrc_writes)
      << label;
  EXPECT_EQ(read_back(fast), read_back(reference)) << label;
}

void expect_fast_scheme_identical(bisd::SocUnderTest& fast_soc,
                                  bisd::SocUnderTest& ref_soc,
                                  const bisd::FastSchemeOptions& options,
                                  const std::string& label) {
  bisd::FastScheme fast_scheme(options);
  bisd::FastScheme ref_scheme(options);
  const auto fast = fast_scheme.diagnose(fast_soc);
  const auto reference = ref_scheme.diagnose(ref_soc);
  EXPECT_EQ(fast.time.cycles, reference.time.cycles) << label;
  EXPECT_EQ(fast.log.to_csv(), reference.log.to_csv()) << label;
  ASSERT_EQ(fast_soc.memory_count(), ref_soc.memory_count()) << label;
  for (std::size_t i = 0; i < fast_soc.memory_count(); ++i) {
    expect_memory_identical(fast_soc.memory(i), ref_soc.memory(i),
                            label + " memory " + std::to_string(i));
  }
}

// ---- the scaled operating point --------------------------------------------

/// Four geometries of >= 3 lanes: the 32-word one sets the sweep, the
/// other three wrap it.  A short retention time makes DRFs decay inside
/// the sweep, so settling runs on the scheme clock.
std::vector<SramConfig> fleet_configs(std::uint64_t retention_ns) {
  std::vector<SramConfig> configs;
  const struct {
    std::uint32_t words, bits, lanes;
  } shapes[] = {{32, 18, 4}, {16, 40, 3}, {24, 24, 3}, {28, 72, 3}};
  for (const auto& shape : shapes) {
    for (std::uint32_t k = 0; k < shape.lanes; ++k) {
      configs.push_back(cfg("m" + std::to_string(configs.size()), shape.words,
                            shape.bits, retention_ns));
    }
  }
  return configs;
}

bisd::SocUnderTest fleet(std::uint64_t seed, std::uint64_t retention_ns,
                         AccessKernel kernel) {
  faults::InjectionSpec spec;
  spec.cell_defect_rate = 0.01;
  spec.include_retention = true;
  spec.retention_fraction = 0.5;
  auto soc =
      bisd::SocUnderTest::from_injection(fleet_configs(retention_ns), spec,
                                         seed);
  soc.set_access_kernel(kernel);
  return soc;
}

TEST(OverlayFleet, OperatingPointMatchesPerCell) {
  for (const std::uint64_t seed : {3ull, 17ull, 2024ull, 777ull}) {
    for (const std::uint64_t retention_ns : {2'000ull, 50'000'000ull}) {
      auto fast_soc = fleet(seed, retention_ns, AccessKernel::word_parallel);
      auto ref_soc = fleet(seed, retention_ns, AccessKernel::per_cell);
      std::size_t sliced = 0;
      for (const auto& group : fast_soc.slice_groups()) {
        sliced += group.members.size();
      }
      ASSERT_EQ(sliced, fast_soc.memory_count())
          << "every unrepaired fleet memory rides a slab";
      ASSERT_GT(fast_soc.total_faults(), 0u);
      expect_fast_scheme_identical(fast_soc, ref_soc, {},
                                   "seed " + std::to_string(seed) +
                                       " retention " +
                                       std::to_string(retention_ns));
    }
  }
}

TEST(OverlayFleet, RetentionPausesAndRepeatRunsMatchPerCell) {
  // A pause-based DRF test on top of NWRTM, run twice on the same SoC: the
  // second run starts from the first run's landed state (cells, latches,
  // retention clocks), so anything scatter drops shows up there.
  bisd::FastSchemeOptions options;
  options.test = march::with_retention_pause(march::march_cw_nwrtm(72),
                                             /*pause_ns=*/5'000);
  auto fast_soc = fleet(99, 3'000, AccessKernel::word_parallel);
  auto ref_soc = fleet(99, 3'000, AccessKernel::per_cell);
  for (int run = 0; run < 2; ++run) {
    bisd::FastScheme fast_scheme(options);
    bisd::FastScheme ref_scheme(options);
    const auto fast = fast_scheme.diagnose(fast_soc);
    const auto reference = ref_scheme.diagnose(ref_soc);
    EXPECT_EQ(fast.log.to_csv(), reference.log.to_csv()) << "run " << run;
  }
  for (std::size_t i = 0; i < fast_soc.memory_count(); ++i) {
    expect_memory_identical(fast_soc.memory(i), ref_soc.memory(i),
                            "memory " + std::to_string(i));
  }
}

// ---- sites sharing a cell, row or column -----------------------------------

/// Interacting sites inside one 8 x @p bits memory (bits >= 9):
///  * an SOF with two more victims in its column (the sense latch they
///    share must replay the column's last sensed value);
///  * CFst pins whose same-row aggressor sits above and below the victim;
///  * coupling victims that are also TF, DRF and SAF cells;
///  * every address-fault kind on a row that also hosts cell faults.
std::vector<FaultInstance> overlay_corpus(std::uint32_t bits) {
  using faults::make_address_fault;
  using faults::make_cell_fault;
  using faults::make_coupling_fault;
  const std::uint32_t hi = bits - 1;
  return {
      make_cell_fault(FaultKind::sof, {2, 3}),
      make_cell_fault(FaultKind::sa0, {5, 3}),
      make_cell_fault(FaultKind::tf_up, {6, 3}),
      make_coupling_fault(FaultKind::cf_st_10, {4, 6}, {4, 2}),
      make_coupling_fault(FaultKind::cf_st_01, {4, 1}, {4, 5}),
      make_coupling_fault(FaultKind::cf_in_up, {1, 1}, {1, 2}),
      make_cell_fault(FaultKind::tf_down, {1, 2}),
      make_coupling_fault(FaultKind::cf_id_down1, {3, 0}, {7, 0}),
      make_cell_fault(FaultKind::drf1, {7, 0}),
      make_coupling_fault(FaultKind::cf_st_00, {0, hi}, {6, hi}),
      make_cell_fault(FaultKind::sa1, {6, hi}),
      make_coupling_fault(FaultKind::cf_in_down, {7, 4}, {3, 4}),
      make_cell_fault(FaultKind::drf0, {3, 4}),
      make_cell_fault(FaultKind::drf1, {3, 8}),
      make_address_fault(FaultKind::af_no_access, 5),
      make_address_fault(FaultKind::af_wrong_row, 6, 2),
      make_address_fault(FaultKind::af_extra_row, 4, 1),
      make_address_fault(FaultKind::af_extra_row, 0, 7),
  };
}

/// Lane k of an overlay fleet: the corpus on lanes 0 and 3, a shifted copy
/// (AFs and sites on other rows) on lane 2, clean storage elsewhere.
std::vector<FaultInstance> corpus_lane(std::size_t k, std::uint32_t bits) {
  if (k == 0 || k == 3) {
    return overlay_corpus(bits);
  }
  if (k != 2) {
    return {};
  }
  auto shifted = overlay_corpus(bits);
  for (auto& fault : shifted) {
    fault.victim.row = (fault.victim.row + 3) % 8;
    fault.aggressor.row = (fault.aggressor.row + 3) % 8;
    fault.addr = (fault.addr + 3) % 8;
    fault.other_row = (fault.other_row + 3) % 8;
  }
  return shifted;
}

TEST(OverlayCorpus, FastSchemeMatchesPerCell) {
  for (const std::uint32_t bits : {9u, 70u}) {
    const auto build = [bits](AccessKernel kernel) {
      bisd::SocUnderTest soc;
      for (std::size_t k = 0; k < 5; ++k) {
        soc.add_memory(cfg("c" + std::to_string(k), 8, bits, 400),
                       corpus_lane(k, bits));
      }
      // A deeper clean memory makes the corpus lanes wrap the sweep.
      soc.add_memory(cfg("deep", 12, 16, 400));
      soc.set_access_kernel(kernel);
      return soc;
    };
    auto fast_soc = build(AccessKernel::word_parallel);
    auto ref_soc = build(AccessKernel::per_cell);
    ASSERT_EQ(fast_soc.slice_groups().size(), 1u);
    expect_fast_scheme_identical(fast_soc, ref_soc, {},
                                 "bits " + std::to_string(bits));
  }
}

std::vector<std::unique_ptr<sram::Sram>> corpus_fleet(std::uint32_t bits,
                                                      AccessKernel kernel) {
  std::vector<std::unique_ptr<sram::Sram>> fleet;
  for (std::size_t k = 0; k < 5; ++k) {
    fleet.push_back(std::make_unique<sram::Sram>(
        cfg("c" + std::to_string(k), 8, bits, 300),
        std::make_unique<faults::FaultSet>(corpus_lane(k, bits))));
    fleet.back()->set_access_kernel(kernel);
  }
  return fleet;
}

TEST(OverlayCorpus, WordPathMatchesPerCell) {
  const march::MarchRunner runner;
  for (const std::uint32_t bits : {9u, 70u}) {
    const auto test = march::march_cw_nwrtm(bits);
    for (const std::uint32_t sweep : {0u, 11u}) {
      const std::string label =
          "bits " + std::to_string(bits) + " sweep " + std::to_string(sweep);
      auto single = corpus_fleet(bits, AccessKernel::word_parallel);
      auto reference = corpus_fleet(bits, AccessKernel::per_cell);
      for (std::size_t k = 0; k < single.size(); ++k) {
        const auto word = runner.run(*single[k], test, sweep);
        const auto expected = runner.run(*reference[k], test, sweep);
        const std::string lane = label + " lane " + std::to_string(k);
        EXPECT_TRUE(word.mismatches == expected.mismatches) << lane;
        EXPECT_EQ(word.elapsed_ns, expected.elapsed_ns) << lane;
        expect_memory_identical(*single[k], *reference[k], lane);
      }
    }
  }
}

TEST(OverlayCorpus, ProbeSlabsRejectAddressFaultsAndOverlaps) {
  const auto config = cfg("probe", 8, 9, 400);
  const std::vector<FaultInstance> af{
      faults::make_address_fault(FaultKind::af_no_access, 1)};
  EXPECT_THROW(faults::OverlaySlab(config, &af, 1), std::exception);
  const std::vector<FaultInstance> overlap{
      faults::make_cell_fault(FaultKind::sa0, {1, 1}),
      faults::make_coupling_fault(FaultKind::cf_in_up, {1, 1}, {2, 2})};
  EXPECT_THROW(faults::OverlaySlab(config, &overlap, 1), std::exception);
}

}  // namespace
}  // namespace fastdiag
