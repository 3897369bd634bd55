// Unit tests for src/faults: fault taxonomy, the FaultSet semantics engine
// (driven through a real Sram), defect translation, injection, dictionary.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <set>

#include "faults/defect.h"
#include "faults/dictionary.h"
#include "faults/fault.h"
#include "faults/fault_kind.h"
#include "faults/fault_set.h"
#include "faults/injector.h"
#include "sram/sram.h"
#include "util/rng.h"

namespace fastdiag::faults {
namespace {

using sram::CellCoord;
using sram::Mode;
using sram::Sram;
using sram::SramConfig;

SramConfig small_config() {
  SramConfig config;
  config.name = "t8x4";
  config.words = 8;
  config.bits = 4;
  config.retention_ns = 1000;
  return config;
}

/// Builds a faulty memory from explicit instances.
Sram make_faulty(const std::vector<FaultInstance>& faults,
                 SramConfig config = small_config()) {
  return Sram(config, std::make_unique<FaultSet>(faults));
}

BitVector word(const std::string& bits) { return BitVector::from_string(bits); }

// ---------------------------------------------------------------- taxonomy

TEST(FaultKind, ClassesPartitionKinds) {
  for (const auto kind : all_fault_kinds()) {
    EXPECT_FALSE(fault_kind_name(kind).empty());
    (void)fault_class(kind);
  }
  EXPECT_EQ(all_fault_kinds().size(), 20u);
  EXPECT_EQ(all_fault_classes().size(), 6u);
}

TEST(FaultKind, AggressorOnlyForCoupling) {
  EXPECT_TRUE(needs_aggressor(FaultKind::cf_in_up));
  EXPECT_TRUE(needs_aggressor(FaultKind::cf_st_01));
  EXPECT_FALSE(needs_aggressor(FaultKind::sa0));
  EXPECT_FALSE(needs_aggressor(FaultKind::drf1));
  EXPECT_FALSE(needs_aggressor(FaultKind::af_no_access));
}

TEST(FaultKind, RetentionPredicate) {
  EXPECT_TRUE(is_retention_fault(FaultKind::drf0));
  EXPECT_TRUE(is_retention_fault(FaultKind::drf1));
  EXPECT_FALSE(is_retention_fault(FaultKind::sa0));
}

// ---------------------------------------------------------------- instance

TEST(FaultInstance, ValidateRejectsOutOfRangeVictim) {
  const auto f = make_cell_fault(FaultKind::sa0, {8, 0});
  EXPECT_THROW(f.validate(small_config()), std::invalid_argument);
}

TEST(FaultInstance, ValidateRejectsSelfCoupling) {
  const auto f = make_coupling_fault(FaultKind::cf_in_up, {1, 1}, {1, 1});
  EXPECT_THROW(f.validate(small_config()), std::invalid_argument);
}

TEST(FaultInstance, ValidateRejectsAddressFaultSelfRow) {
  const auto f = make_address_fault(FaultKind::af_wrong_row, 2, 2);
  EXPECT_THROW(f.validate(small_config()), std::invalid_argument);
}

TEST(FaultInstance, BuilderKindChecks) {
  EXPECT_THROW((void)make_cell_fault(FaultKind::cf_in_up, {0, 0}),
               std::invalid_argument);
  EXPECT_THROW((void)make_coupling_fault(FaultKind::sa0, {0, 0}, {0, 1}),
               std::invalid_argument);
  EXPECT_THROW((void)make_address_fault(FaultKind::sa0, 0),
               std::invalid_argument);
}

TEST(FaultInstance, FootprintOfCellFaultIsVictim) {
  const auto f = make_cell_fault(FaultKind::tf_up, {3, 2});
  const auto cells = f.footprint(small_config());
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0], (CellCoord{3, 2}));
}

TEST(FaultInstance, FootprintOfAddressFaultCoversRows) {
  const auto f = make_address_fault(FaultKind::af_extra_row, 1, 5);
  const auto cells = f.footprint(small_config());
  EXPECT_EQ(cells.size(), 8u);  // 4 bits of row 1 + 4 bits of row 5
}

TEST(FaultInstance, ToStringMentionsKind) {
  const auto f = make_coupling_fault(FaultKind::cf_id_up1, {0, 0}, {0, 1});
  EXPECT_NE(f.to_string().find("CFid<up;1>"), std::string::npos);
}

// ------------------------------------------------------------- stuck-at

TEST(FaultSemantics, Sa0ReadsZeroDespiteWrites) {
  auto mem = make_faulty({make_cell_fault(FaultKind::sa0, {2, 1})});
  mem.write(2, word("1111"));
  EXPECT_EQ(mem.read(2), word("1101"));
}

TEST(FaultSemantics, Sa1ReadsOneFromPowerOn) {
  auto mem = make_faulty({make_cell_fault(FaultKind::sa1, {2, 1})});
  EXPECT_EQ(mem.read(2), word("0010"));
  mem.write(2, word("0000"));
  EXPECT_EQ(mem.read(2), word("0010"));
}

TEST(FaultSemantics, StuckCellDoesNotDisturbNeighbours) {
  auto mem = make_faulty({make_cell_fault(FaultKind::sa0, {2, 1})});
  mem.write(2, word("1111"));
  mem.write(3, word("1010"));
  EXPECT_EQ(mem.read(3), word("1010"));
}

// ------------------------------------------------------------ transition

TEST(FaultSemantics, TfUpBlocksRise) {
  auto mem = make_faulty({make_cell_fault(FaultKind::tf_up, {1, 0})});
  mem.write(1, word("0001"));
  EXPECT_EQ(mem.read(1), word("0000"));  // the rise was swallowed
}

TEST(FaultSemantics, TfUpAllowsFall) {
  auto mem = make_faulty({make_cell_fault(FaultKind::tf_down, {1, 0})});
  mem.write(1, word("0001"));  // rise OK
  EXPECT_EQ(mem.read(1), word("0001"));
  mem.write(1, word("0000"));  // fall blocked
  EXPECT_EQ(mem.read(1), word("0001"));
}

// ------------------------------------------------------------ stuck-open

TEST(FaultSemantics, SofReadRepeatsSenseLatch) {
  auto mem = make_faulty({make_cell_fault(FaultKind::sof, {2, 1})});
  // Set the column-1 sense latch to 1 by reading another row holding 1.
  mem.write(5, word("1111"));
  (void)mem.read(5);
  EXPECT_EQ(mem.read(2), word("0010"));  // bit 1 echoes the latch
  // Now drive the latch to 0 and read again.
  mem.write(5, word("0000"));
  (void)mem.read(5);
  EXPECT_EQ(mem.read(2), word("0000"));
}

TEST(FaultSemantics, SofWriteIsLost) {
  auto mem = make_faulty({make_cell_fault(FaultKind::sof, {2, 1})});
  mem.write(2, word("1111"));
  EXPECT_FALSE(mem.peek({2, 1}));  // the cell itself never changed
}

// -------------------------------------------------------------- coupling

TEST(FaultSemantics, CfInUpInvertsVictimOnRise) {
  auto mem = make_faulty(
      {make_coupling_fault(FaultKind::cf_in_up, {1, 1}, {2, 2})});
  mem.write(2, word("0000"));
  mem.write(1, word("0010"));  // aggressor 0 -> 1
  EXPECT_EQ(mem.read(2), word("0100"));  // victim flipped
  mem.write(1, word("0000"));  // falling edge: no effect for CFin-up
  EXPECT_EQ(mem.read(2), word("0100"));
}

TEST(FaultSemantics, CfInDownInvertsVictimOnFall) {
  auto mem = make_faulty(
      {make_coupling_fault(FaultKind::cf_in_down, {1, 1}, {2, 2})});
  mem.write(1, word("0010"));  // rise: no effect
  EXPECT_EQ(mem.read(2), word("0000"));
  mem.write(1, word("0000"));  // fall: victim inverts
  EXPECT_EQ(mem.read(2), word("0100"));
}

TEST(FaultSemantics, CfIdForcesVictimValue) {
  auto mem = make_faulty(
      {make_coupling_fault(FaultKind::cf_id_up0, {0, 0}, {4, 3})});
  mem.write(4, word("1000"));  // victim holds 1
  mem.write(0, word("0001"));  // aggressor rises -> victim forced to 0
  EXPECT_EQ(mem.read(4), word("0000"));
  // Idempotent: repeating the trigger keeps the victim at 0.
  mem.write(0, word("0000"));
  mem.write(0, word("0001"));
  EXPECT_EQ(mem.read(4), word("0000"));
}

TEST(FaultSemantics, CfStPinsVictimWhileAggressorHoldsState) {
  auto mem = make_faulty(
      {make_coupling_fault(FaultKind::cf_st_10, {3, 0}, {5, 2})});
  mem.write(5, word("0100"));       // victim = 1
  mem.write(3, word("0001"));       // aggressor enters state 1
  EXPECT_EQ(mem.read(5), word("0000"));  // victim pinned to 0
  mem.write(5, word("0100"));       // write fights the pin and loses
  EXPECT_EQ(mem.read(5), word("0000"));
  mem.write(3, word("0000"));       // aggressor leaves the trigger state
  mem.write(5, word("0100"));
  EXPECT_EQ(mem.read(5), word("0100"));
}

TEST(FaultSemantics, IntraWordCouplingWriteOrderIndependent) {
  // Aggressor and victim in the same word, both orders of (aggr, victim)
  // bit indices: the disturb must win regardless of bit position.
  for (const bool aggressor_first : {true, false}) {
    const std::uint32_t aggr_bit = aggressor_first ? 0u : 3u;
    const std::uint32_t victim_bit = aggressor_first ? 3u : 0u;
    auto mem = make_faulty({make_coupling_fault(
        FaultKind::cf_id_up0, {2, aggr_bit}, {2, victim_bit})});
    // One word write that raises the aggressor and writes 1 to the victim.
    mem.write(2, word("1001"));
    EXPECT_FALSE(mem.read(2).get(victim_bit))
        << "victim must be disturbed, aggressor bit " << aggr_bit;
    EXPECT_TRUE(mem.read(2).get(aggr_bit));
  }
}

// ---------------------------------------------------------- address fault

TEST(FaultSemantics, AfNoAccessLosesWritesAndReadsPrecharge) {
  auto mem = make_faulty({make_address_fault(FaultKind::af_no_access, 3)});
  mem.write(3, word("1010"));
  EXPECT_EQ(mem.read(3), word("1111"));  // precharged bitlines read as 1s
  EXPECT_FALSE(mem.peek({3, 1}));        // the row itself never changed
}

TEST(FaultSemantics, AfWrongRowAccessesOtherRow) {
  auto mem = make_faulty({make_address_fault(FaultKind::af_wrong_row, 3, 6)});
  mem.write(3, word("1010"));            // lands in row 6
  EXPECT_EQ(mem.read(3), word("1010"));  // reads row 6 back: looks fine...
  EXPECT_TRUE(mem.peek({6, 1}));
  EXPECT_FALSE(mem.peek({3, 1}));
  mem.write(6, word("0000"));            // ...until the alias is disturbed
  EXPECT_EQ(mem.read(3), word("0000"));
}

TEST(FaultSemantics, AfExtraRowWritesBothAndWiredAndsReads) {
  auto mem = make_faulty({make_address_fault(FaultKind::af_extra_row, 2, 7)});
  mem.write(2, word("1100"));
  EXPECT_TRUE(mem.peek({7, 3}));  // the extra row was co-written
  mem.write(7, word("1010"));     // direct write to the extra row
  EXPECT_EQ(mem.read(2), word("1000"));  // read sees AND of rows 2 and 7
}

// -------------------------------------------------------------- retention

TEST(FaultSemantics, Drf1DecaysAfterRetention) {
  auto mem = make_faulty({make_cell_fault(FaultKind::drf1, {4, 0})});
  mem.write(4, word("0001"));
  EXPECT_EQ(mem.read(4), word("0001"));  // immediately fine
  mem.advance_time_ns(1001);             // beyond retention_ns = 1000
  EXPECT_EQ(mem.read(4), word("0000"));  // the 1 leaked away
}

TEST(FaultSemantics, Drf1HoldsZeroFine) {
  auto mem = make_faulty({make_cell_fault(FaultKind::drf1, {4, 0})});
  mem.write(4, word("0000"));
  mem.advance_time_ns(10'000);
  EXPECT_EQ(mem.read(4), word("0000"));
}

TEST(FaultSemantics, Drf0DecaysStoredZero) {
  auto mem = make_faulty({make_cell_fault(FaultKind::drf0, {4, 0})});
  mem.write(4, word("0000"));
  mem.advance_time_ns(1001);
  EXPECT_EQ(mem.read(4), word("0001"));
}

TEST(FaultSemantics, NormalWriteSucceedsOnDrfCell) {
  // Fig. 6: a normal W1 drives BL to Vcc, flipping even the faulty cell.
  auto mem = make_faulty({make_cell_fault(FaultKind::drf1, {4, 0})});
  mem.write(4, word("0001"));
  EXPECT_TRUE(mem.peek({4, 0}));
}

TEST(FaultSemantics, NwrcFailsOnDrfCell) {
  // The NWRC leaves BL at float GND: the defective pull-up cannot flip the
  // cell, so the fault is visible *immediately* — no 100 ms wait.
  auto mem = make_faulty({make_cell_fault(FaultKind::drf1, {4, 0})});
  mem.nwrc_write(4, word("0001"));
  EXPECT_EQ(mem.read(4), word("0000"));
}

TEST(FaultSemantics, NwrcTowardHealthySideSucceedsOnDrfCell) {
  auto mem = make_faulty({make_cell_fault(FaultKind::drf1, {4, 0})});
  mem.write(4, word("0001"));
  mem.nwrc_write(4, word("0000"));  // falling side is healthy
  EXPECT_EQ(mem.read(4), word("0000"));
}

TEST(FaultSemantics, RefreshingWriteRestartsDecayClock) {
  auto mem = make_faulty({make_cell_fault(FaultKind::drf1, {4, 0})});
  mem.write(4, word("0001"));
  mem.advance_time_ns(900);
  mem.write(4, word("0001"));  // refresh
  mem.advance_time_ns(900);
  EXPECT_EQ(mem.read(4), word("0001"));  // only 900 ns since last write
  mem.advance_time_ns(200);
  EXPECT_EQ(mem.read(4), word("0000"));
}

// ------------------------------------------------------ defect translation

TEST(DefectTranslation, EveryClassYieldsMatchingFaultClass) {
  Rng rng(123);
  const auto config = small_config();
  const struct {
    DefectClass cls;
    std::vector<FaultClass> allowed;
  } expectations[] = {
      {DefectClass::cell_short, {FaultClass::stuck_at}},
      {DefectClass::cell_open, {FaultClass::transition, FaultClass::stuck_open}},
      {DefectClass::bridge, {FaultClass::coupling}},
      {DefectClass::decoder_open, {FaultClass::address}},
      {DefectClass::pullup_open, {FaultClass::retention}},
  };
  for (const auto& expectation : expectations) {
    for (int i = 0; i < 50; ++i) {
      Defect defect{expectation.cls, {2, 1}};
      const auto fault = translate_defect(defect, config, rng);
      EXPECT_NO_THROW(fault.validate(config));
      const auto cls = fault_class(fault.kind);
      EXPECT_TRUE(std::find(expectation.allowed.begin(),
                            expectation.allowed.end(),
                            cls) != expectation.allowed.end())
          << defect.to_string() << " -> " << fault.to_string();
    }
  }
}

TEST(DefectTranslation, BridgeVictimIsAdjacent) {
  Rng rng(7);
  const auto config = small_config();
  for (int i = 0; i < 100; ++i) {
    Defect defect{DefectClass::bridge, {3, 2}};
    const auto fault = translate_defect(defect, config, rng);
    const int dr = static_cast<int>(fault.victim.row) - 3;
    const int db = static_cast<int>(fault.victim.bit) - 2;
    EXPECT_EQ(std::abs(dr) + std::abs(db), 1)
        << "victim must be a 4-neighbour, got " << fault.to_string();
  }
}

TEST(DefectTranslation, LogicClassesExcludeRetention) {
  const auto& classes = logic_defect_classes();
  EXPECT_EQ(classes.size(), 4u);  // "all four defect types in [8]"
  for (const auto cls : classes) {
    EXPECT_NE(cls, DefectClass::pullup_open);
  }
}

// --------------------------------------------------------------- injection

TEST(Injector, CaseStudyFaultCountMatchesPaper) {
  // n=512, c=100, 1% defective cells, 2 cells per fault -> 256 faults.
  const auto config = sram::benchmark_sram();
  InjectionSpec spec;
  EXPECT_EQ(expected_fault_count(config, spec), 256u);
}

TEST(Injector, ProducesRequestedPopulation) {
  Rng rng(99);
  const auto config = sram::benchmark_sram();
  InjectionSpec spec;
  const auto result = inject(config, spec, rng);
  EXPECT_EQ(result.faults.size(), 256u);
  EXPECT_EQ(result.defects.size(), result.faults.size());
  for (const auto& fault : result.faults) {
    EXPECT_NO_THROW(fault.validate(config));
    EXPECT_NE(fault_class(fault.kind), FaultClass::retention);
  }
}

TEST(Injector, RetentionFaultsAddedOnRequest) {
  Rng rng(99);
  const auto config = sram::benchmark_sram();
  InjectionSpec spec;
  spec.include_retention = true;
  spec.retention_fraction = 0.125;
  const auto result = inject(config, spec, rng);
  std::size_t retention = 0;
  for (const auto& fault : result.faults) {
    retention += is_retention_fault(fault.kind) ? 1u : 0u;
  }
  EXPECT_EQ(retention, 32u);  // ceil(256 * 0.125)
  EXPECT_EQ(result.faults.size(), 256u + 32u);
}

TEST(Injector, DeterministicUnderSeed) {
  const auto config = sram::benchmark_sram();
  InjectionSpec spec;
  Rng a(5), b(5);
  const auto ra = inject(config, spec, a);
  const auto rb = inject(config, spec, b);
  EXPECT_EQ(ra.faults, rb.faults);
}

TEST(Injector, ZeroRateYieldsNothing) {
  Rng rng(1);
  InjectionSpec spec;
  spec.cell_defect_rate = 0.0;
  const auto result = inject(small_config(), spec, rng);
  EXPECT_TRUE(result.faults.empty());
}

TEST(Injector, RateOutOfRangeRejected) {
  Rng rng(1);
  InjectionSpec spec;
  spec.cell_defect_rate = 1.5;
  EXPECT_THROW((void)inject(small_config(), spec, rng),
               std::invalid_argument);
}

// -------------------------------------------------------------- dictionary

/// Diagnosed cells as match_diagnosis takes them: ascending, no repeats.
std::vector<CellCoord> cells(std::initializer_list<CellCoord> list) {
  std::vector<CellCoord> out(list);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Dictionary, PerfectDiagnosisScoresFull) {
  const auto config = small_config();
  const std::vector<FaultInstance> truth = {
      make_cell_fault(FaultKind::sa0, {1, 2}),
      make_cell_fault(FaultKind::tf_up, {3, 0}),
  };
  const std::vector<CellCoord> diagnosed = {{1, 2}, {3, 0}};
  const auto report = match_diagnosis(truth, diagnosed, config);
  EXPECT_EQ(report.matched_faults, 2u);
  EXPECT_EQ(report.spurious_cells, 0u);
  EXPECT_DOUBLE_EQ(report.recall(), 1.0);
  EXPECT_DOUBLE_EQ(report.precision(), 1.0);
}

TEST(Dictionary, MissedFaultLowersRecall) {
  const auto config = small_config();
  const std::vector<FaultInstance> truth = {
      make_cell_fault(FaultKind::sa0, {1, 2}),
      make_cell_fault(FaultKind::sa1, {5, 1}),
  };
  const std::vector<CellCoord> diagnosed = {{1, 2}};
  const auto report = match_diagnosis(truth, diagnosed, config);
  EXPECT_DOUBLE_EQ(report.recall(), 0.5);
  EXPECT_DOUBLE_EQ(report.precision(), 1.0);
}

TEST(Dictionary, SpuriousCellLowersPrecision) {
  const auto config = small_config();
  const std::vector<FaultInstance> truth = {
      make_cell_fault(FaultKind::sa0, {1, 2}),
  };
  const std::vector<CellCoord> diagnosed = {{1, 2}, {7, 3}};
  const auto report = match_diagnosis(truth, diagnosed, config);
  EXPECT_EQ(report.spurious_cells, 1u);
  EXPECT_DOUBLE_EQ(report.precision(), 0.5);
}

TEST(Dictionary, CouplingMatchedByVictimOrAggressor) {
  const auto config = small_config();
  const std::vector<FaultInstance> truth = {
      make_coupling_fault(FaultKind::cf_id_up1, {2, 0}, {2, 1}),
  };
  EXPECT_EQ(match_diagnosis(truth, cells({{2, 1}}), config).matched_faults,
            1u);
  EXPECT_EQ(match_diagnosis(truth, cells({{2, 0}}), config).matched_faults,
            1u);
}

TEST(Dictionary, AddressFaultMatchedByRowCell) {
  const auto config = small_config();
  const std::vector<FaultInstance> truth = {
      make_address_fault(FaultKind::af_wrong_row, 3, 6),
  };
  EXPECT_EQ(match_diagnosis(truth, cells({{3, 0}}), config).matched_faults,
            1u);
  EXPECT_EQ(match_diagnosis(truth, cells({{6, 2}}), config).matched_faults,
            1u);
  EXPECT_EQ(match_diagnosis(truth, cells({{5, 2}}), config).matched_faults,
            0u);
}

/// The set-based scoring match_diagnosis replaced: the differential
/// reference for its bitmap version.
MatchReport match_by_sets(const std::vector<FaultInstance>& truth,
                          const std::set<CellCoord>& diagnosed,
                          const SramConfig& config) {
  MatchReport report;
  report.truth_faults = truth.size();
  report.diagnosed_cells = diagnosed.size();
  std::set<CellCoord> explained;
  for (const auto& fault : truth) {
    bool matched = false;
    for (const auto& cell : fault.footprint(config)) {
      if (diagnosed.count(cell) != 0) {
        matched = true;
        explained.insert(cell);
      }
    }
    report.matched_faults += matched ? 1 : 0;
  }
  for (const auto& cell : diagnosed) {
    report.spurious_cells += explained.count(cell) == 0 ? 1 : 0;
  }
  return report;
}

TEST(Dictionary, BitmapScoringMatchesSetReference) {
  // Seeded truths of every footprint shape (cell, coupling, the three
  // address kinds), some hand-made ones past the geometry, and diagnosed
  // sets mixing footprint cells, stray cells and out-of-geometry cells.
  SramConfig config = small_config();
  config.words = 24;
  config.bits = 10;
  const auto coord = [](Rng& rng, std::uint64_t rows, std::uint64_t bits) {
    return CellCoord{static_cast<std::uint32_t>(rng.uniform(rows)),
                     static_cast<std::uint32_t>(rng.uniform(bits))};
  };
  Rng rng(4242);
  for (int trial = 0; trial < 300; ++trial) {
    // Rows/bits up to 2x the geometry: ~3/4 of random cells fall outside.
    const std::uint64_t rows = rng.bernoulli(0.5) ? config.words
                                                  : 2 * config.words;
    const std::uint64_t bits = rng.bernoulli(0.5) ? config.bits
                                                  : 2 * config.bits;
    std::vector<FaultInstance> truth;
    const std::size_t faults = rng.uniform_in(0, 12);
    for (std::size_t f = 0; f < faults; ++f) {
      switch (rng.uniform(5)) {
        case 0:
          truth.push_back(
              make_cell_fault(FaultKind::sa1, coord(rng, rows, bits)));
          break;
        case 1:
          truth.push_back(make_coupling_fault(FaultKind::cf_id_up0,
                                              coord(rng, rows, bits),
                                              coord(rng, rows, bits)));
          break;
        default: {
          constexpr FaultKind kAddress[3] = {FaultKind::af_no_access,
                                             FaultKind::af_wrong_row,
                                             FaultKind::af_extra_row};
          truth.push_back(make_address_fault(
              kAddress[rng.uniform(3)],
              static_cast<std::uint32_t>(rng.uniform(rows)),
              static_cast<std::uint32_t>(rng.uniform(rows))));
          break;
        }
      }
    }
    std::set<CellCoord> diagnosed;
    for (const auto& fault : truth) {
      for (const auto& cell : fault.footprint(config)) {
        if (rng.bernoulli(0.3)) diagnosed.insert(cell);
      }
    }
    const std::size_t strays = rng.uniform_in(0, 10);
    for (std::size_t s = 0; s < strays; ++s) {
      diagnosed.insert(coord(rng, 2 * config.words, 2 * config.bits));
    }
    diagnosed.insert({0xFFFFFFFFu, 0xFFFFFFFFu});

    const MatchReport got = match_diagnosis(
        truth, std::vector<CellCoord>(diagnosed.begin(), diagnosed.end()),
        config);
    const MatchReport want = match_by_sets(truth, diagnosed, config);
    EXPECT_EQ(got.truth_faults, want.truth_faults) << "trial " << trial;
    EXPECT_EQ(got.diagnosed_cells, want.diagnosed_cells) << "trial " << trial;
    EXPECT_EQ(got.matched_faults, want.matched_faults) << "trial " << trial;
    EXPECT_EQ(got.spurious_cells, want.spurious_cells) << "trial " << trial;
  }
}

TEST(Dictionary, EmptyTruthGivesPerfectRecall) {
  const auto report = match_diagnosis({}, {}, small_config());
  EXPECT_DOUBLE_EQ(report.recall(), 1.0);
  EXPECT_DOUBLE_EQ(report.precision(), 1.0);
}

}  // namespace
}  // namespace fastdiag::faults
