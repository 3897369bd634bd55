// Unit/integration tests for src/bisd: the SoC, records, comparator array,
// repair allocator, and — above all — the two diagnosis schemes and their
// paper-equation identities.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "bisd/baseline_scheme.h"
#include "bisd/comparator.h"
#include "bisd/fast_scheme.h"
#include "bisd/record.h"
#include "bisd/repair.h"
#include "bisd/soc.h"
#include "faults/dictionary.h"
#include "march/background.h"
#include "march/library.h"
#include "util/rng.h"

namespace fastdiag::bisd {
namespace {

using faults::FaultInstance;
using faults::FaultKind;
using sram::CellCoord;
using sram::SramConfig;

/// A reference set's elements in the ascending order the log queries use.
template <typename T>
std::vector<T> ascending(const std::set<T>& values) {
  return {values.begin(), values.end()};
}

SramConfig cfg(std::uint32_t words, std::uint32_t bits,
               std::uint32_t spares = 4, const std::string& name = "") {
  SramConfig config;
  config.name = name.empty() ? "m" + std::to_string(words) + "x" +
                                   std::to_string(bits)
                             : name;
  config.words = words;
  config.bits = bits;
  config.spare_rows = spares;
  return config;
}

// --------------------------------------------------------------------- SoC

TEST(Soc, TracksDimensionsOfLargestAndWidest) {
  SocUnderTest soc;
  soc.add_memory(cfg(16, 4));
  soc.add_memory(cfg(8, 9, 2, "wide"));
  soc.add_memory(cfg(32, 2, 2, "deep"));
  EXPECT_EQ(soc.memory_count(), 3u);
  EXPECT_EQ(soc.max_words(), 32u);
  EXPECT_EQ(soc.max_bits(), 9u);
}

TEST(Soc, RejectsFaultsOutsideGeometry) {
  SocUnderTest soc;
  EXPECT_THROW(
      soc.add_memory(cfg(8, 4),
                     {faults::make_cell_fault(FaultKind::sa0, {8, 0})}),
      std::invalid_argument);
}

TEST(Soc, FromInjectionIsDeterministic) {
  const std::vector<SramConfig> configs = {cfg(32, 8), cfg(16, 4)};
  faults::InjectionSpec spec;
  spec.cell_defect_rate = 0.05;
  auto a = SocUnderTest::from_injection(configs, spec, 11);
  auto b = SocUnderTest::from_injection(configs, spec, 11);
  ASSERT_EQ(a.memory_count(), b.memory_count());
  for (std::size_t i = 0; i < a.memory_count(); ++i) {
    EXPECT_EQ(a.truth(i), b.truth(i));
  }
  EXPECT_GT(a.total_faults(), 0u);
}

TEST(Soc, AdvanceTimePropagates) {
  SocUnderTest soc;
  soc.add_memory(cfg(4, 4));
  soc.add_memory(cfg(8, 2));
  soc.advance_time_ns(123);
  EXPECT_EQ(soc.memory(0).now_ns(), 123u);
  EXPECT_EQ(soc.memory(1).now_ns(), 123u);
}

// ----------------------------------------------------------------- records

TEST(DiagnosisLog, DedupesCellsAndRows) {
  DiagnosisLog log;
  DiagnosisRecord r;
  r.memory_index = 0;
  r.addr = 3;
  r.bit = 1;
  r.background = log.intern(BitVector(4));
  log.add(r);
  log.add(r);  // same cell twice
  r.bit = 2;
  log.add(r);
  r.memory_index = 1;
  log.add(r);
  EXPECT_EQ(log.records().size(), 4u);
  EXPECT_EQ(log.cells(0), (std::vector<CellCoord>{{3, 1}, {3, 2}}));
  EXPECT_EQ(log.faulty_rows(0), (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(log.distinct_cell_count(), 3u);
}

TEST(DiagnosisLog, PerMemoryQueriesSurviveExtremeCoordinates) {
  // A decoded or hand-made log may carry any 32-bit address and bit and
  // any memory index; the per-memory queries must stay exact and bounded.
  DiagnosisLog log;
  DiagnosisRecord r;
  r.memory_index = 5;
  r.addr = 0xFFFFFFFFu;
  r.bit = 0xFFFFFFFFu;
  log.add(r);
  r.addr = 2;
  r.bit = 7;
  log.add(r);
  log.add(r);
  r.memory_index = 0xFFFFFFFFu;  // past the indexed range: scan fallback
  log.add(r);
  EXPECT_EQ(log.cells(5),
            (std::vector<CellCoord>{{2, 7}, {0xFFFFFFFFu, 0xFFFFFFFFu}}));
  EXPECT_EQ(log.faulty_rows(5), (std::vector<std::uint32_t>{2, 0xFFFFFFFFu}));
  EXPECT_EQ(log.cells(0xFFFFFFFFu), (std::vector<CellCoord>{{2, 7}}));
  EXPECT_EQ(log.faulty_rows(0xFFFFFFFFu), (std::vector<std::uint32_t>{2}));
  EXPECT_TRUE(log.cells(4).empty());
  EXPECT_TRUE(log.faulty_rows(6).empty());
  EXPECT_EQ(log.distinct_cell_count(), 3u);
}

TEST(DiagnosisRecord, ToStringCarriesTheScanOutFields) {
  DiagnosisLog log;
  DiagnosisRecord r;
  r.memory_index = 2;
  r.addr = 7;
  r.bit = 3;
  r.background = log.intern(BitVector::from_string("0101"));
  const auto s = log.to_string(r);
  EXPECT_NE(s.find("mem2"), std::string::npos);
  EXPECT_NE(s.find("addr=7"), std::string::npos);
  EXPECT_NE(s.find("bg=0101"), std::string::npos);
}

TEST(DiagnosisLog, InternsBackgroundsByContent) {
  DiagnosisLog log;
  EXPECT_EQ(log.intern(BitVector()), 0u);  // the empty background
  const std::uint32_t a = log.intern(BitVector::from_string("0101"));
  const std::uint32_t b = log.intern(BitVector::from_string("1010"));
  const std::uint32_t c = log.intern(BitVector::from_string("00101"));
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);  // same low bits, different width
  EXPECT_EQ(log.intern(BitVector::from_string("0101")), a);
  DiagnosisRecord r;
  EXPECT_TRUE(log.background(r).empty());
  r.background = b;
  EXPECT_EQ(log.background(r), BitVector::from_string("1010"));
  // Ids belong to the log that interned them.
  r.background = 17;
  EXPECT_THROW((void)log.background(r), std::out_of_range);
  EXPECT_THROW(log.add(r), std::invalid_argument);
  EXPECT_TRUE(log.empty());
}

TEST(DiagnosisLog, PerMemoryQueriesMatchBruteForceOnInterleavedLogs) {
  // Three memories interleaved record by record: a dense one (bitmap path;
  // on odd trials big enough that its bitmap passes 2^16 cells), a sparse
  // wide one (sort path) and one past the indexed range (scan path); the
  // queries must equal a plain set fold of the records.
  Rng rng(20240517);
  for (int trial = 0; trial < 20; ++trial) {
    const bool large = trial % 2 == 1;
    DiagnosisLog log;
    const std::uint32_t memories[3] = {0, 3, 0xFFFFFFFFu};
    const std::uint64_t rows[3] = {large ? 256u : 16u, 1u << 20, 40};
    const std::uint64_t bits[3] = {large ? 300u : 8u, 1u << 12, 24};
    std::map<std::uint32_t, std::set<CellCoord>> cells;
    std::map<std::uint32_t, std::set<std::uint32_t>> faulty_rows;
    const std::size_t records =
        large ? rng.uniform_in(20'000, 30'000) : rng.uniform_in(0, 400);
    for (std::size_t i = 0; i < records; ++i) {
      constexpr std::size_t kPick[4] = {0, 0, 1, 2};  // half go to memory 0
      const std::size_t m = kPick[rng.uniform(4)];
      DiagnosisRecord r;
      r.memory_index = memories[m];
      r.addr = static_cast<std::uint32_t>(rng.uniform(rows[m]));
      r.bit = static_cast<std::uint32_t>(rng.uniform(bits[m]));
      r.cycle = i;
      log.add(r);
      cells[r.memory_index].insert(r.cell());
      faulty_rows[r.memory_index].insert(r.addr);
    }
    std::size_t distinct = 0;
    for (const std::uint32_t m : memories) {
      EXPECT_EQ(log.cells(m), ascending(cells[m]))
          << "trial " << trial << " mem " << m;
      EXPECT_EQ(log.faulty_rows(m), ascending(faulty_rows[m]))
          << "trial " << trial;
      distinct += cells[m].size();
    }
    EXPECT_EQ(log.distinct_cell_count(), distinct) << "trial " << trial;
    EXPECT_TRUE(log.cells(1).empty());
    EXPECT_TRUE(log.cells(70000).empty());
  }
}

// ------------------------------------------------------------ comparator

TEST(Comparator, CountsComparisonsAndMismatches) {
  ComparatorArray comparators(2);
  // Clock 0 agrees, clock 1 disagrees; bits past the batch are ignored.
  EXPECT_EQ(comparators.compare_word(0, 0b01, 0b11, 2), 0b10u);
  EXPECT_EQ(comparators.compare_word(1, 0b100, 0b000, 2), 0u);
  EXPECT_EQ(comparators.comparisons(0), 2u);
  EXPECT_EQ(comparators.mismatches(0), 1u);
  EXPECT_EQ(comparators.comparisons(1), 2u);
  EXPECT_EQ(comparators.mismatches(1), 0u);
  // A full 64-clock batch counts every disagreeing bit.
  EXPECT_EQ(comparators.compare_word(1, 0, ~std::uint64_t{0}, 64),
            ~std::uint64_t{0});
  EXPECT_EQ(comparators.comparisons(1), 66u);
  EXPECT_EQ(comparators.mismatches(1), 64u);
  EXPECT_THROW((void)comparators.compare_word(0, 0, 0, 65),
               std::invalid_argument);
  EXPECT_THROW((void)comparators.compare_word(2, 0, 0, 1), std::out_of_range);
}

// ------------------------------------------------------------- fast scheme

TEST(FastScheme, CleanSocProducesEmptyLog) {
  SocUnderTest soc;
  soc.add_memory(cfg(16, 4));
  soc.add_memory(cfg(8, 3));
  FastScheme scheme;
  const auto result = scheme.diagnose(soc);
  EXPECT_TRUE(result.log.empty());
  EXPECT_EQ(result.iterations, 1u);
}

TEST(FastScheme, PredictedCyclesMatchEquationTwoSolidPart) {
  // March C- through the SPC/PSC cost model is exactly Eq. (2)'s first
  // part: 5n + 5c + 5n(c+1).
  const std::uint32_t n = 512, c = 100;
  const auto cycles =
      FastScheme::predicted_cycles(march::march_c_minus(c), n, c);
  EXPECT_EQ(cycles, 5ull * n + 5ull * c + 5ull * n * (c + 1));
}

TEST(FastScheme, PredictedCyclesMatchOurMarchCwFormula) {
  const std::uint32_t n = 512, c = 100;
  const std::uint64_t log2c = march::background_log2(c);  // 7
  const auto cycles = FastScheme::predicted_cycles(march::march_cw(c), n, c);
  const std::uint64_t solid = 5ull * n + 5ull * c + 5ull * n * (c + 1);
  const std::uint64_t per_bg = 3ull * n + 3ull * c + 3ull * n * (c + 1);
  EXPECT_EQ(cycles, solid + per_bg * log2c);
}

TEST(FastScheme, NwrtmVariantAddsExactlyTwoToggles) {
  const std::uint32_t n = 64, c = 8;
  const auto plain = FastScheme::predicted_cycles(march::march_cw(c), n, c);
  const auto nwrtm =
      FastScheme::predicted_cycles(march::march_cw_nwrtm(c), n, c);
  EXPECT_EQ(nwrtm, plain + 2ull * c);  // the (2c)t of Eq. (4), and nothing else
}

TEST(FastScheme, SimulatedCyclesEqualPrediction) {
  SocUnderTest soc;
  soc.add_memory(cfg(16, 4));
  soc.add_memory(cfg(8, 3));
  FastScheme scheme;
  const auto result = scheme.diagnose(soc);
  const auto test = scheme.test_for_width(4);
  EXPECT_EQ(result.time.cycles, FastScheme::predicted_cycles(test, 16, 4));
}

TEST(FastScheme, LocatesSingleStuckAtCell) {
  SocUnderTest soc;
  soc.add_memory(cfg(16, 4),
                 {faults::make_cell_fault(FaultKind::sa0, {3, 2})});
  FastScheme scheme;
  const auto result = scheme.diagnose(soc);
  EXPECT_EQ(result.log.cells(0), (std::vector<CellCoord>{{3, 2}}));
}

TEST(FastScheme, OneRunExposesManyFaultsAtOnce) {
  // The SPC/PSC path has no masking: a whole population of faults falls
  // out of a single algorithm run — the core contrast with the baseline.
  SocUnderTest soc;
  soc.add_memory(cfg(16, 8),
                 {faults::make_cell_fault(FaultKind::sa0, {3, 2}),
                  faults::make_cell_fault(FaultKind::sa1, {3, 5}),
                  faults::make_cell_fault(FaultKind::sa0, {9, 0}),
                  faults::make_cell_fault(FaultKind::tf_up, {12, 7})});
  FastScheme scheme;
  const auto result = scheme.diagnose(soc);
  EXPECT_EQ(result.iterations, 1u);
  EXPECT_EQ(result.log.cells(0),
            (std::vector<CellCoord>{{3, 2}, {3, 5}, {9, 0}, {12, 7}}));
}

TEST(FastScheme, FullRecallOnLogicFaultPopulation) {
  // Random SA/TF/coupling/AF population (the injector's four classes minus
  // the SOF translation) must be fully diagnosed in one run.
  Rng rng(31);
  const auto config = cfg(32, 8, 8);
  std::vector<FaultInstance> truth = {
      faults::make_cell_fault(FaultKind::sa0, {1, 3}),
      faults::make_cell_fault(FaultKind::sa1, {30, 7}),
      faults::make_cell_fault(FaultKind::tf_up, {17, 0}),
      faults::make_cell_fault(FaultKind::tf_down, {9, 5}),
      faults::make_coupling_fault(FaultKind::cf_id_up1, {4, 2}, {4, 6}),
      faults::make_coupling_fault(FaultKind::cf_in_down, {8, 1}, {21, 1}),
      faults::make_coupling_fault(FaultKind::cf_st_10, {14, 4}, {14, 5}),
      faults::make_address_fault(FaultKind::af_no_access, 25),
      faults::make_address_fault(FaultKind::af_wrong_row, 5, 11),
      faults::make_address_fault(FaultKind::af_extra_row, 13, 28),
  };
  SocUnderTest soc;
  soc.add_memory(config, truth);
  FastScheme scheme;
  const auto result = scheme.diagnose(soc);
  const auto report =
      faults::match_diagnosis(truth, result.log.cells(0), config);
  EXPECT_DOUBLE_EQ(report.recall(), 1.0);
  EXPECT_GE(report.precision(), 0.99);
}

TEST(FastScheme, DrfFoundOnlyWithNwrtm) {
  const std::vector<FaultInstance> truth = {
      faults::make_cell_fault(FaultKind::drf1, {5, 1}),
      faults::make_cell_fault(FaultKind::drf0, {9, 3}),
  };
  {
    SocUnderTest soc;
    soc.add_memory(cfg(16, 4), truth);
    FastSchemeOptions options;
    options.include_drf = true;
    FastScheme with_nwrtm(options);
    const auto result = with_nwrtm.diagnose(soc);
    EXPECT_EQ(result.log.cells(0), (std::vector<CellCoord>{{5, 1}, {9, 3}}));
  }
  {
    SocUnderTest soc;
    soc.add_memory(cfg(16, 4), truth);
    FastSchemeOptions options;
    options.include_drf = false;
    FastScheme plain(options);
    const auto result = plain.diagnose(soc);
    EXPECT_TRUE(result.log.empty());  // the blind spot of [7,8]
  }
}

TEST(FastScheme, HeterogeneousWrapAroundStaysClean) {
  // A clean SoC with mismatched sizes: smaller memories wrap around and
  // see redundant read-modify-writes; the controller's expectations must
  // tolerate every one of them (Sec. 3.1).
  SocUnderTest soc;
  soc.add_memory(cfg(16, 8, 2, "largest"));
  soc.add_memory(cfg(5, 8, 2, "wraps-oddly"));   // 16 % 5 != 0
  soc.add_memory(cfg(4, 3, 2, "small-narrow"));  // wraps and truncates
  soc.add_memory(cfg(16, 1, 2, "one-bit"));
  FastScheme scheme;
  const auto result = scheme.diagnose(soc);
  EXPECT_TRUE(result.log.empty());
}

TEST(FastScheme, FaultInWrappingMemoryLocatedAtLocalAddress) {
  SocUnderTest soc;
  soc.add_memory(cfg(16, 4, 2, "largest"));
  soc.add_memory(cfg(4, 4, 2, "wrapper"),
                 {faults::make_cell_fault(FaultKind::sa0, {2, 1})});
  FastScheme scheme;
  const auto result = scheme.diagnose(soc);
  EXPECT_TRUE(result.log.cells(0).empty());
  EXPECT_EQ(result.log.cells(1), (std::vector<CellCoord>{{2, 1}}));
}

TEST(FastScheme, MemoryWithoutIdleModeStillDiagnosesCorrectly) {
  auto config = cfg(8, 4);
  config.has_idle_mode = false;  // read-with-data-ignored during PSC shifts
  SocUnderTest soc;
  soc.add_memory(config, {faults::make_cell_fault(FaultKind::sa1, {6, 0})});
  FastScheme scheme;
  const auto result = scheme.diagnose(soc);
  EXPECT_EQ(result.log.cells(0), (std::vector<CellCoord>{{6, 0}}));
}

TEST(FastScheme, RejectsElementsMixingWritePolarities) {
  SocUnderTest soc;
  soc.add_memory(cfg(8, 4));
  FastSchemeOptions options;
  options.test = march::march_a(4);  // up(r0,w1,w0,w1) mixes polarities
  FastScheme scheme(options);
  EXPECT_THROW((void)scheme.diagnose(soc), std::invalid_argument);
}

TEST(FastScheme, OverrideTestMustMatchTheSocWidth) {
  // The Data Background Generator serializes exactly c_max bits per
  // pattern, so an override test of any other width is rejected up front,
  // naming both widths, instead of failing mid-diagnose.
  SocUnderTest soc;
  soc.add_memory(cfg(8, 8));
  for (const std::size_t width : {4u, 16u}) {
    FastSchemeOptions options;
    options.test = march::march_c_minus(width);
    FastScheme scheme(options);
    const std::string expected = "override test is " +
                                 std::to_string(width) +
                                 " bits wide but the widest memory has 8 bits";
    for (const bool classify : {false, true}) {
      try {
        if (classify) {
          (void)scheme.classification_test(soc.max_bits());
        } else {
          (void)scheme.diagnose(soc);
        }
        ADD_FAILURE() << "width " << width << " accepted";
      } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find(expected), std::string::npos)
            << error.what();
      }
    }
  }
  FastSchemeOptions options;
  options.test = march::march_c_minus(8);
  FastScheme scheme(options);
  EXPECT_TRUE(scheme.diagnose(soc).log.empty());
  EXPECT_EQ(scheme.classification_test(8)->width(), 8u);
}

TEST(FastScheme, RepairThenRediagnoseComesBackClean) {
  SocUnderTest soc;
  soc.add_memory(cfg(16, 4, 4),
                 {faults::make_cell_fault(FaultKind::sa0, {3, 2}),
                  faults::make_cell_fault(FaultKind::tf_up, {7, 1})});
  FastScheme scheme;
  const auto first = scheme.diagnose(soc);
  EXPECT_EQ(first.log.faulty_rows(0).size(), 2u);

  const auto plan = plan_repair(first.log, soc);
  EXPECT_TRUE(plan.fully_repairable());
  apply_repair(soc, plan);

  const auto second = scheme.diagnose(soc);
  EXPECT_TRUE(second.log.empty());
}

TEST(Repair, PlanRespectsSpareBudget) {
  SocUnderTest soc;
  soc.add_memory(cfg(16, 4, 1),  // one spare only
                 {faults::make_cell_fault(FaultKind::sa0, {3, 2}),
                  faults::make_cell_fault(FaultKind::sa0, {7, 1})});
  FastScheme scheme;
  const auto result = scheme.diagnose(soc);
  const auto plan = plan_repair(result.log, soc);
  EXPECT_FALSE(plan.fully_repairable());
  EXPECT_EQ(plan.repaired_row_count(), 1u);
  EXPECT_EQ(plan.unrepaired_row_count(), 1u);
  apply_repair(soc, plan);
  EXPECT_EQ(soc.memory(0).spares_used(), 1u);
  // Re-diagnosis still flags exactly the row the single spare left over.
  ASSERT_EQ(plan.memories[0].unrepaired_rows.size(), 1u);
  EXPECT_EQ(scheme.diagnose(soc).log.faulty_rows(0),
            std::vector<std::uint32_t>{plan.memories[0].unrepaired_rows[0]});
}

// ----------------------------------------------- wrap-around property sweep

/// Every (n_i, c_i) against a fixed largest memory: the clean SoC must stay
/// clean and a single injected fault must localize, whatever the wrap/width
/// relation (divisor, non-divisor, width 1, equal sizes).
using WrapParam = std::tuple<std::uint32_t, std::uint32_t>;

class WrapAroundSweep : public ::testing::TestWithParam<WrapParam> {};

TEST_P(WrapAroundSweep, CleanAndSingleFaultBehaviour) {
  const auto [words, bits] = GetParam();
  {
    SocUnderTest soc;
    soc.add_memory(cfg(16, 8, 2, "largest"));
    soc.add_memory(cfg(words, bits, 2, "small"));
    FastScheme scheme;
    EXPECT_TRUE(scheme.diagnose(soc).log.empty());
  }
  {
    const CellCoord cell{words / 2, bits / 2};
    SocUnderTest soc;
    soc.add_memory(cfg(16, 8, 2, "largest"));
    soc.add_memory(cfg(words, bits, 2, "small"),
                   {faults::make_cell_fault(FaultKind::sa1, cell)});
    FastScheme scheme;
    const auto result = scheme.diagnose(soc);
    EXPECT_TRUE(result.log.cells(0).empty());
    EXPECT_EQ(result.log.cells(1), (std::vector<CellCoord>{cell}));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndWidths, WrapAroundSweep,
    ::testing::Combine(::testing::Values(2u, 3u, 5u, 8u, 13u, 16u),
                       ::testing::Values(1u, 3u, 5u, 8u)),
    [](const ::testing::TestParamInfo<WrapParam>& p) {
      return "n" + std::to_string(std::get<0>(p.param)) + "_c" +
             std::to_string(std::get<1>(p.param));
    });

// ---------------------------------------------------------------- 2D repair

SramConfig cfg2d(std::uint32_t spare_rows, std::uint32_t spare_cols) {
  auto config = cfg(16, 8, spare_rows);
  config.spare_cols = spare_cols;
  config.name += "_2d";
  return config;
}

TEST(Repair2D, ColumnFaultTakesOneColumnSpare) {
  // Five SA0 cells down one bit lane: five row spares or ONE column spare.
  std::vector<FaultInstance> truth;
  for (std::uint32_t r = 2; r < 7; ++r) {
    truth.push_back(faults::make_cell_fault(FaultKind::sa0, {r, 3}));
  }
  SocUnderTest soc;
  soc.add_memory(cfg2d(2, 2), truth);
  FastScheme scheme;
  const auto result = scheme.diagnose(soc);
  const auto plan = plan_repair_2d(result.log, soc);
  ASSERT_TRUE(plan.fully_repairable());
  EXPECT_EQ(plan.spare_rows_used(), 0u);
  EXPECT_EQ(plan.spare_cols_used(), 1u);
  apply_repair(soc, plan);
  EXPECT_TRUE(soc.memory(0).is_column_repaired(3));
  EXPECT_TRUE(scheme.diagnose(soc).log.empty());
}

TEST(Repair2D, MixedPopulationUsesBothOrientations) {
  std::vector<FaultInstance> truth;
  for (std::uint32_t j = 0; j < 5; ++j) {  // a bad row
    truth.push_back(faults::make_cell_fault(FaultKind::sa1, {10, j}));
  }
  for (std::uint32_t r = 1; r < 6; ++r) {  // a bad column
    truth.push_back(faults::make_cell_fault(FaultKind::sa0, {r, 6}));
  }
  SocUnderTest soc;
  soc.add_memory(cfg2d(1, 1), truth);
  FastScheme scheme;
  const auto result = scheme.diagnose(soc);
  const auto plan = plan_repair_2d(result.log, soc);
  ASSERT_TRUE(plan.fully_repairable());
  EXPECT_EQ(plan.spare_rows_used(), 1u);
  EXPECT_EQ(plan.spare_cols_used(), 1u);
  apply_repair(soc, plan);
  EXPECT_TRUE(scheme.diagnose(soc).log.empty());
}

TEST(Repair2D, AddressFaultPinnedToRowSpare) {
  // An AF row fails on every bit; a column swap shares the broken decoder
  // and cannot fix it — the allocator must spend a row spare.
  SocUnderTest soc;
  soc.add_memory(cfg2d(1, 8),
                 {faults::make_address_fault(FaultKind::af_no_access, 4)});
  FastScheme scheme;
  const auto result = scheme.diagnose(soc);
  const auto plan = plan_repair_2d(result.log, soc);
  ASSERT_TRUE(plan.fully_repairable());
  EXPECT_EQ(plan.spare_rows_used(), 1u);
  EXPECT_EQ(plan.spare_cols_used(), 0u);
  apply_repair(soc, plan);
  EXPECT_TRUE(scheme.diagnose(soc).log.empty());
}

TEST(Repair2D, ReportsUnrepairableOverflow) {
  std::vector<FaultInstance> truth;
  for (std::uint32_t r = 0; r < 6; ++r) {  // six scattered rows
    truth.push_back(faults::make_cell_fault(FaultKind::sa0, {r * 2, r}));
  }
  SocUnderTest soc;
  soc.add_memory(cfg2d(2, 1), truth);
  FastScheme scheme;
  const auto result = scheme.diagnose(soc);
  auto plan = plan_repair_2d(result.log, soc);
  EXPECT_FALSE(plan.fully_repairable());
  EXPECT_EQ(plan.memories[0].unrepaired.size(), 3u);  // 2 rows + 1 col used
}

TEST(Repair2D, ColumnRepairedMemoryBehavesNormally) {
  SocUnderTest soc;
  soc.add_memory(cfg2d(0, 2),
                 {faults::make_cell_fault(FaultKind::sa0, {5, 1})});
  auto& memory = soc.memory(0);
  memory.repair_column(1, 0);
  memory.write(5, BitVector::from_string("11111111"));
  EXPECT_EQ(memory.read(5).to_string(), "11111111");
  EXPECT_EQ(memory.col_spares_used(), 1u);
  EXPECT_THROW(memory.repair_column(1, 1), std::invalid_argument);
  EXPECT_THROW(memory.repair_column(2, 0), std::invalid_argument);
}

// --------------------------------------------------------- baseline scheme

TEST(Baseline, CleanSocCostsSeventeenPlusNineBasePasses) {
  SocUnderTest soc;
  soc.add_memory(cfg(16, 8, 8));
  BaselineScheme scheme;
  const auto result = scheme.diagnose(soc);
  EXPECT_TRUE(result.log.empty());
  EXPECT_EQ(result.iterations, 1u);  // one (empty) verification iteration
  EXPECT_EQ(result.time.cycles, (17u + 9u) * 16u * 8u);
}

TEST(Baseline, EquationOneIdentityHolds) {
  // cycles == (17 + 9k) * n * c with the measured k, by construction —
  // the complexity-faithful reconstruction of Eq. (1).
  SocUnderTest soc;
  soc.add_memory(cfg(16, 8, 16),
                 {faults::make_cell_fault(FaultKind::sa0, {3, 2}),
                  faults::make_cell_fault(FaultKind::sa1, {3, 5}),
                  faults::make_cell_fault(FaultKind::sa0, {9, 0}),
                  faults::make_cell_fault(FaultKind::tf_down, {12, 7})});
  BaselineScheme scheme;
  const auto result = scheme.diagnose(soc);
  EXPECT_EQ(result.time.cycles,
            (17u + 9u * result.iterations) * 16u * 8u);
  EXPECT_FALSE(result.log.empty());
}

TEST(Baseline, LocatesSingleFault) {
  SocUnderTest soc;
  soc.add_memory(cfg(16, 8, 8),
                 {faults::make_cell_fault(FaultKind::sa0, {5, 3})});
  BaselineScheme scheme;
  const auto result = scheme.diagnose(soc);
  const auto cells = result.log.cells(0);
  EXPECT_EQ(std::ranges::count(cells, CellCoord{5, 3}), 1);
}

TEST(Baseline, IterationCountGrowsWithFaultCount) {
  // The defect-rate dependence the paper criticises: more faulty words than
  // the base part can absorb force extra diagnostic iterations (at most ~2
  // newly located per iteration).
  const auto run = [](std::uint32_t faulty_rows) {
    std::vector<FaultInstance> truth;
    for (std::uint32_t r = 0; r < faulty_rows; ++r) {
      truth.push_back(faults::make_cell_fault(
          r % 2 == 0 ? FaultKind::sa0 : FaultKind::sa1, {r, r % 8}));
    }
    SocUnderTest soc;
    soc.add_memory(cfg(64, 8, 64), std::move(truth));
    BaselineScheme scheme;
    return scheme.diagnose(soc).iterations;
  };
  const auto k_few = run(4);
  const auto k_many = run(40);
  EXPECT_GT(k_many, k_few);
  EXPECT_GT(k_many, 5u);  // well beyond what the base part can soak up
}

TEST(Baseline, EventuallyFindsAllFaultyRowsViaIteration) {
  // Diagnosis granularity of the serialized interface is the failure
  // address (that is what row repair consumes); the exact bit can be
  // obscured when the stuck value coincides with the expected pattern and
  // only a fill-corrupted neighbour mismatches.  Every faulty ROW must be
  // identified.
  std::vector<FaultInstance> truth;
  std::set<std::uint32_t> expected_rows;
  for (std::uint32_t r = 0; r < 6; ++r) {
    truth.push_back(faults::make_cell_fault(FaultKind::sa0, {r * 3, r}));
    expected_rows.insert(r * 3);
  }
  SocUnderTest soc;
  soc.add_memory(cfg(32, 8, 32), truth);
  BaselineScheme scheme;
  const auto result = scheme.diagnose(soc);
  EXPECT_EQ(result.log.faulty_rows(0), ascending(expected_rows));
}

TEST(Baseline, DrfInvisibleWithoutRetentionBlock) {
  SocUnderTest soc;
  soc.add_memory(cfg(16, 4, 8),
                 {faults::make_cell_fault(FaultKind::drf1, {5, 1})});
  BaselineScheme scheme;
  const auto result = scheme.diagnose(soc);
  EXPECT_TRUE(result.log.empty());
  EXPECT_EQ(result.time.pause_ns, 0u);
}

TEST(Baseline, RetentionBlockFindsDrfAtTheCostOfPauses) {
  SocUnderTest soc;
  soc.add_memory(cfg(16, 4, 8),
                 {faults::make_cell_fault(FaultKind::drf1, {5, 1})});
  BaselineSchemeOptions options;
  options.include_drf = true;
  BaselineScheme scheme(options);
  const auto result = scheme.diagnose(soc);
  EXPECT_EQ(std::ranges::count(result.log.cells(0), CellCoord{5, 1}), 1);
  // Two 100 ms pauses per iteration, and 9+8 passes per iteration.
  EXPECT_EQ(result.time.pause_ns, result.iterations * 2u * 100'000'000u);
  EXPECT_EQ(result.time.cycles,
            (17u + 17u * result.iterations) * 16u * 4u);
}

TEST(SchemeComparison, FastSchemeIsFasterAndSeesMore) {
  // The headline comparison on one SoC: same faults, both schemes.
  const auto truth = std::vector<FaultInstance>{
      faults::make_cell_fault(FaultKind::sa0, {3, 2}),
      faults::make_cell_fault(FaultKind::sa1, {9, 5}),
      faults::make_cell_fault(FaultKind::tf_up, {14, 1}),
      faults::make_cell_fault(FaultKind::drf1, {6, 6}),
  };
  sram::ClockDomain clock{10};

  SocUnderTest fast_soc;
  fast_soc.add_memory(cfg(16, 8, 16), truth);
  FastScheme fast;
  const auto fast_result = fast.diagnose(fast_soc);

  SocUnderTest base_soc;
  base_soc.add_memory(cfg(16, 8, 16), truth);
  BaselineSchemeOptions options;
  options.include_drf = true;  // give the baseline DRF coverage too
  BaselineScheme baseline(options);
  const auto base_result = baseline.diagnose(base_soc);

  // Both find everything...
  EXPECT_EQ(fast_result.log.cells(0).size(), 4u);
  EXPECT_GE(base_result.log.cells(0).size(), 4u);
  // ...but the proposed scheme does it in one pass and orders of magnitude
  // less time (the baseline pays iterations *and* 200 ms pauses).
  EXPECT_EQ(fast_result.iterations, 1u);
  EXPECT_GT(base_result.iterations, 1u);
  EXPECT_GT(base_result.total_ns(clock) / fast_result.total_ns(clock), 50u);
}

}  // namespace
}  // namespace fastdiag::bisd
