// Unit tests for src/march: ops, elements, tests, notation, backgrounds,
// the algorithm library, the element driver, the runner, and classical
// coverage guarantees.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "faults/fault_set.h"
#include "group_per_cell.h"
#include "march/background.h"
#include "march/coverage.h"
#include "march/drive.h"
#include "march/library.h"
#include "march/notation.h"
#include "march/runner.h"
#include "march/test.h"
#include "sram/sram.h"
#include "util/rng.h"

namespace fastdiag::march {
namespace {

using faults::FaultInstance;
using faults::FaultKind;
using sram::Sram;
using sram::SramConfig;

SramConfig geometry(std::uint32_t words = 16, std::uint32_t bits = 4) {
  SramConfig config;
  config.name = "g" + std::to_string(words) + "x" + std::to_string(bits);
  config.words = words;
  config.bits = bits;
  return config;
}

Sram faulty(const std::vector<FaultInstance>& instances,
            SramConfig config = geometry()) {
  return Sram(config, std::make_unique<faults::FaultSet>(instances));
}

// --------------------------------------------------------------------- ops

TEST(MarchOp, ToStringForms) {
  EXPECT_EQ(MarchOp::r0().to_string(), "r0");
  EXPECT_EQ(MarchOp::r1().to_string(), "r1");
  EXPECT_EQ(MarchOp::w0().to_string(), "w0");
  EXPECT_EQ(MarchOp::w1().to_string(), "w1");
  EXPECT_EQ(MarchOp::nw0().to_string(), "nw0");
  EXPECT_EQ(MarchOp::nw1().to_string(), "nw1");
  EXPECT_EQ(MarchOp::pause(100'000'000).to_string(), "pause100ms");
  EXPECT_EQ(MarchOp::pause(500).to_string(), "pause500ns");
}

TEST(MarchOp, Predicates) {
  EXPECT_TRUE(MarchOp::r0().is_read());
  EXPECT_FALSE(MarchOp::r0().is_any_write());
  EXPECT_TRUE(MarchOp::w1().is_any_write());
  EXPECT_TRUE(MarchOp::nw0().is_any_write());
  EXPECT_FALSE(MarchOp::pause(1).is_any_write());
}

// ---------------------------------------------------------------- elements

TEST(MarchElement, CountsAndToString) {
  MarchElement e{AddrOrder::up,
                 {MarchOp::r0(), MarchOp::nw1(), MarchOp::w1()}};
  EXPECT_EQ(e.read_count(), 1u);
  EXPECT_EQ(e.write_count(), 2u);
  EXPECT_FALSE(e.has_pause());
  EXPECT_EQ(e.to_string(), "up(r0,nw1,w1)");
}

// ------------------------------------------------------------------- tests

TEST(MarchTest, RejectsPauseInAddressedElement) {
  EXPECT_THROW(
      MarchTest("bad", {MarchPhase{BitVector(4),
                                   {{AddrOrder::up, {MarchOp::pause(1)}}}}}),
      std::invalid_argument);
}

TEST(MarchTest, RejectsReadInOnceElement) {
  EXPECT_THROW(
      MarchTest("bad", {MarchPhase{BitVector(4),
                                   {{AddrOrder::once, {MarchOp::r0()}}}}}),
      std::invalid_argument);
}

TEST(MarchTest, RejectsInconsistentBackgroundWidths) {
  EXPECT_THROW(
      MarchTest("bad",
                {MarchPhase{BitVector(4), {{AddrOrder::up, {MarchOp::r0()}}}},
                 MarchPhase{BitVector(5), {{AddrOrder::up, {MarchOp::r0()}}}}}),
      std::invalid_argument);
}

TEST(MarchTest, OpCountsMatchTextbookComplexities) {
  EXPECT_EQ(mats_plus(8).op_count(100), 500u);       // 5n
  EXPECT_EQ(march_x(8).op_count(100), 600u);         // 6n
  EXPECT_EQ(march_y(8).op_count(100), 800u);         // 8n
  EXPECT_EQ(march_c_minus(8).op_count(100), 1000u);  // 10n
  EXPECT_EQ(march_a(8).op_count(100), 1500u);        // 15n
  EXPECT_EQ(march_b(8).op_count(100), 1700u);        // 17n
}

TEST(MarchTest, MarchCwShape) {
  const auto cw = march_cw(8);  // ceil(log2 8) = 3 stripe backgrounds
  EXPECT_EQ(cw.phases().size(), 4u);
  // 10n solid + 6n per stripe background (3 writes + 3 reads per address).
  EXPECT_EQ(cw.op_count(100), 1000u + 3u * 600u);
  EXPECT_EQ(cw.reads_per_address(), 5u + 3u * 3u);
  EXPECT_EQ(cw.writes_per_address(), 5u + 3u * 3u);
}

TEST(MarchTest, MarchCwNwrtmSameOpCountAsMarchCw) {
  // The NWRTM merge replaces write-backs, it does not add operations.
  EXPECT_EQ(march_cw_nwrtm(8).op_count(64), march_cw(8).op_count(64));
}

TEST(MarchTest, RetentionExtensionAddsPausesOnce) {
  const auto test = with_retention_pause(march_c_minus(4), 1'000'000);
  EXPECT_EQ(test.total_pause_ns(), 2'000'000u);
  // +4n addressed ops and +2 pause ops.
  EXPECT_EQ(test.op_count(10), 100u + 40u + 2u);
}

TEST(MarchTest, LibraryListIsComplete) {
  EXPECT_EQ(all_library_tests(4).size(), 11u);
}

TEST(MarchTest, NewAlgorithmsHaveTextbookComplexities) {
  EXPECT_EQ(march_lr(8).op_count(100), 1400u);  // 14n
  EXPECT_EQ(march_ss(8).op_count(100), 2200u);  // 22n
  // March G: 23n addressed ops + 2 pause ops.
  EXPECT_EQ(march_g(8).op_count(100), 2302u);
  EXPECT_EQ(march_g(8).total_pause_ns(), 200'000'000u);
}

TEST(MarchTest, AblationVariantsDifferAsDocumented) {
  // Paper top-up drops one read per stripe background.
  const auto full = march_cw(8);
  const auto paper = march_cw_paper_topup(8);
  EXPECT_EQ(full.op_count(64) - paper.op_count(64), 3u * 64u);
  // Verify-NWRTM adds one read per address per polarity.
  const auto merged = march_cw_nwrtm(8);
  const auto verify = march_cw_nwrtm_verify(8);
  EXPECT_EQ(verify.op_count(64) - merged.op_count(64), 2u * 64u);
}

TEST(MarchTest, DiagRsMarchShapeMatchesEquationOne) {
  constexpr auto shape = diag_rs_march_shape();
  EXPECT_EQ(shape.base_passes, 17u);
  EXPECT_EQ(shape.m1_passes, 9u);
}

// ------------------------------------------------------------- backgrounds

TEST(Backgrounds, CountIsOnePlusCeilLog2) {
  EXPECT_EQ(standard_backgrounds(1).size(), 1u);
  EXPECT_EQ(standard_backgrounds(2).size(), 2u);
  EXPECT_EQ(standard_backgrounds(8).size(), 4u);
  EXPECT_EQ(standard_backgrounds(100).size(), 8u);  // ceil(log2 100) = 7
}

TEST(Backgrounds, StripePatterns) {
  const auto set = standard_backgrounds(8);
  EXPECT_EQ(set[0].to_string(), "00000000");
  EXPECT_EQ(set[1].to_string(), "10101010");
  EXPECT_EQ(set[2].to_string(), "11001100");
  EXPECT_EQ(set[3].to_string(), "11110000");
}

TEST(Backgrounds, SeparateAllBitPairs) {
  for (const std::size_t width : {2u, 3u, 8u, 33u, 100u}) {
    EXPECT_TRUE(separates_all_bit_pairs(standard_backgrounds(width), width))
        << "width " << width;
  }
}

TEST(Backgrounds, SolidAloneDoesNotSeparate) {
  EXPECT_FALSE(separates_all_bit_pairs({BitVector(4, false)}, 4));
}

// ---------------------------------------------------------------- notation

TEST(Notation, RoundTripsLibraryTests) {
  for (const auto& test : all_library_tests(8)) {
    for (const auto& phase : test.phases()) {
      const auto text = elements_to_string(phase.elements);
      EXPECT_EQ(parse_elements(text), phase.elements) << text;
    }
  }
}

TEST(Notation, RoundTripsPause) {
  const std::string text = "{any(w0); once(pause100ms); any(r0)}";
  const auto elements = parse_elements(text);
  ASSERT_EQ(elements.size(), 3u);
  EXPECT_EQ(elements[1].ops[0].pause_ns, 100'000'000u);
  EXPECT_EQ(elements_to_string(elements), text);
}

TEST(Notation, PauseDurationsUpToU64MaxNanosecondsParse) {
  // 2^64 - 1 ns is the largest representable pause.
  const auto elements =
      parse_elements("{once(pause18446744073709551615ns)}");
  ASSERT_EQ(elements.size(), 1u);
  EXPECT_EQ(elements[0].ops[0].pause_ns, 18'446'744'073'709'551'615ull);
}

TEST(Notation, PauseDurationOverflowIsARejectionNotAWrap) {
  // Past 2^64 the old stoull path threw std::out_of_range (escaping the
  // notation error contract); now it reports through require().
  EXPECT_THROW((void)parse_elements("{once(pause99999999999999999999ns)}"),
               std::invalid_argument);
  // Fits in u64 as a count, but the ms -> ns scale would silently wrap:
  // 5e13 ms * 1e6 = 5e19 ns > 2^64.
  EXPECT_THROW((void)parse_elements("{once(pause50000000000000ms)}"),
               std::invalid_argument);
  // The largest ms value that still fits scales cleanly.
  const auto elements = parse_elements("{once(pause18446744073709ms)}");
  EXPECT_EQ(elements[0].ops[0].pause_ns, 18'446'744'073'709'000'000ull);
}

TEST(Notation, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_elements("any(w0)"), std::invalid_argument);
  EXPECT_THROW((void)parse_elements("{sideways(w0)}"), std::invalid_argument);
  EXPECT_THROW((void)parse_elements("{up(q9)}"), std::invalid_argument);
  EXPECT_THROW((void)parse_elements("{up(r0,w1)} junk"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_elements("{up()}"), std::invalid_argument);
}

TEST(Notation, ErrorPathsCoverEveryGrammarRule) {
  // Unknown address order (empty word and spelled-out variants).
  EXPECT_THROW((void)parse_elements("{(w0)}"), std::invalid_argument);
  EXPECT_THROW((void)parse_elements("{UP(w0)}"), std::invalid_argument);
  // Unknown / truncated op tokens.
  EXPECT_THROW((void)parse_elements("{up(r2)}"), std::invalid_argument);
  EXPECT_THROW((void)parse_elements("{up(w)}"), std::invalid_argument);
  EXPECT_THROW((void)parse_elements("{up(nw)}"), std::invalid_argument);
  // Missing braces / parens / separators.
  EXPECT_THROW((void)parse_elements(""), std::invalid_argument);
  EXPECT_THROW((void)parse_elements("{up(r0,w1)"), std::invalid_argument);
  EXPECT_THROW((void)parse_elements("{up r0,w1}"), std::invalid_argument);
  EXPECT_THROW((void)parse_elements("{up(r0,w1}"), std::invalid_argument);
  EXPECT_THROW((void)parse_elements("{up(r0,)}"), std::invalid_argument);
  EXPECT_THROW((void)parse_elements("{up(r0); }"), std::invalid_argument);
  // Pause grammar: missing duration, junk duration.
  EXPECT_THROW((void)parse_elements("{once(pause)}"), std::invalid_argument);
  EXPECT_THROW((void)parse_elements("{once(pause12x)}"),
               std::invalid_argument);
  // Pause placement: only inside `once`, and `once` holds nothing else.
  EXPECT_THROW((void)parse_elements("{up(r0,pause5ns)}"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_elements("{any(pause5ms)}"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_elements("{once(w0)}"), std::invalid_argument);
  EXPECT_THROW((void)parse_elements("{once(pause5ns,r0)}"),
               std::invalid_argument);
  // The valid forms right next to the rejected ones still parse.
  EXPECT_EQ(parse_elements("{once(pause5ns)}").size(), 1u);
  EXPECT_EQ(parse_elements("{once(pause5ns, pause2ms)}")[0].ops.size(), 2u);
}

TEST(Notation, EmptyListRoundTrips) {
  EXPECT_TRUE(parse_elements("{}").empty());
  EXPECT_EQ(elements_to_string({}), "{}");
}

TEST(Notation, RoundTripsRandomElementLists) {
  // Property: parse_elements(elements_to_string(x)) == x for any valid
  // element list — addressed elements with read/write/NWRC ops in every
  // order, and once-elements holding ns/ms pauses.
  Rng rng(8128);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<MarchElement> elements;
    const auto element_count = 1 + rng.uniform(5);
    for (std::uint64_t e = 0; e < element_count; ++e) {
      MarchElement element;
      if (rng.bernoulli(0.2)) {
        element.order = AddrOrder::once;
        const auto pauses = 1 + rng.uniform(2);
        for (std::uint64_t o = 0; o < pauses; ++o) {
          // ns values below the ms scale, or exact ms multiples — both
          // print back as what they parse from.
          element.ops.push_back(
              rng.bernoulli(0.5)
                  ? MarchOp::pause(1 + rng.uniform(999'999))
                  : MarchOp::pause((1 + rng.uniform(500)) * 1'000'000));
        }
      } else {
        static const AddrOrder orders[] = {AddrOrder::up, AddrOrder::down,
                                           AddrOrder::any};
        element.order = orders[rng.uniform(3)];
        const auto ops = 1 + rng.uniform(5);
        for (std::uint64_t o = 0; o < ops; ++o) {
          static const MarchOp choices[] = {MarchOp::r0(),  MarchOp::r1(),
                                            MarchOp::w0(),  MarchOp::w1(),
                                            MarchOp::nw0(), MarchOp::nw1()};
          element.ops.push_back(choices[rng.uniform(std::size(choices))]);
        }
      }
      elements.push_back(std::move(element));
    }
    const auto text = elements_to_string(elements);
    EXPECT_EQ(parse_elements(text), elements) << "trial " << trial << ": "
                                              << text;
  }
}

// ------------------------------------------------------------------ runner

TEST(Runner, FaultFreeMemoryRunsClean) {
  for (const auto& test : all_library_tests(4)) {
    Sram memory(geometry());
    const auto result = MarchRunner().run(memory, test);
    EXPECT_FALSE(result.detected()) << test.name();
    EXPECT_EQ(result.ops, test.op_count(16)) << test.name();
  }
}

TEST(Runner, ElapsedTimeMatchesOpsTimesClock) {
  Sram memory(geometry());
  const auto test = march_c_minus(4);
  const auto result = MarchRunner(sram::ClockDomain{10}).run(memory, test);
  EXPECT_EQ(result.elapsed_ns, result.ops * 10u);
}

TEST(Runner, DetectsAndLocatesStuckAt) {
  auto memory = faulty({faults::make_cell_fault(FaultKind::sa0, {5, 2})});
  const auto result = MarchRunner().run(memory, march_c_minus(4));
  ASSERT_TRUE(result.detected());
  const auto suspects = result.suspect_cells();
  EXPECT_EQ(suspects.size(), 1u);
  EXPECT_EQ(*suspects.begin(), (sram::CellCoord{5, 2}));
}

TEST(Runner, TestNarrowerThanMemoryRejected) {
  Sram memory(geometry(16, 8));
  EXPECT_THROW((void)MarchRunner().run(memory, march_c_minus(4)),
               std::invalid_argument);
}

TEST(Runner, WiderTestTruncatesLikeMsbFirstSpc) {
  // A width-8 test driving a width-4 memory uses the low 4 background bits
  // (DP[c'-1:0], Sec. 3.2) — the run must stay clean on a good memory.
  Sram memory(geometry(8, 4));
  const auto result = MarchRunner().run(memory, march_cw(8));
  EXPECT_FALSE(result.detected());
}

TEST(Runner, PauseAdvancesSimulatedTime) {
  Sram memory(geometry());
  const auto test = with_retention_pause(march_c_minus(4), 7'000'000);
  (void)MarchRunner().run(memory, test);
  EXPECT_GT(memory.now_ns(), 14'000'000u);
}

TEST(Runner, WrapEmulationStaysCleanAndCountsGlobalSteps) {
  // global_words emulates the shared controller sweeping a larger SoC
  // (Sec. 3.1): a good memory revisited by the wrap must still run clean —
  // revisit reads expect the written-back value, not the nominal pattern.
  Sram memory(geometry(6, 4));
  const auto test = march_c_minus(4);
  const auto result = MarchRunner().run(memory, test, /*global_words=*/16);
  EXPECT_FALSE(result.detected());
  EXPECT_EQ(result.ops, test.op_count(16));
}

TEST(Runner, WrapEmulationAttributesVisits) {
  // An SA0 cell fails every expected-1 read on every wrap visit; the
  // mismatch records must carry op and visit attribution.
  auto memory = faulty({faults::make_cell_fault(FaultKind::sa0, {1, 2})});
  const auto result = MarchRunner().run(memory, march_c_minus(4),
                                        /*global_words=*/32);
  ASSERT_TRUE(result.detected());
  const auto suspects = result.suspect_cells();
  ASSERT_EQ(suspects.size(), 1u);
  EXPECT_EQ(suspects[0], (sram::CellCoord{1, 2}));
  bool saw_revisit = false;
  for (const auto& mismatch : result.mismatches) {
    EXPECT_EQ(mismatch.addr, 1u);
    EXPECT_LT(mismatch.visit, 2u);  // 32 steps over 16 words = 2 visits
    saw_revisit = saw_revisit || mismatch.visit == 1;
  }
  EXPECT_TRUE(saw_revisit);
}

TEST(Runner, GlobalWordsBelowCapacityRejected) {
  Sram memory(geometry(16, 4));
  EXPECT_THROW((void)MarchRunner().run(memory, march_c_minus(4), 8),
               std::invalid_argument);
}

// ------------------------------------------------------------------ driver

/// Records everything drive_march / drive_element hand a sink.
struct RecordingSink {
  struct Access {
    std::size_t phase = 0;
    std::size_t element = 0;
    std::uint32_t addr = 0;
    std::uint32_t visit = 0;
    bool read = false;
  };
  using Bracket = std::pair<std::size_t, std::size_t>;

  std::vector<std::size_t> phases;
  std::vector<Bracket> begun, ended;
  std::vector<std::uint64_t> pauses;
  std::vector<Access> accesses;

  void begin_phase(std::size_t p, const MarchPhase&) { phases.push_back(p); }
  void begin_element(std::size_t p, std::size_t e) { begun.emplace_back(p, e); }
  void end_element(std::size_t p, std::size_t e) { ended.emplace_back(p, e); }
  void pause(std::uint64_t ns) { pauses.push_back(ns); }
  void write(const OpCtx& ctx) {
    accesses.push_back({ctx.phase, ctx.element, ctx.addr, ctx.visit, false});
  }
  void read(const OpCtx& ctx) {
    accesses.push_back({ctx.phase, ctx.element, ctx.addr, ctx.visit, true});
  }

  /// The addresses (or visits) element @p e of phase 0 reached, one entry
  /// per op, in driver order.
  [[nodiscard]] std::vector<std::uint32_t> addrs(std::size_t e,
                                                 bool visits = false) const {
    std::vector<std::uint32_t> out;
    for (const auto& access : accesses) {
      if (access.phase == 0 && access.element == e) {
        out.push_back(visits ? access.visit : access.addr);
      }
    }
    return out;
  }
};

TEST(Driver, WrapsTheSweepAroundSmallerMemories) {
  const MarchTest test(
      "driver", {MarchPhase{BitVector(1), parse_elements("{up(w0); down(r0); "
                                                          "once(pause5ns)}")},
                 MarchPhase{BitVector(1), parse_elements("{any(r0,w1)}")}});
  const std::vector<std::uint32_t> twice_up{0, 1, 2, 3, 0, 1, 2, 3};
  const std::vector<std::uint32_t> twice_down{3, 2, 1, 0, 3, 2, 1, 0};
  const std::vector<std::uint32_t> two_visits{0, 0, 0, 0, 1, 1, 1, 1};

  // A 4-word memory under the controller's 8-step sweep.
  RecordingSink sink;
  std::uint64_t ops = 0;
  drive_march(test, /*words=*/4, /*sweep=*/8, ops, sink);
  EXPECT_EQ(sink.addrs(0), twice_up);
  EXPECT_EQ(sink.addrs(1), twice_down);
  EXPECT_EQ(sink.addrs(0, true), two_visits);
  EXPECT_EQ(sink.addrs(1, true), two_visits);
  EXPECT_EQ(ops, test.op_count(8));
  EXPECT_EQ(sink.phases, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(sink.pauses, std::vector<std::uint64_t>{5});
  // The hooks bracket each addressed element once; the once element
  // (phase 0, element 2) gets none.
  const std::vector<RecordingSink::Bracket> addressed{{0, 0}, {0, 1}, {1, 0}};
  EXPECT_EQ(sink.begun, addressed);
  EXPECT_EQ(sink.ended, addressed);
  // Phase 1's one element: r0 then w1 at each step, wrapping too.
  ASSERT_EQ(sink.accesses.size(), 32u);
  EXPECT_EQ(sink.accesses[16].phase, 1u);
  EXPECT_TRUE(sink.accesses[16].read);
  EXPECT_FALSE(sink.accesses[17].read);
  EXPECT_EQ(sink.accesses[18].addr, 1u);
  EXPECT_EQ(sink.accesses[31].addr, 3u);
  EXPECT_EQ(sink.accesses[31].visit, 1u);

  // A memory as deep as the sweep never wraps; one element at a time.
  RecordingSink deep;
  std::uint64_t deep_ops = 0;
  for (std::size_t e = 0; e < 3; ++e) {
    drive_element(test, 0, e, /*words=*/8, /*sweep=*/8, deep_ops, deep);
  }
  EXPECT_EQ(deep.addrs(0),
            (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(deep.addrs(1),
            (std::vector<std::uint32_t>{7, 6, 5, 4, 3, 2, 1, 0}));
  EXPECT_EQ(deep.addrs(0, true), std::vector<std::uint32_t>(8, 0));
  EXPECT_EQ(deep.addrs(1, true), std::vector<std::uint32_t>(8, 0));
  EXPECT_EQ(deep.begun, (std::vector<RecordingSink::Bracket>{{0, 0}, {0, 1}}));
  EXPECT_EQ(deep.ended, deep.begun);
  EXPECT_EQ(deep.pauses, std::vector<std::uint64_t>{5});
  EXPECT_TRUE(deep.phases.empty());
  EXPECT_EQ(deep_ops, 8u + 8u + 1u);
}

// ----------------------------------------------- classical coverage claims

CoverageRow coverage_of(const MarchTest& test, FaultKind kind,
                        CouplingScope scope = CouplingScope::any,
                        std::uint32_t words = 16, std::uint32_t bits = 4) {
  Rng rng(2024);
  const auto config = geometry(words, bits);
  const auto population = make_population(config, kind, scope, 48, rng);
  return CoverageEvaluator(config).evaluate(test, population);
}

TEST(Coverage, MarchCMinusDetectsAllStuckAt) {
  EXPECT_DOUBLE_EQ(coverage_of(march_c_minus(4), FaultKind::sa0)
                       .detection_rate(), 1.0);
  EXPECT_DOUBLE_EQ(coverage_of(march_c_minus(4), FaultKind::sa1)
                       .detection_rate(), 1.0);
}

TEST(Coverage, MarchCMinusDetectsAllTransition) {
  EXPECT_DOUBLE_EQ(coverage_of(march_c_minus(4), FaultKind::tf_up)
                       .detection_rate(), 1.0);
  EXPECT_DOUBLE_EQ(coverage_of(march_c_minus(4), FaultKind::tf_down)
                       .detection_rate(), 1.0);
}

TEST(Coverage, MarchCMinusDetectsAllAddressFaults) {
  for (const auto kind : {FaultKind::af_no_access, FaultKind::af_wrong_row,
                          FaultKind::af_extra_row}) {
    EXPECT_DOUBLE_EQ(coverage_of(march_c_minus(4), kind).detection_rate(),
                     1.0)
        << faults::fault_kind_name(kind);
  }
}

TEST(Coverage, MarchCMinusDetectsInterWordCoupling) {
  for (const auto kind :
       {FaultKind::cf_in_up, FaultKind::cf_in_down, FaultKind::cf_id_up0,
        FaultKind::cf_id_up1, FaultKind::cf_id_down0, FaultKind::cf_id_down1,
        FaultKind::cf_st_00, FaultKind::cf_st_01, FaultKind::cf_st_10,
        FaultKind::cf_st_11}) {
    EXPECT_DOUBLE_EQ(
        coverage_of(march_c_minus(4), kind, CouplingScope::inter_word)
            .detection_rate(),
        1.0)
        << faults::fault_kind_name(kind);
  }
}

TEST(Coverage, MarchCMinusMissesSomeIntraWordCoupling) {
  // CFid<up;1>: the aggressor's rise always co-writes the victim to the
  // forced value under the solid background — invisible without stripes.
  const auto row = coverage_of(march_c_minus(4), FaultKind::cf_id_up1,
                               CouplingScope::intra_word);
  EXPECT_LT(row.detection_rate(), 0.5);
}

TEST(Coverage, MarchCwDetectsIntraWordCoupling) {
  for (const auto kind :
       {FaultKind::cf_in_up, FaultKind::cf_in_down, FaultKind::cf_id_up0,
        FaultKind::cf_id_up1, FaultKind::cf_id_down0, FaultKind::cf_id_down1,
        FaultKind::cf_st_00, FaultKind::cf_st_01, FaultKind::cf_st_10,
        FaultKind::cf_st_11}) {
    EXPECT_DOUBLE_EQ(
        coverage_of(march_cw(4), kind, CouplingScope::intra_word)
            .detection_rate(),
        1.0)
        << faults::fault_kind_name(kind);
  }
}

TEST(Coverage, SofCaughtByReadAfterWriteTests) {
  EXPECT_DOUBLE_EQ(coverage_of(march_y(4), FaultKind::sof).detection_rate(),
                   1.0);
  EXPECT_DOUBLE_EQ(coverage_of(march_b(4), FaultKind::sof).detection_rate(),
                   1.0);
}

TEST(Coverage, SofMostlyEscapesMarchCMinus) {
  // Without a read-after-write in the same element, the sense-amp latch
  // happens to match the expected value except at the address-0 boundary.
  const auto row = coverage_of(march_c_minus(4), FaultKind::sof);
  EXPECT_LT(row.detection_rate(), 0.3);
}

TEST(Coverage, DrfInvisibleToPlainMarch) {
  // The test finishes long before the retention threshold: zero coverage —
  // the blind spot of [7,8] the paper fixes.
  EXPECT_DOUBLE_EQ(coverage_of(march_cw(4), FaultKind::drf0).detection_rate(),
                   0.0);
  EXPECT_DOUBLE_EQ(coverage_of(march_cw(4), FaultKind::drf1).detection_rate(),
                   0.0);
}

TEST(Coverage, DrfFullyCaughtByNwrtm) {
  EXPECT_DOUBLE_EQ(
      coverage_of(march_cw_nwrtm(4), FaultKind::drf0).detection_rate(), 1.0);
  EXPECT_DOUBLE_EQ(
      coverage_of(march_cw_nwrtm(4), FaultKind::drf1).detection_rate(), 1.0);
}

TEST(Coverage, DrfCaughtByRetentionPause) {
  const auto test = with_retention_pause(march_c_minus(4));
  EXPECT_DOUBLE_EQ(coverage_of(test, FaultKind::drf0).detection_rate(), 1.0);
  EXPECT_DOUBLE_EQ(coverage_of(test, FaultKind::drf1).detection_rate(), 1.0);
}

TEST(Coverage, MarchSsDetectsAllSimpleStaticCellFaults) {
  for (const auto kind : {FaultKind::sa0, FaultKind::sa1, FaultKind::tf_up,
                          FaultKind::tf_down}) {
    EXPECT_DOUBLE_EQ(coverage_of(march_ss(4), kind).detection_rate(), 1.0)
        << faults::fault_kind_name(kind);
  }
}

TEST(Coverage, MarchGDetectsSofAndDrf) {
  // Read-after-write inside the long element catches stuck-open cells;
  // the two delay elements catch retention faults.
  EXPECT_DOUBLE_EQ(coverage_of(march_g(4), FaultKind::sof).detection_rate(),
                   1.0);
  EXPECT_DOUBLE_EQ(coverage_of(march_g(4), FaultKind::drf0).detection_rate(),
                   1.0);
  EXPECT_DOUBLE_EQ(coverage_of(march_g(4), FaultKind::drf1).detection_rate(),
                   1.0);
}

TEST(Coverage, MarchLrDetectsClassicalFaults) {
  for (const auto kind : {FaultKind::sa0, FaultKind::sa1, FaultKind::tf_up,
                          FaultKind::tf_down}) {
    EXPECT_DOUBLE_EQ(coverage_of(march_lr(4), kind).detection_rate(), 1.0)
        << faults::fault_kind_name(kind);
  }
  EXPECT_DOUBLE_EQ(
      coverage_of(march_lr(4), FaultKind::cf_in_up, CouplingScope::inter_word)
          .detection_rate(),
      1.0);
}

TEST(Coverage, PaperTopUpMissesWhatTheVerifyReadCatches) {
  // The ablation pair behind E9's March CW top-up table: the paper's
  // 2-read top-up leaves its last write unverified.
  const auto full = coverage_of(march_cw(4), FaultKind::cf_id_down0,
                                CouplingScope::intra_word);
  const auto paper = coverage_of(march_cw_paper_topup(4),
                                 FaultKind::cf_id_down0,
                                 CouplingScope::intra_word);
  EXPECT_DOUBLE_EQ(full.detection_rate(), 1.0);
  EXPECT_LT(paper.detection_rate(), 1.0);
}

TEST(Coverage, NwrtmVerifyVariantAlsoCatchesAllDrfs) {
  EXPECT_DOUBLE_EQ(
      coverage_of(march_cw_nwrtm_verify(4), FaultKind::drf0).detection_rate(),
      1.0);
  EXPECT_DOUBLE_EQ(
      coverage_of(march_cw_nwrtm_verify(4), FaultKind::drf1).detection_rate(),
      1.0);
}

TEST(Coverage, NwrtmDoesNotChangeNonDrfCoverage) {
  // Sec. 4.1: the proposed scheme's coverage equals the baseline's on
  // logical faults and adds the DRFs.
  for (const auto kind : faults::all_fault_kinds()) {
    if (faults::is_retention_fault(kind)) {
      continue;
    }
    const auto scope = faults::needs_aggressor(kind)
                           ? CouplingScope::intra_word
                           : CouplingScope::any;
    const auto base = coverage_of(march_cw(4), kind, scope);
    const auto merged = coverage_of(march_cw_nwrtm(4), kind, scope);
    EXPECT_EQ(base.detected, merged.detected)
        << faults::fault_kind_name(kind);
  }
}

// ------------------------------------------- parameterized invariant sweep

using SweepParam = std::tuple<std::size_t, FaultKind>;

class CoverageInvariants : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CoverageInvariants, LocatedNeverExceedsDetected) {
  const auto algo_index = std::get<0>(GetParam());
  const auto kind = std::get<1>(GetParam());
  const auto tests = all_library_tests(4);
  const auto& test = tests[algo_index];
  const auto row = coverage_of(test, kind, CouplingScope::any, 8, 4);
  EXPECT_LE(row.located, row.detected);
  EXPECT_LE(row.detected, row.injected);
  EXPECT_GT(row.injected, 0u);
}

std::string sweep_param_name(const ::testing::TestParamInfo<SweepParam>& p) {
  std::string name = "algo" + std::to_string(std::get<0>(p.param)) + "_" +
                     std::string(faults::fault_kind_name(std::get<1>(p.param)));
  for (auto& c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllKinds, CoverageInvariants,
    ::testing::Combine(::testing::Range<std::size_t>(0, 11),
                       ::testing::ValuesIn(faults::all_fault_kinds())),
    sweep_param_name);

// ------------------------------------------------------------- populations

TEST(Population, CellKindsEnumerateExhaustivelyWhenSmall) {
  Rng rng(1);
  const auto population = make_population(geometry(4, 3), FaultKind::sa0,
                                          CouplingScope::any, 100, rng);
  EXPECT_EQ(population.instances.size(), 12u);
}

TEST(Population, SamplingCapsInstances) {
  Rng rng(1);
  const auto population = make_population(geometry(16, 8), FaultKind::sa0,
                                          CouplingScope::any, 10, rng);
  EXPECT_EQ(population.instances.size(), 10u);
}

TEST(Population, IntraWordPairsShareRow) {
  Rng rng(3);
  const auto population = make_population(
      geometry(), FaultKind::cf_in_up, CouplingScope::intra_word, 32, rng);
  for (const auto& f : population.instances) {
    EXPECT_EQ(f.victim.row, f.aggressor.row);
    EXPECT_NE(f.victim.bit, f.aggressor.bit);
  }
}

TEST(Population, InterWordPairsDiffer) {
  Rng rng(3);
  const auto population = make_population(
      geometry(), FaultKind::cf_in_up, CouplingScope::inter_word, 32, rng);
  for (const auto& f : population.instances) {
    EXPECT_NE(f.victim.row, f.aggressor.row);
  }
}

TEST(Runner, RetentionPauseProbeGroupMatchesPerProbeRuns) {
  // A march test whose `once` elements carry retention pauses must advance
  // every probe lane's clock exactly as a per-memory run_per_cell does —
  // DRF decay is evaluated against that clock, so a skewed pause would
  // show up as divergent failed-read sets.
  const auto test = with_retention_pause(march_c_minus(4), 100'000'000);
  const auto config = geometry();
  std::vector<std::vector<FaultInstance>> lanes(6);
  lanes[2] = {faults::make_cell_fault(FaultKind::drf0, {3, 1})};
  lanes[4] = {faults::make_cell_fault(FaultKind::drf1, {5, 2}),
              faults::make_cell_fault(FaultKind::drf0, {9, 0})};

  const MarchRunner runner;
  const auto results = run_group_per_cell(runner, config, lanes, test);
  ASSERT_EQ(results.size(), lanes.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    Sram reference = faulty(lanes[i], config);
    EXPECT_TRUE(results[i] == runner.run_per_cell(reference, test))
        << "lane " << i;
  }
  // The retention pause is what exposes the DRF lanes at all.
  EXPECT_TRUE(results[2].contains({3, 1}));
  EXPECT_TRUE(results[4].contains({5, 2}));
  EXPECT_TRUE(results[4].contains({9, 0}));
  EXPECT_TRUE(results[0].empty());
}

TEST(Population, EvaluateAllCoversEveryKind) {
  const CoverageEvaluator evaluator(geometry(8, 4));
  const auto rows = evaluator.evaluate_all(march_cw(4), 8, 7);
  // 10 coupling kinds get two rows each; the other 10 kinds one row.
  EXPECT_EQ(rows.size(), 30u);
}

}  // namespace
}  // namespace fastdiag::march
