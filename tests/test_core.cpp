// Tests for the public API (src/core) — spec-built end-to-end runs over
// injected SoCs with scoring and repair.
#include <gtest/gtest.h>

#include "core/fastdiag.h"

namespace fastdiag::core {
namespace {

sram::SramConfig small(const std::string& name, std::uint32_t words,
                       std::uint32_t bits, std::uint32_t spares = 16) {
  sram::SramConfig config;
  config.name = name;
  config.words = words;
  config.bits = bits;
  config.spare_rows = spares;
  return config;
}

Report run_spec(const SessionSpec::Builder& builder) {
  const auto spec = builder.build();
  EXPECT_TRUE(spec.has_value())
      << (spec ? "" : spec.error().to_string());
  return DiagnosisEngine::execute(spec.value());
}

TEST(Spec, FastSchemeFullRecallOnInjectedSoc) {
  const auto report = run_spec(SessionSpec::builder()
                                   .add_sram(small("a", 64, 16))
                                   .add_sram(small("b", 32, 8))
                                   .defect_rate(0.02)
                                   .seed(7));
  EXPECT_GT(report.injected_faults, 0u);
  // March CW+NWRTM sees every injected class except some stuck-open cells
  // (cell_open defects translate to TF or SOF); recall stays high.
  EXPECT_GE(report.overall_recall(), 0.85);
  EXPECT_EQ(report.result.iterations, 1u);
}

TEST(Spec, ReportEchoesTheSpec) {
  const auto report = run_spec(SessionSpec::builder()
                                   .add_sram(small("a", 32, 8))
                                   .defect_rate(0.02)
                                   .seed(7));
  EXPECT_EQ(report.seed, 7u);
  EXPECT_DOUBLE_EQ(report.defect_rate, 0.02);
  EXPECT_EQ(report.scheme_name, "fast");
}

TEST(Spec, DeterministicUnderSeed) {
  const auto run = [] {
    return run_spec(SessionSpec::builder()
                        .add_sram(small("a", 64, 16))
                        .defect_rate(0.02)
                        .seed(99));
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.injected_faults, b.injected_faults);
  EXPECT_EQ(a.result.time.cycles, b.result.time.cycles);
  EXPECT_EQ(a.result.log.distinct_cell_count(),
            b.result.log.distinct_cell_count());
}

TEST(Spec, FastBeatsBaselineOnTheSameSoc) {
  const auto run = [](const std::string& scheme) {
    return run_spec(SessionSpec::builder()
                        .add_sram(small("a", 32, 8, 32))
                        .defect_rate(0.25)  // enough faults to overflow
                        .include_retention_faults(false)
                        .seed(5)
                        .scheme(scheme));
  };
  const auto fast = run("fast-without-drf");
  const auto baseline = run("baseline");
  EXPECT_LT(fast.total_ns, baseline.total_ns);
  EXPECT_GT(baseline.result.iterations, 1u);
  EXPECT_EQ(fast.result.iterations, 1u);
}

TEST(Spec, RetentionFaultsNeedTheRightScheme) {
  const auto run = [](const std::string& scheme) {
    return run_spec(SessionSpec::builder()
                        .add_sram(small("a", 32, 8, 32))
                        .defect_rate(0.01)
                        .include_retention_faults(true)
                        .retention_fraction(1.0)  // plenty of DRFs
                        .seed(13)
                        .scheme(scheme));
  };
  // March CW without NWRTM: the DRFs stay invisible.
  const auto blind = run("fast-without-drf");
  // With NWRTM everything shows.
  const auto seeing = run("fast");
  EXPECT_GT(seeing.result.log.distinct_cell_count(),
            blind.result.log.distinct_cell_count());
  // The baseline needs the 200 ms pauses for the same coverage.
  const auto delay = run("baseline-with-retention");
  EXPECT_GT(delay.result.time.pause_ns, 0u);
  EXPECT_EQ(seeing.result.time.pause_ns, 0u);
}

TEST(Spec, RepairFlowVerifiesClean) {
  const auto report = run_spec(SessionSpec::builder()
                                   .add_sram(small("a", 64, 8, 64))
                                   .defect_rate(0.01)
                                   .seed(3)
                                   .with_repair(true));
  ASSERT_TRUE(report.repair.has_value());
  EXPECT_TRUE(report.repair->fully_repairable());
  EXPECT_TRUE(report.repair_verified_clean);
}

TEST(Spec, ColumnSpareRepairFlow) {
  auto config = small("a", 32, 8, 2);
  config.spare_cols = 4;
  const auto report = run_spec(SessionSpec::builder()
                                   .add_sram(config)
                                   .defect_rate(0.02)
                                   .include_retention_faults(false)
                                   .seed(8)
                                   .with_repair(true)
                                   .use_column_spares(true));
  ASSERT_TRUE(report.repair_2d.has_value());
  EXPECT_FALSE(report.repair.has_value());
  EXPECT_NE(report.summary().find("spare cols used:"), std::string::npos);
}

TEST(Spec, SummaryMentionsTheKeyNumbers) {
  const auto report = run_spec(SessionSpec::builder()
                                   .add_sram(small("a", 32, 8))
                                   .defect_rate(0.02)
                                   .seed(1));
  const auto text = report.summary();
  EXPECT_NE(text.find("scheme:"), std::string::npos);
  EXPECT_NE(text.find("recall:"), std::string::npos);
  EXPECT_NE(text.find("diagnosis time:"), std::string::npos);
}

TEST(Spec, RebuildDerivesVariants) {
  const auto base = SessionSpec::builder()
                        .add_sram(small("a", 32, 8))
                        .defect_rate(0.02)
                        .seed(1)
                        .build();
  ASSERT_TRUE(base.has_value());
  const auto variant = base.value().rebuild().seed(2).build();
  ASSERT_TRUE(variant.has_value());
  EXPECT_EQ(variant.value().seed(), 2u);
  EXPECT_EQ(variant.value().configs().size(), 1u);
  EXPECT_DOUBLE_EQ(variant.value().injection().cell_defect_rate, 0.02);
  // The original spec is untouched — specs are values.
  EXPECT_EQ(base.value().seed(), 1u);
}

TEST(Version, Exposed) {
  EXPECT_STREQ(version(), "2.1.0");
  EXPECT_EQ(kVersionMajor, 2);
}

}  // namespace
}  // namespace fastdiag::core
