// Tests for the in-field soft-error subsystem: the SEC Hamming codec, the
// seeded upset-event generator, the SoftErrorBehavior layer (transient
// flips, intermittent pins, ECC masking and miscorrection), the
// periodic_scan scheme end to end through the engine (window resolution,
// scrub policies, worker bit-identity; on a small SoC and at the 8-memory
// in-field operating point), spec validation of the new knobs,
// and the v2 serialization of the soft-error outcome.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bisd/periodic_scan.h"
#include "core/fastdiag.h"
#include "service/serialize.h"
#include "sram/ecc.h"

namespace fastdiag {
namespace {

using faults::ScrubPolicy;
using faults::SoftErrorSpec;
using faults::UpsetEvent;
using faults::UpsetKind;
using sram::CellCoord;
using sram::EccCodec;
using sram::SramConfig;

SramConfig geometry(const std::string& name, std::uint32_t words,
                    std::uint32_t bits) {
  SramConfig config;
  config.name = name;
  config.words = words;
  config.bits = bits;
  return config;
}

// ---- EccCodec --------------------------------------------------------------

TEST(EccCodec, CheckBitCountMatchesTheHammingBound) {
  EXPECT_EQ(EccCodec::check_bits_for(1), 2u);
  EXPECT_EQ(EccCodec::check_bits_for(4), 3u);
  EXPECT_EQ(EccCodec::check_bits_for(8), 4u);
  EXPECT_EQ(EccCodec::check_bits_for(11), 4u);
  EXPECT_EQ(EccCodec::check_bits_for(16), 5u);
  EXPECT_EQ(EccCodec::check_bits_for(26), 5u);
  EXPECT_EQ(EccCodec::check_bits_for(32), 6u);
}

TEST(EccCodec, CleanWordsDecodeClean) {
  Rng rng(7);
  for (const std::uint32_t width : {4u, 8u, 16u, 21u, 32u}) {
    const EccCodec codec(width);
    BitVector data(width);
    for (std::uint32_t b = 0; b < width; ++b) {
      data.set(b, rng.bernoulli(0.5));
    }
    BitVector copy = data;
    const auto decode = codec.decode(copy, codec.encode(data));
    EXPECT_EQ(decode.outcome, EccCodec::DecodeOutcome::clean) << width;
    EXPECT_EQ(decode.syndrome, 0u) << width;
    EXPECT_EQ(copy, data) << width;
  }
}

TEST(EccCodec, EverySingleDataBitErrorIsCorrectedInPlace) {
  Rng rng(11);
  for (const std::uint32_t width : {4u, 8u, 16u, 21u, 32u}) {
    const EccCodec codec(width);
    BitVector data(width);
    for (std::uint32_t b = 0; b < width; ++b) {
      data.set(b, rng.bernoulli(0.5));
    }
    const std::uint32_t check = codec.encode(data);
    for (std::uint32_t upset = 0; upset < width; ++upset) {
      BitVector corrupted = data;
      corrupted.flip(upset);
      const auto decode = codec.decode(corrupted, check);
      EXPECT_EQ(decode.outcome, EccCodec::DecodeOutcome::corrected_data)
          << width << ":" << upset;
      EXPECT_EQ(decode.bit, static_cast<std::int32_t>(upset))
          << width << ":" << upset;
      EXPECT_EQ(corrupted, data) << width << ":" << upset;
    }
  }
}

TEST(EccCodec, EverySingleCheckBitErrorIsIdentifiedWithoutTouchingData) {
  const std::uint32_t width = 16;
  const EccCodec codec(width);
  BitVector data(width);
  data.set(3, true);
  data.set(9, true);
  const std::uint32_t check = codec.encode(data);
  for (std::uint32_t k = 0; k < codec.check_bits(); ++k) {
    BitVector copy = data;
    const auto decode = codec.decode(copy, check ^ (1u << k));
    EXPECT_EQ(decode.outcome, EccCodec::DecodeOutcome::corrected_check) << k;
    EXPECT_EQ(decode.bit, static_cast<std::int32_t>(k)) << k;
    EXPECT_EQ(copy, data) << k;
  }
}

TEST(EccCodec, DoubleDataErrorsNeverDecodeToTheWrittenWord) {
  // Patel's problem: a SEC code treats every nonzero syndrome as a single
  // error, so two flips either alias to a confident wrong correction or
  // land outside the code — never back on the written word.
  const std::uint32_t width = 16;
  const EccCodec codec(width);
  BitVector data(width);
  data.set(5, true);
  const std::uint32_t check = codec.encode(data);
  for (std::uint32_t a = 0; a < width; ++a) {
    for (std::uint32_t b = a + 1; b < width; ++b) {
      BitVector corrupted = data;
      corrupted.flip(a);
      corrupted.flip(b);
      const auto decode = codec.decode(corrupted, check);
      EXPECT_NE(decode.outcome, EccCodec::DecodeOutcome::clean)
          << a << "," << b;
      EXPECT_NE(corrupted, data) << a << "," << b;
    }
  }
}

// ---- generate_upsets -------------------------------------------------------

SoftErrorSpec enabled_spec() {
  SoftErrorSpec soft;
  soft.enabled = true;
  return soft;
}

TEST(GenerateUpsets, SameSeedDrawsTheSameSortedInRangeStream) {
  const auto config = geometry("gen", 64, 16);
  const auto soft = enabled_spec();
  Rng a(99);
  Rng b(99);
  const auto first = faults::generate_upsets(config, soft, a);
  const auto second = faults::generate_upsets(config, soft, b);
  EXPECT_EQ(first, second);
  ASSERT_FALSE(first.empty());
  std::uint64_t previous = 0;
  for (const auto& event : first) {
    EXPECT_GE(event.time_ns, previous);
    EXPECT_LE(event.time_ns, soft.duration_ns);
    EXPECT_LT(event.cell.row, config.words);
    EXPECT_LT(event.cell.bit, config.bits);  // no ECC: data columns only
    EXPECT_EQ(event.kind, UpsetKind::transient);
    previous = event.time_ns;
  }
  // ~duration / mean_gap events; allow wide slack, but the stream must be
  // dense enough to exercise the sweeps.
  EXPECT_GT(first.size(), 20u);
  EXPECT_LT(first.size(), 100u);
}

TEST(GenerateUpsets, IntermittentFractionProducesHeldEvents) {
  const auto config = geometry("gen", 64, 16);
  auto soft = enabled_spec();
  soft.intermittent_fraction = 1.0;
  Rng rng(5);
  const auto events = faults::generate_upsets(config, soft, rng);
  ASSERT_FALSE(events.empty());
  for (const auto& event : events) {
    EXPECT_EQ(event.kind, UpsetKind::intermittent);
    EXPECT_EQ(event.hold_ns, soft.intermittent_hold_ns);
  }
}

TEST(GenerateUpsets, EccSpreadsEventsIntoCheckColumns) {
  const auto config = geometry("gen", 64, 8);
  auto soft = enabled_spec();
  soft.ecc = true;
  soft.mean_upset_gap_ns = 1'000;  // dense stream so check hits are certain
  Rng rng(3);
  const auto events = faults::generate_upsets(config, soft, rng);
  const std::uint32_t check_bits = EccCodec::check_bits_for(config.bits);
  bool saw_check_column = false;
  for (const auto& event : events) {
    EXPECT_LT(event.cell.bit, config.bits + check_bits);
    if (event.cell.bit >= config.bits) {
      saw_check_column = true;
      // Check storage has no read path to pin: always transient.
      EXPECT_EQ(event.kind, UpsetKind::transient);
    }
  }
  EXPECT_TRUE(saw_check_column);
}

// ---- SoftErrorBehavior -----------------------------------------------------

/// One 8x8 in-field memory with handcrafted events, zero static defects.
bisd::SocUnderTest field_soc(std::vector<UpsetEvent> events,
                             const SoftErrorSpec& soft) {
  bisd::SocUnderTest soc;
  soc.add_in_field_memory(geometry("field", 8, 8), {}, std::move(events),
                          soft);
  return soc;
}

void write_zeros(sram::Sram& memory) {
  const BitVector zero(memory.bits());
  for (std::uint32_t addr = 0; addr < memory.words(); ++addr) {
    memory.write(addr, zero);
  }
}

TEST(SoftErrorBehavior, TransientFlipAppearsAtItsTimestampAndScrubsAway) {
  auto soc = field_soc(
      {{.time_ns = 100, .cell = {2, 3}, .kind = UpsetKind::transient}},
      enabled_spec());
  auto& memory = soc.memory(0);
  write_zeros(memory);

  memory.advance_time_ns(99);
  EXPECT_EQ(memory.read(2).popcount(), 0u) << "upset visible before its time";

  memory.advance_time_ns(1);  // now == event time: flip committed
  EXPECT_TRUE(memory.read(2).get(3));
  EXPECT_EQ(memory.read(2).popcount(), 1u);

  memory.write(2, BitVector(memory.bits()));  // scrub
  EXPECT_EQ(memory.read(2).popcount(), 0u);
  memory.advance_time_ns(1'000'000);
  EXPECT_EQ(memory.read(2).popcount(), 0u) << "scrubbed flip returned";
}

TEST(SoftErrorBehavior, IntermittentPinSelfClearsWithoutScrubbing) {
  auto soc = field_soc({{.time_ns = 100,
                         .cell = {1, 0},
                         .kind = UpsetKind::intermittent,
                         .hold_ns = 50}},
                       enabled_spec());
  auto& memory = soc.memory(0);
  write_zeros(memory);

  memory.advance_time_ns(120);  // inside [100, 150)
  EXPECT_TRUE(memory.read(1).get(0));

  memory.advance_time_ns(30);  // t = 150: hold expired, no scrub issued
  EXPECT_FALSE(memory.read(1).get(0));
  EXPECT_EQ(soc.soft_behavior(0)->escaped_cells(memory.cells_mut(),
                                                memory.now_ns()),
            0u);
}

TEST(SoftErrorBehavior, EccMasksSingleUpsetsAndCountsTheCorrection) {
  auto soft = enabled_spec();
  soft.ecc = true;
  auto soc = field_soc(
      {{.time_ns = 10, .cell = {0, 2}, .kind = UpsetKind::transient}}, soft);
  auto& memory = soc.memory(0);
  auto* behavior = soc.soft_behavior(0);
  write_zeros(memory);

  memory.advance_time_ns(20);
  EXPECT_EQ(memory.read(0).popcount(), 0u) << "single upset not masked";
  EXPECT_EQ(behavior->ecc_stats().corrected, 1u);
  EXPECT_EQ(behavior->ecc_stats().miscorrected, 0u);
  EXPECT_TRUE(behavior->last_read_corrected());
  EXPECT_EQ(behavior->escaped_cells(memory.cells_mut(), memory.now_ns()),
            0u);
}

TEST(SoftErrorBehavior, DoubleUpsetsInOneWordEscapeTheEccAsMiscorrection) {
  auto soft = enabled_spec();
  soft.ecc = true;
  auto soc = field_soc(
      {{.time_ns = 10, .cell = {0, 2}, .kind = UpsetKind::transient},
       {.time_ns = 11, .cell = {0, 5}, .kind = UpsetKind::transient}},
      soft);
  auto& memory = soc.memory(0);
  auto* behavior = soc.soft_behavior(0);
  write_zeros(memory);

  memory.advance_time_ns(20);
  EXPECT_NE(memory.read(0).popcount(), 0u)
      << "double error decoded back to the written word";
  const auto& stats = behavior->ecc_stats();
  EXPECT_GE(stats.miscorrected + stats.uncorrectable, 1u);
  EXPECT_GT(behavior->escaped_cells(memory.cells_mut(), memory.now_ns()),
            0u);
}

TEST(SoftErrorBehavior, PerCellAndWordKernelsSeeIdenticalEccAccounting) {
  auto soft = enabled_spec();
  soft.ecc = true;
  const std::vector<UpsetEvent> events = {
      {.time_ns = 10, .cell = {0, 2}, .kind = UpsetKind::transient},
      {.time_ns = 12, .cell = {3, 1}, .kind = UpsetKind::transient},
      {.time_ns = 15, .cell = {3, 6}, .kind = UpsetKind::transient},
  };
  std::vector<BitVector> reads[2];
  faults::SoftErrorBehavior::EccStats stats[2];
  const sram::AccessKernel kernels[2] = {sram::AccessKernel::per_cell,
                                         sram::AccessKernel::word_parallel};
  for (int k = 0; k < 2; ++k) {
    auto soc = field_soc(events, soft);
    auto& memory = soc.memory(0);
    memory.set_access_kernel(kernels[k]);
    write_zeros(memory);
    memory.advance_time_ns(20);
    for (std::uint32_t addr = 0; addr < memory.words(); ++addr) {
      reads[k].push_back(memory.read(addr));
    }
    stats[k] = soc.soft_behavior(0)->ecc_stats();
  }
  EXPECT_EQ(reads[0], reads[1]);
  EXPECT_EQ(stats[0], stats[1]);
}

// ---- periodic_scan through the engine --------------------------------------

/// A periodic_scan workload every PeriodicScan test runs.
struct ScanWorkload {
  std::string name;
  std::vector<SramConfig> memories;
  SoftErrorSpec soft;
  std::uint64_t seed = 7;
  /// Runs (seed, knobs) whose serial and 8-worker reports must encode
  /// byte-identically.
  std::vector<std::pair<std::uint64_t, SoftErrorSpec>> replays;
};

/// Two small memories at the default upset rate.
ScanWorkload two_memories() {
  ScanWorkload workload{"TwoMemories",
                        {geometry("ifa", 64, 16), geometry("ifb", 48, 12)},
                        enabled_spec(),
                        7,
                        {}};
  auto replay = enabled_spec();
  replay.intermittent_fraction = 0.2;
  replay.ecc = true;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    workload.replays.emplace_back(seed, replay);
  }
  return workload;
}

/// The in-field operating point (perfbench's infield_scan): 8 x 256x32
/// memories, an upset every 2 us per memory (10 % intermittent), scanned
/// every 10 us for 1 ms with on_detect scrubbing.  FASTDIAG_SOFT_STRESS=1
/// stretches the window 10x and quadruples the upset rate.
ScanWorkload field_soc() {
  const char* env = std::getenv("FASTDIAG_SOFT_STRESS");
  const bool stress = env != nullptr && env[0] == '1';
  ScanWorkload workload{stress ? "FieldSocStress" : "FieldSoc", {},
                        enabled_spec(), 20260807, {}};
  for (int m = 0; m < 8; ++m) {
    workload.memories.push_back(
        geometry("field" + std::to_string(m), 256, 32));
  }
  auto& soft = workload.soft;
  soft.mean_upset_gap_ns = stress ? 500 : 2'000;
  soft.duration_ns = stress ? 10'000'000 : 1'000'000;
  soft.scan_period_ns = 10'000;
  soft.intermittent_fraction = 0.1;
  soft.scrub = ScrubPolicy::on_detect;
  auto ecc = soft;
  ecc.ecc = true;
  workload.replays = {{1, soft}, {2, ecc}};
  return workload;
}

core::SessionSpec in_field_spec(const std::vector<SramConfig>& memories,
                                const SoftErrorSpec& soft,
                                std::uint64_t seed) {
  auto spec = core::SessionSpec::builder()
                  .add_srams(memories)
                  .defect_rate(0.0)
                  .seed(seed)
                  .scheme("periodic_scan")
                  .soft_error(soft)
                  .build();
  EXPECT_TRUE(spec.has_value()) << spec.error().to_string();
  return std::move(spec).value();
}

class PeriodicScan : public ::testing::TestWithParam<ScanWorkload> {
 protected:
  [[nodiscard]] core::SessionSpec spec(const SoftErrorSpec& soft) const {
    return spec(soft, GetParam().seed);
  }

  [[nodiscard]] core::SessionSpec spec(const SoftErrorSpec& soft,
                                       std::uint64_t seed) const {
    return in_field_spec(GetParam().memories, soft, seed);
  }

  [[nodiscard]] const SoftErrorSpec& soft() const { return GetParam().soft; }
};

TEST_P(PeriodicScan, ResolvesTransientsToTheirScanWindows) {
  const auto report = core::DiagnosisEngine::execute(spec(soft()));
  ASSERT_TRUE(report.soft_error.has_value());
  const auto& outcome = *report.soft_error;

  EXPECT_EQ(outcome.scan_sweeps, soft().duration_ns / soft().scan_period_ns);
  EXPECT_GT(outcome.scored_upsets, 0u);
  EXPECT_LE(outcome.scored_upsets, outcome.transient_upsets);
  EXPECT_LE(outcome.transient_upsets, outcome.injected_upsets);
  EXPECT_LE(outcome.correct_window, outcome.detected_upsets);
  EXPECT_LE(outcome.detected_upsets, outcome.scored_upsets);

  // The acceptance bar: >= 95 % of scored transients resolve to exactly
  // the scan window that covers their event time.
  EXPECT_GE(outcome.resolution_rate(), 0.95);
  EXPECT_GE(outcome.detection_rate(), 0.95);
  // on_detect scrubbing (the default) keeps the residual small.
  EXPECT_GT(outcome.scrub_writes, 0u);
  EXPECT_LT(outcome.escape_rate(), 0.25);
}

TEST_P(PeriodicScan, EccMasksSingleUpsetsFromTheComparator) {
  auto ecc = soft();
  ecc.ecc = true;
  const auto report = core::DiagnosisEngine::execute(spec(ecc));
  ASSERT_TRUE(report.soft_error.has_value());
  const auto& outcome = *report.soft_error;

  // With on-die ECC the decoder silently corrects single upsets before the
  // comparator sees them: correction activity replaces comparator hits.
  EXPECT_GT(outcome.ecc_corrected, 0u);
  EXPECT_LT(outcome.detection_rate(), 0.5);

  const auto no_ecc = core::DiagnosisEngine::execute(spec(soft()));
  EXPECT_LT(outcome.detected_upsets, no_ecc.soft_error->detected_upsets);
  EXPECT_LT(outcome.detection_rate(), no_ecc.soft_error->detection_rate());
}

TEST_P(PeriodicScan, ScrubPolicyNoneLetsUpsetsAccumulate) {
  auto none = soft();
  none.scrub = ScrubPolicy::none;
  const auto report_none = core::DiagnosisEngine::execute(spec(none));
  const auto report_scrub = core::DiagnosisEngine::execute(spec(soft()));
  ASSERT_TRUE(report_none.soft_error.has_value());
  ASSERT_TRUE(report_scrub.soft_error.has_value());

  EXPECT_EQ(report_none.soft_error->scrub_writes, 0u);
  EXPECT_GT(report_none.soft_error->escaped_cells, 0u);
  EXPECT_GE(report_none.soft_error->escaped_cells,
            report_scrub.soft_error->escaped_cells);

  auto periodic = soft();
  periodic.scrub = ScrubPolicy::periodic;
  const auto report_periodic = core::DiagnosisEngine::execute(spec(periodic));
  // Periodic scrubbing rewrites every word every sweep.
  EXPECT_GE(report_periodic.soft_error->scrub_writes,
            report_scrub.soft_error->scrub_writes);
  EXPECT_LE(report_periodic.soft_error->escaped_cells,
            report_none.soft_error->escaped_cells);
}

TEST_P(PeriodicScan, SerialAndEightWorkerRunsEncodeByteIdentical) {
  std::vector<core::SessionSpec> specs;
  for (const auto& [seed, replay] : GetParam().replays) {
    specs.push_back(spec(replay, seed));
  }
  const auto serial = core::DiagnosisEngine({.workers = 1}).run_batch(specs);
  const auto parallel =
      core::DiagnosisEngine({.workers = 8}).run_batch(specs);
  ASSERT_EQ(serial.run_count(), specs.size());
  ASSERT_EQ(parallel.run_count(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(service::encode_report(serial.runs[i]),
              service::encode_report(parallel.runs[i]))
        << "run " << i;
  }
  EXPECT_EQ(serial.folded, parallel.folded);
}

TEST_P(PeriodicScan, AggregateSurfacesSoftErrorStats) {
  std::vector<core::SessionSpec> specs = {spec(soft(), 1), spec(soft(), 2)};
  const auto batch = core::DiagnosisEngine({.workers = 2}).run_batch(specs);
  const auto detection = batch.soft_detection_stats();
  EXPECT_GE(detection.min, 0.95);
  EXPECT_LE(detection.max, 1.0);
  EXPECT_NE(batch.summary().find("upset detection"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Workloads, PeriodicScan,
                         ::testing::Values(two_memories(), field_soc()),
                         [](const ::testing::TestParamInfo<ScanWorkload>& p) {
                           return p.param.name;
                         });

// ---- spec validation -------------------------------------------------------

TEST(SoftErrorSpecValidation, InconsistentKnobsAreRejected) {
  const auto base = core::SessionSpec::builder()
                        .add_sram(geometry("v", 32, 8))
                        .scheme("periodic_scan");
  const auto expect_invalid = [&](SoftErrorSpec soft) {
    soft.enabled = true;
    auto builder = base;
    const auto spec = builder.soft_error(soft).build();
    ASSERT_FALSE(spec.has_value());
    EXPECT_EQ(spec.error().code, core::ConfigErrorCode::invalid_soft_error);
  };
  expect_invalid({.scan_period_ns = 0});
  expect_invalid({.duration_ns = 5'000, .scan_period_ns = 10'000});
  expect_invalid({.mean_upset_gap_ns = 0});
  expect_invalid({.intermittent_fraction = 1.5});
  expect_invalid({.intermittent_fraction = 0.5, .intermittent_hold_ns = 0});
}

TEST(SoftErrorSpecValidation, SweepCountMustFitTheRecordField) {
  // Records carry the sweep index in 32 bits: 2^32 sweeps is one too many.
  constexpr std::uint64_t kMaxSweeps = 0xFFFFFFFFull;
  const auto build = [](std::uint64_t duration_ns) {
    SoftErrorSpec soft;
    soft.enabled = true;
    soft.scan_period_ns = 1;
    soft.duration_ns = duration_ns;
    return core::SessionSpec::builder()
        .add_sram(geometry("v", 32, 8))
        .scheme("periodic_scan")
        .soft_error(soft)
        .build();
  };
  EXPECT_TRUE(build(kMaxSweeps).has_value());
  const auto over = build(kMaxSweeps + 1);
  ASSERT_FALSE(over.has_value());
  EXPECT_EQ(over.error().code, core::ConfigErrorCode::invalid_soft_error);

  // Direct callers bypass build(); the scheme refuses before any sweep.
  bisd::PeriodicScanOptions options;
  options.soft.enabled = true;
  options.soft.scan_period_ns = 1;
  options.soft.duration_ns = kMaxSweeps + 1;
  bisd::PeriodicScanScheme scheme(options);
  bisd::SocUnderTest soc;
  soc.add_memory(geometry("v", 32, 8));
  EXPECT_THROW((void)scheme.diagnose(soc), std::invalid_argument);
  EXPECT_FALSE(scheme.scan_info().has_value());
}

TEST(SoftErrorSpecValidation, RepairIsAManufacturingFlowPass) {
  auto builder = core::SessionSpec::builder()
                     .add_sram(geometry("v", 32, 8))
                     .scheme("periodic_scan")
                     .soft_error(enabled_spec())
                     .with_repair(true);
  const auto spec = builder.build();
  ASSERT_FALSE(spec.has_value());
  EXPECT_EQ(spec.error().code, core::ConfigErrorCode::invalid_soft_error);
}

TEST(SoftErrorSpecValidation, SchemeAndWorkloadMustAgree) {
  // In-field scheme without the workload...
  auto bare = core::SessionSpec::builder()
                  .add_sram(geometry("v", 32, 8))
                  .scheme("periodic_scan")
                  .build();
  ASSERT_FALSE(bare.has_value());
  EXPECT_EQ(bare.error().code,
            core::ConfigErrorCode::scheme_capability_mismatch);

  // ...and the workload on a manufacturing scheme both fail at build().
  auto manufacturing = core::SessionSpec::builder()
                           .add_sram(geometry("v", 32, 8))
                           .scheme("fast")
                           .soft_error(enabled_spec())
                           .build();
  ASSERT_FALSE(manufacturing.has_value());
  EXPECT_EQ(manufacturing.error().code,
            core::ConfigErrorCode::scheme_capability_mismatch);
}

TEST(SoftErrorSpecValidation, RegistryAdvertisesTheInFieldCapability) {
  const auto& registry = core::SchemeRegistry::global();
  EXPECT_TRUE(registry.capabilities("periodic_scan").in_field);
  EXPECT_FALSE(registry.capabilities("fast").in_field);
  EXPECT_FALSE(registry.capabilities("baseline").in_field);
}

// ---- serialization ---------------------------------------------------------

TEST(SoftErrorSerialize, ReportWithOutcomeRoundTripsByteIdentical) {
  auto soft = enabled_spec();
  soft.ecc = true;
  const auto report = core::DiagnosisEngine::execute(
      in_field_spec(two_memories().memories, soft, 7));
  ASSERT_TRUE(report.soft_error.has_value());

  const auto blob = service::encode_report(report);
  const auto decoded = service::decode_report(blob.data(), blob.size());
  ASSERT_TRUE(decoded.has_value()) << decoded.error().message;
  ASSERT_TRUE(decoded.value().soft_error.has_value());
  EXPECT_EQ(decoded.value().soft_error, report.soft_error);
  EXPECT_EQ(service::encode_report(decoded.value()), blob);
}

TEST(SoftErrorSerialize, FoldedSoftMetricsSurviveTheRoundTrip) {
  const auto memories = two_memories().memories;
  std::vector<core::SessionSpec> specs = {
      in_field_spec(memories, enabled_spec(), 3),
      in_field_spec(memories, enabled_spec(), 4)};
  const auto batch = core::DiagnosisEngine({.workers = 2}).run_batch(specs);
  const auto& folded = batch.folded;

  service::ByteWriter writer;
  service::encode_folded(writer, folded);
  service::ByteReader reader(writer.data().data(), writer.size());
  core::AggregateReport::Folded decoded;
  ASSERT_TRUE(service::decode_folded(reader, decoded));
  EXPECT_TRUE(reader.finished());
  EXPECT_EQ(decoded, folded);
}

}  // namespace
}  // namespace fastdiag
