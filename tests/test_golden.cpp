// Golden-trace regression tests: the diagnosis log of a fixed seed is part
// of the observable contract.
//
// Each scenario runs a scheme over a deterministically injected SoC and
// compares the serialized trace byte-exactly against tests/golden/*.log.
// The paper's tables (E1-E9, core/paper_tables.h) are pinned the same way
// against tests/golden/paper_tables.txt.
// The traces are portable because every random draw goes through the
// project's own xoshiro256** Rng (see util/rng.h) — no standard-library
// distribution is involved anywhere in the pipeline.
//
// Regenerating after an *intentional* trace change:
//
//   $ ./test_golden --regen         # rewrites tests/golden/* in the
//                                   # source tree, then re-checks
//
// (FASTDIAG_REGEN_GOLDEN=1 in the environment works too, e.g. through
// ctest.)  Review the diff like any other contract change: record fields,
// cycle accounting and injection draws all land in these files.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bisd/periodic_scan.h"
#include "core/fastdiag.h"
#include "core/paper_tables.h"

namespace fastdiag {
namespace {

bool g_regen = false;

std::string golden_dir() { return std::string(FASTDIAG_TESTS_DIR) + "/golden"; }

/// The serialized trace: a stats preamble plus the full record CSV.
std::string serialize(const bisd::DiagnosisResult& result) {
  std::ostringstream out;
  out << "cycles=" << result.time.cycles << " pauses_ns="
      << result.time.pause_ns << " iterations=" << result.iterations
      << " records=" << result.log.records().size() << "\n";
  out << result.log.to_csv();
  return out.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void check_golden(const std::string& name, const std::string& trace) {
  const std::string path = golden_dir() + "/" + name;
  if (g_regen) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << trace;
  }
  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty())
      << path << " missing or empty — run `./test_golden --regen`";
  EXPECT_EQ(trace, expected)
      << name << " diverged from its golden trace; if the change is "
      << "intentional, regenerate with `./test_golden --regen` and review "
      << "the diff";
}

/// The fixed heterogeneous SoC every scenario injects into.
std::vector<sram::SramConfig> golden_configs() {
  std::vector<sram::SramConfig> configs;
  const auto add = [&configs](const char* name, std::uint32_t words,
                              std::uint32_t bits) {
    sram::SramConfig config;
    config.name = name;
    config.words = words;
    config.bits = bits;
    config.spare_rows = 4;
    configs.push_back(config);
  };
  add("fifo", 24, 18);
  add("lut", 12, 9);
  add("tag", 16, 12);
  return configs;
}

bisd::SocUnderTest golden_soc(std::uint64_t seed, bool retention) {
  faults::InjectionSpec spec;
  spec.cell_defect_rate = 0.03;
  spec.include_retention = retention;
  return bisd::SocUnderTest::from_injection(golden_configs(), spec, seed);
}

TEST(GoldenTrace, FastSchemeSeed7) {
  auto soc = golden_soc(7, /*retention=*/true);
  bisd::FastScheme scheme;
  check_golden("fast_seed7.log", serialize(scheme.diagnose(soc)));
}

TEST(GoldenTrace, FastSchemeWithoutDrfSeed3) {
  auto soc = golden_soc(3, /*retention=*/false);
  bisd::FastSchemeOptions options;
  options.include_drf = false;
  bisd::FastScheme scheme(options);
  check_golden("fast_nodrf_seed3.log", serialize(scheme.diagnose(soc)));
}

TEST(GoldenTrace, BaselineSchemeSeed5) {
  auto soc = golden_soc(5, /*retention=*/false);
  bisd::BaselineScheme scheme;
  check_golden("baseline_seed5.log", serialize(scheme.diagnose(soc)));
}

/// Every memory's simulated clock and port traffic, one line each: the
/// state a scheme leaves behind beyond its log.
std::string serialize_memories(bisd::SocUnderTest& soc) {
  std::ostringstream out;
  for (std::size_t i = 0; i < soc.memory_count(); ++i) {
    const auto& memory = soc.memory(i);
    out << "memory=" << i << " now_ns=" << memory.now_ns()
        << " reads=" << memory.counters().reads
        << " writes=" << memory.counters().writes
        << " nwrc_writes=" << memory.counters().nwrc_writes << "\n";
  }
  return out.str();
}

/// A SoC that drives both FastScheme paths: two wrap-free and wrapping
/// sliced groups, a lone wrapping memory, and two memories without idle
/// mode (one of a group's geometry, one of its own).  The short retention
/// of some memories makes their DRFs, and so the log, depend on when each
/// access happens.
bisd::SocUnderTest sliced_idle_less_soc(std::uint64_t seed) {
  std::vector<sram::SramConfig> configs;
  const auto add = [&configs](const std::string& name, std::uint32_t words,
                              std::uint32_t bits, bool idle,
                              std::uint64_t retention_ns) {
    sram::SramConfig config;
    config.name = name;
    config.words = words;
    config.bits = bits;
    config.has_idle_mode = idle;
    config.spare_rows = 4;
    config.retention_ns = retention_ns;
    configs.push_back(config);
  };
  for (int i = 0; i < 3; ++i) {
    add("row" + std::to_string(i), 32, 12, true, 50'000'000);
  }
  for (int i = 0; i < 4; ++i) {
    add("tag" + std::to_string(i), 20, 10, true, 3'000);
  }
  add("busy", 20, 10, /*idle=*/false, 3'000);
  add("lut", 12, 7, /*idle=*/false, 2'000);
  add("fifo", 24, 16, true, 50'000'000);
  faults::InjectionSpec spec;
  spec.cell_defect_rate = 0.02;
  spec.include_retention = true;
  return bisd::SocUnderTest::from_injection(configs, spec, seed);
}

/// periodic_scan over the mixed-depth golden SoC (the 12- and 16-word
/// memories wrap the 24-word sweep) with ECC and 10 % intermittents, under
/// every scrub policy: fault-free, and at 1 %, where each memory with a
/// defect takes the full sweep.  Pinned beyond the log: the scrub count and
/// every memory's clock, op counters, sense latch, ECC statistics and
/// escaped cells.
TEST(GoldenTrace, PeriodicScanScrubPoliciesSeed17) {
  std::ostringstream out;
  for (const double rate : {0.0, 0.01}) {
    for (const auto policy :
         {faults::ScrubPolicy::none, faults::ScrubPolicy::on_detect,
          faults::ScrubPolicy::periodic}) {
      faults::SoftErrorSpec soft;
      soft.enabled = true;
      soft.mean_upset_gap_ns = 4'000;
      soft.duration_ns = 200'000;
      soft.scan_period_ns = 10'000;
      soft.intermittent_fraction = 0.1;
      soft.ecc = true;
      soft.scrub = policy;
      faults::InjectionSpec injection;
      injection.cell_defect_rate = rate;
      auto soc = bisd::SocUnderTest::from_injection(golden_configs(),
                                                    injection, 17, &soft);
      bisd::PeriodicScanScheme scheme({.soft = soft});
      const auto result = scheme.diagnose(soc);
      out << "defect_rate=" << rate
          << " scrub=" << faults::scrub_policy_name(policy)
          << " scrub_writes=" << scheme.scan_info()->scrub_writes << "\n";
      out << serialize(result) << serialize_memories(soc);
      for (std::size_t i = 0; i < soc.memory_count(); ++i) {
        auto& memory = soc.memory(i);
        auto* layer = soc.soft_behavior(i);
        const auto& ecc = layer->ecc_stats();
        out << "memory=" << i << " faults=" << soc.truth(i).size()
            << " latch=" << memory.sense_latch().to_string()
            << " ecc_corrected=" << ecc.corrected
            << " ecc_miscorrected=" << ecc.miscorrected
            << " ecc_uncorrectable=" << ecc.uncorrectable << " escaped="
            << layer->escaped_cells(memory.cells_mut(), memory.now_ns())
            << "\n";
      }
    }
  }
  check_golden("periodic_scan_seed17.log", out.str());
}

TEST(GoldenTrace, FastSchemeSlicedAndIdleLessSeed13) {
  // Diagnose, repair the diagnosed rows, retest: the repaired memories stay
  // lanes of their groups, so the retest runs sliced with their repaired
  // addresses on spare arena rows.  Pinned beyond the log: every memory's
  // clock and op counters after each run.
  auto soc = sliced_idle_less_soc(13);
  ASSERT_EQ(soc.slice_groups().size(), 2u);
  bisd::FastScheme scheme;
  std::ostringstream out;
  const auto first = scheme.diagnose(soc);
  out << serialize(first) << serialize_memories(soc);
  const auto plan = bisd::plan_repair(first.log, soc);
  bisd::apply_repair(soc, plan);
  out << "repaired_rows=" << plan.repaired_row_count()
      << " unrepaired_rows=" << plan.unrepaired_row_count() << "\n";
  out << serialize(scheme.diagnose(soc)) << serialize_memories(soc);
  check_golden("fast_sliced_idle_less_seed13.log", out.str());
}

/// A SoC whose words cross the comparator's 64-bit batches: a sliced group
/// of three identical 72-bit memories, a lone 136-bit port (the widest, so
/// every read shifts out three batches) and a 9-bit memory that wraps the
/// 20-step sweep, DRFs on.  The log holds records in all three batches, so
/// it pins record order across a batch boundary, within a word and between
/// memories that share a read.
bisd::SocUnderTest wide_word_soc(std::uint64_t seed) {
  std::vector<sram::SramConfig> configs;
  const auto add = [&configs](const std::string& name, std::uint32_t words,
                              std::uint32_t bits) {
    sram::SramConfig config;
    config.name = name;
    config.words = words;
    config.bits = bits;
    config.spare_rows = 4;
    configs.push_back(config);
  };
  for (int i = 0; i < 3; ++i) {
    add("wide" + std::to_string(i), 16, 72);
  }
  add("bus", 20, 136);
  add("lut", 8, 9);
  faults::InjectionSpec spec;
  spec.cell_defect_rate = 0.004;
  spec.include_retention = true;
  return bisd::SocUnderTest::from_injection(configs, spec, seed);
}

TEST(GoldenTrace, FastSchemeWideWordsSeed110) {
  auto soc = wide_word_soc(110);
  ASSERT_EQ(soc.slice_groups().size(), 1u);
  bisd::FastScheme scheme;
  const auto result = scheme.diagnose(soc);
  check_golden("fast_wide_words_seed110.log",
               serialize(result) + serialize_memories(soc));
}

/// A wrapped classification SoC: the 64-word memory sets the controller
/// sweep; the 48- and 40-word memories wrap it with a partial remainder,
/// the 32- and 16-word ones wrap it a whole number of times, and the
/// 3 us twin of the 40-word memory holds data for less than one run.
std::vector<sram::SramConfig> wrapped_classify_configs() {
  std::vector<sram::SramConfig> configs;
  const auto add = [&configs](const char* name, std::uint32_t words,
                              std::uint32_t bits,
                              std::uint64_t retention_ns = 50'000'000) {
    sram::SramConfig config;
    config.name = name;
    config.words = words;
    config.bits = bits;
    config.spare_rows = 4;
    config.retention_ns = retention_ns;
    configs.push_back(config);
  };
  add("full", 64, 8);
  add("rem16", 48, 8);
  add("rem24", 40, 6);
  add("rem24_short", 40, 6, 3'000);
  add("even32", 32, 8);
  add("even16", 16, 4);
  return configs;
}

/// The engine's classification pass over the wrapped SoC at 3 % + DRFs.
core::Report classify_wrapped(std::uint64_t seed) {
  const auto spec = core::SessionSpec::builder()
                        .add_srams(wrapped_classify_configs())
                        .defect_rate(0.03)
                        .include_retention_faults(true)
                        .classify(true)
                        .seed(seed)
                        .build();
  EXPECT_TRUE(spec.has_value());
  return core::DiagnosisEngine::execute(spec.value());
}

TEST(GoldenTrace, WrappedClassificationSeeds1To4) {
  // Every site verdict of the engine's classification pass (kinds,
  // confidences, aggressor placements and bits), DRFs included.
  std::ostringstream out;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const auto report = classify_wrapped(seed);
    ASSERT_TRUE(report.classification.has_value());
    out << "seed=" << seed << " records=" << report.result.log.records().size()
        << "\n";
    for (const auto& memory : report.classification->memories) {
      out << memory.to_string();
    }
  }
  check_golden("classify_wrapped_seeds1_4.log", out.str());
}

TEST(WrappedClassification, HypothesesNameEachAggressorBitOnce) {
  // Several representative aggressor rows can probe the same bit; exact
  // and partial matches alike list it once per hypothesis.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const auto report = classify_wrapped(seed);
    ASSERT_TRUE(report.classification.has_value());
    for (const auto& memory : report.classification->memories) {
      for (const auto& site : memory.sites) {
        for (const auto& hypothesis : site.hypotheses) {
          auto bits = hypothesis.aggressor.candidate_bits;
          std::sort(bits.begin(), bits.end());
          EXPECT_EQ(std::adjacent_find(bits.begin(), bits.end()), bits.end())
              << "seed " << seed << ", " << memory.to_string();
        }
      }
    }
  }
}

TEST(GoldenTrace, EngineReportSeed11) {
  // One spec end-to-end through the engine, repair included: the record
  // stream, the cycle count and the repair plan are all pinned.
  const auto spec = core::SessionSpec::builder()
                        .add_srams(golden_configs())
                        .defect_rate(0.03)
                        .seed(11)
                        .with_repair(true)
                        .build();
  ASSERT_TRUE(spec.has_value());
  const auto report = core::DiagnosisEngine::execute(spec.value());
  std::ostringstream out;
  out << serialize(report.result);
  out << "repaired_rows=" << report.repair->repaired_row_count()
      << " unrepaired_rows=" << report.repair->unrepaired_row_count()
      << " verified_clean=" << (report.repair_verified_clean ? 1 : 0)
      << "\n";
  check_golden("engine_seed11.log", out.str());
}

TEST(GoldenTrace, PaperTables) {
  std::ostringstream out;
  core::print_paper_tables(out);
  check_golden("paper_tables.txt", out.str());
}

}  // namespace
}  // namespace fastdiag

/// Custom main: gtest_main cannot learn flags, and the regen escape hatch
/// must be a first-class, documented switch.
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--regen") {
      fastdiag::g_regen = true;
    }
  }
  if (std::getenv("FASTDIAG_REGEN_GOLDEN") != nullptr) {
    fastdiag::g_regen = true;
  }
  return RUN_ALL_TESTS();
}
