// E12 — syndrome-classification throughput on a 64-memory SoC.
//
// The classifier turns the fast scheme's diagnosis log into fault-kind
// verdicts by matching per-cell syndromes against simulated single-fault
// signatures.  The signature dictionary is built lazily and cached, so a
// production flow pays the probe simulations once per memory shape and then
// classifies at dictionary-lookup speed.  This bench measures both phases —
// cold (dictionary warm-up included) and warm (steady-state classification)
// — for both dictionary build modes: the per_candidate reference (one probe
// replay per candidate fault) and the default instance_sliced builder
// (packed candidate lanes, 64 replayed per word op).  The cold-build speedup
// and the byte-identity of the resulting verdicts are part of the emitted
// `JSON:` line, plus the closed loop (diagnose -> classify -> repair ->
// retest).
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/fastdiag.h"
#include "util/format.h"
#include "util/table.h"

namespace {

using namespace fastdiag;

/// 64 small e-SRAMs, 16 of each of 4 shapes; uniform depth keeps the
/// controller sweep wrap-free, widths differ (the widest crosses a limb).
/// The spare budget is sized so the 1% defect population is row-repairable
/// and the closed loop can end clean.
std::vector<sram::SramConfig> soc_configs() {
  std::vector<sram::SramConfig> configs;
  const auto add = [&configs](const std::string& stem, std::uint32_t bits) {
    for (int i = 0; i < 16; ++i) {
      sram::SramConfig config;
      config.name = stem + std::to_string(i);
      config.words = 64;
      config.bits = bits;
      config.spare_rows = 32;
      configs.push_back(config);
    }
  };
  add("fifo", 18);
  add("lut", 40);
  add("tag", 24);
  add("buf", 72);
  return configs;
}

bisd::SocUnderTest build_soc(std::uint64_t seed) {
  faults::InjectionSpec spec;
  spec.cell_defect_rate = 0.01;
  spec.include_retention = true;
  return bisd::SocUnderTest::from_injection(soc_configs(), spec, seed);
}

struct ClassifyRun {
  double cold_seconds = 0;   ///< first classification, dictionary warm-up
  double warm_seconds = 0;   ///< steady-state classification
  std::size_t sites = 0;
  std::size_t classified = 0;
  double lenient_accuracy = 0;
  std::string verdicts;      ///< full per-site dump, for cross-mode identity
  diagnosis::CacheStats stats;
};

ClassifyRun measure_classification(diagnosis::DictionaryBuildMode mode) {
  auto soc = build_soc(20260731);
  bisd::FastScheme scheme;
  const auto result = scheme.diagnose(soc);
  const auto syndromes =
      diagnosis::extract_syndromes(result.log, soc.memory_count());
  const auto test = scheme.test_for_width(soc.max_bits());
  diagnosis::ClassifierOptions options;
  options.build_mode = mode;

  // The cache persists across calls, so the first classify_all pays the
  // dictionary warm-up and the repetitions measure steady state.
  diagnosis::ClassifierCache cache;
  const auto classify_all = [&](ClassifyRun& run, bool keep_verdicts) {
    const auto classification =
        diagnosis::classify_soc(soc, syndromes, test, options, &cache);
    run.sites = 0;
    run.classified = 0;
    for (const auto& memory : classification.memories) {
      run.sites += memory.sites.size();
      run.classified += memory.classified_sites();
      if (keep_verdicts) {
        run.verdicts += memory.to_string();
      }
    }
    run.lenient_accuracy = classification.confusion.lenient_accuracy();
  };

  ClassifyRun run;
  const auto cold_start = std::chrono::steady_clock::now();
  classify_all(run, /*keep_verdicts=*/false);
  run.cold_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - cold_start)
                         .count();

  // The identity dump rides an untimed warm pass (verdicts are
  // deterministic), so string building never pollutes the cold numbers.
  classify_all(run, /*keep_verdicts=*/true);

  constexpr int kWarmRepetitions = 5;
  const auto warm_start = std::chrono::steady_clock::now();
  for (int r = 0; r < kWarmRepetitions; ++r) {
    classify_all(run, /*keep_verdicts=*/false);
  }
  run.warm_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - warm_start)
                         .count() /
                     kWarmRepetitions;
  run.stats = cache.stats();
  return run;
}

double measure_closed_loop(std::size_t* residual) {
  auto soc = build_soc(20260732);
  const diagnosis::ResolutionFlow flow;
  const auto start = std::chrono::steady_clock::now();
  const auto report = flow.run(soc);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  *residual = report.residual_records;
  return seconds;
}

void classify_table() {
  const ClassifyRun instance =
      measure_classification(diagnosis::DictionaryBuildMode::instance_sliced);
  const ClassifyRun reference =
      measure_classification(diagnosis::DictionaryBuildMode::per_candidate);
  const bool identical = instance.verdicts == reference.verdicts;
  const double speedup = instance.cold_seconds > 0
                             ? reference.cold_seconds / instance.cold_seconds
                             : 0.0;
  std::size_t residual = 0;
  const double loop_seconds = measure_closed_loop(&residual);

  TablePrinter table({"phase", "wall time", "sites/s"});
  table.set_title("64-memory SoC, 1% defects, syndrome classification");
  const auto rate = [&](double seconds) {
    return seconds == 0.0 ? 0.0
                          : static_cast<double>(instance.sites) / seconds;
  };
  table.add_row({"classify (cold, per_candidate dictionaries)",
                 fmt_double(reference.cold_seconds * 1e3, 1) + " ms",
                 fmt_double(rate(reference.cold_seconds), 1)});
  table.add_row({"classify (cold, instance_sliced dictionaries)",
                 fmt_double(instance.cold_seconds * 1e3, 1) + " ms",
                 fmt_double(rate(instance.cold_seconds), 1)});
  table.add_row({"classify (warm)",
                 fmt_double(instance.warm_seconds * 1e3, 1) + " ms",
                 fmt_double(rate(instance.warm_seconds), 1)});
  table.add_row({"closed loop (diagnose..retest)",
                 fmt_double(loop_seconds * 1e3, 1) + " ms", "-"});
  table.add_note("cold build speedup (instance_sliced over per_candidate): " +
                 fmt_ratio(speedup) +
                 std::string(identical ? " (verdicts byte-identical)"
                                       : " (VERDICTS DIVERGE!)"));
  table.add_note("instance_sliced " + instance.stats.to_string());
  table.add_note("per_candidate " + reference.stats.to_string());
  table.add_note("sites classified: " + std::to_string(instance.classified) +
                 "/" + std::to_string(instance.sites) +
                 ", lenient accuracy " +
                 fmt_percent(instance.lenient_accuracy));
  table.add_note("closed-loop residual records: " +
                 std::to_string(residual));
  table.print(std::cout);

  print_json_line(
      JsonObject()
          .field("bench", "classify")
          .field("memories", 64)
          .field("sites", static_cast<std::uint64_t>(instance.sites))
          .field("classified",
                 static_cast<std::uint64_t>(instance.classified))
          .field("cold_seconds", instance.cold_seconds)
          .field("cold_seconds_per_candidate", reference.cold_seconds)
          .field("cold_build_speedup", speedup, 2)
          .field("build_identical", identical)
          .field("build_probe_replays_per_candidate",
                 static_cast<std::uint64_t>(reference.stats.probe_replays))
          .field("build_slab_batches",
                 static_cast<std::uint64_t>(instance.stats.slab_batches))
          .field("build_slab_lanes",
                 static_cast<std::uint64_t>(instance.stats.slab_lanes))
          .field("warm_seconds", instance.warm_seconds)
          .field("warm_sites_per_sec", rate(instance.warm_seconds), 1)
          .field("lenient_accuracy", instance.lenient_accuracy)
          .field("closed_loop_seconds", loop_seconds)
          .field("closed_loop_residual",
                 static_cast<std::uint64_t>(residual)));
}

// ---- microbenchmarks ------------------------------------------------------

void BM_ExtractSyndromes(benchmark::State& state) {
  auto soc = build_soc(7);
  bisd::FastScheme scheme;
  const auto result = scheme.diagnose(soc);
  for (auto _ : state) {
    auto syndromes =
        diagnosis::extract_syndromes(result.log, soc.memory_count());
    benchmark::DoNotOptimize(syndromes);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(result.log.records().size()));
}
BENCHMARK(BM_ExtractSyndromes)->Unit(benchmark::kMicrosecond);

void BM_ClassifyWarm(benchmark::State& state) {
  sram::SramConfig config;
  config.name = "bm";
  config.words = 64;
  config.bits = 24;
  bisd::SocUnderTest soc;
  soc.add_memory(config,
                 {faults::make_cell_fault(faults::FaultKind::sa0, {11, 7}),
                  faults::make_coupling_fault(faults::FaultKind::cf_id_up1,
                                              {3, 2}, {3, 9})});
  bisd::FastScheme scheme;
  const auto result = scheme.diagnose(soc);
  const auto syndromes = diagnosis::extract_syndromes(result.log, 1);
  diagnosis::FaultClassifier classifier(config,
                                        scheme.test_for_width(config.bits));
  (void)classifier.classify(syndromes[0]);  // warm the dictionary
  for (auto _ : state) {
    auto classification = classifier.classify(syndromes[0]);
    benchmark::DoNotOptimize(classification);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_ClassifyWarm)->Unit(benchmark::kMicrosecond);

/// Cold dictionary build of one 24-bit shape, per build mode.
void BM_DictionaryBuild(benchmark::State& state) {
  const auto mode =
      static_cast<diagnosis::DictionaryBuildMode>(state.range(0));
  sram::SramConfig config;
  config.name = "bm";
  config.words = 64;
  config.bits = 24;
  bisd::SocUnderTest soc;
  soc.add_memory(config,
                 {faults::make_cell_fault(faults::FaultKind::sa0, {11, 7})});
  bisd::FastScheme scheme;
  const auto result = scheme.diagnose(soc);
  const auto syndromes = diagnosis::extract_syndromes(result.log, 1);
  diagnosis::ClassifierOptions options;
  options.build_mode = mode;
  for (auto _ : state) {
    // A fresh classifier per iteration: every classify() pays the build.
    diagnosis::FaultClassifier classifier(
        config, scheme.test_for_width(config.bits), options);
    auto classification = classifier.classify(syndromes[0]);
    benchmark::DoNotOptimize(classification);
  }
  state.SetLabel(std::string(diagnosis::dictionary_build_mode_name(mode)));
}
BENCHMARK(BM_DictionaryBuild)
    ->Arg(static_cast<int>(diagnosis::DictionaryBuildMode::per_candidate))
    ->Arg(static_cast<int>(diagnosis::DictionaryBuildMode::instance_sliced))
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_banner("E12: closed-loop classification throughput",
               "one March run captures complete diagnosis data; folding it "
               "into syndromes classifies every fault site and closes the "
               "diagnose/repair/retest loop");
  classify_table();
  return run_microbenchmarks(argc, argv);
}
