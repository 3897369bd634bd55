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
// retest).  build_identical also covers a small wrapped SoC, where the
// per_candidate reference is still affordable.
//
// E12-fleet classifies the paper's wrapped operating point: the 64-memory
// SoC of 256x18, 128x40, 192x24 and 224x72 memories behind one 256-step
// sweep, so three of the four depths wrap.  It reports cold and warm
// seconds, dictionary keys and signature bytes, and the peak RSS (VmHWM)
// of the cold classification.
#include <chrono>
#include <fstream>
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

/// A small wrapped SoC: the 64-word memory sets the sweep, the 48- and
/// 40-word ones wrap it with a remainder, the 32-word one evenly.
std::vector<sram::SramConfig> wrapped_configs() {
  std::vector<sram::SramConfig> configs;
  const auto add = [&configs](const std::string& name, std::uint32_t words,
                              std::uint32_t bits) {
    for (int i = 0; i < 2; ++i) {
      sram::SramConfig config;
      config.name = name + std::to_string(i);
      config.words = words;
      config.bits = bits;
      config.spare_rows = 16;
      configs.push_back(config);
    }
  };
  add("full", 64, 8);
  add("rem16", 48, 8);
  add("rem24", 40, 6);
  add("even", 32, 8);
  return configs;
}

/// The paper's operating point (perfbench's fleet_1pct SoC): 16 memories
/// of each shape, 1 % defects plus DRFs.
std::vector<sram::SramConfig> fleet_configs() {
  std::vector<sram::SramConfig> configs;
  const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
      {256, 18}, {128, 40}, {192, 24}, {224, 72}};
  for (const auto& [words, bits] : shapes) {
    for (int i = 0; i < 16; ++i) {
      sram::SramConfig config;
      config.name = "fleet" + std::to_string(configs.size());
      config.words = words;
      config.bits = bits;
      configs.push_back(config);
    }
  }
  return configs;
}

bisd::SocUnderTest build_soc(std::uint64_t seed,
                             const std::vector<sram::SramConfig>& configs =
                                 soc_configs(),
                             double defect_rate = 0.01) {
  faults::InjectionSpec spec;
  spec.cell_defect_rate = defect_rate;
  spec.include_retention = true;
  return bisd::SocUnderTest::from_injection(configs, spec, seed);
}

/// Resets the kernel's peak-RSS mark (VmHWM) so the next reading covers
/// only what runs after this call; false when the kernel refuses.
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  return static_cast<bool>(clear.flush());
}

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
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

ClassifyRun measure_classification(
    diagnosis::DictionaryBuildMode mode,
    const std::vector<sram::SramConfig>& configs = soc_configs(),
    int warm_repetitions = 5, double defect_rate = 0.01) {
  auto soc = build_soc(20260731, configs, defect_rate);
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

  const auto warm_start = std::chrono::steady_clock::now();
  for (int r = 0; r < warm_repetitions; ++r) {
    classify_all(run, /*keep_verdicts=*/false);
  }
  run.warm_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - warm_start)
                         .count() /
                     warm_repetitions;
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
  // The fleet variant runs first, on a reset peak-RSS mark, so its VmHWM
  // is not inflated by the per_candidate legs below.
  const bool peak_reset = reset_peak_rss();
  const ClassifyRun fleet = measure_classification(
      diagnosis::DictionaryBuildMode::instance_sliced, fleet_configs(),
      /*warm_repetitions=*/1);
  const double fleet_peak_mb = peak_rss_mb();

  const ClassifyRun instance =
      measure_classification(diagnosis::DictionaryBuildMode::instance_sliced);
  const ClassifyRun reference =
      measure_classification(diagnosis::DictionaryBuildMode::per_candidate);
  // 3 % defects give the small wrapped SoC a few dozen sites.
  const ClassifyRun wrapped_instance = measure_classification(
      diagnosis::DictionaryBuildMode::instance_sliced, wrapped_configs(), 1,
      0.03);
  const ClassifyRun wrapped_reference = measure_classification(
      diagnosis::DictionaryBuildMode::per_candidate, wrapped_configs(), 1,
      0.03);
  const bool wrapped_identical =
      wrapped_instance.verdicts == wrapped_reference.verdicts;
  const bool identical =
      instance.verdicts == reference.verdicts && wrapped_identical;
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
  table.add_note("wrapped 8-memory SoC: " +
                 std::to_string(wrapped_instance.sites) + " sites, " +
                 std::string(wrapped_identical
                                 ? "verdicts byte-identical across modes"
                                 : "VERDICTS DIVERGE across modes"));
  table.print(std::cout);

  TablePrinter fleet_table({"phase", "wall time", "sites/s"});
  fleet_table.set_title(
      "E12-fleet: 64 memories, 3 of 4 depths wrap the 256-step sweep");
  const auto fleet_rate = [&](double seconds) {
    return seconds == 0.0 ? 0.0 : static_cast<double>(fleet.sites) / seconds;
  };
  fleet_table.add_row({"classify (cold, instance_sliced dictionaries)",
                       fmt_double(fleet.cold_seconds * 1e3, 1) + " ms",
                       fmt_double(fleet_rate(fleet.cold_seconds), 1)});
  fleet_table.add_row({"classify (warm)",
                       fmt_double(fleet.warm_seconds * 1e3, 1) + " ms",
                       fmt_double(fleet_rate(fleet.warm_seconds), 1)});
  fleet_table.add_note(fleet.stats.to_string());
  fleet_table.add_note("peak RSS (VmHWM" +
                       std::string(peak_reset ? ", reset before the run"
                                              : ", whole process") +
                       "): " + fmt_double(fleet_peak_mb, 1) + " MB");
  fleet_table.add_note("sites classified: " +
                       std::to_string(fleet.classified) + "/" +
                       std::to_string(fleet.sites) + ", lenient accuracy " +
                       fmt_percent(fleet.lenient_accuracy));
  fleet_table.print(std::cout);

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
                 static_cast<std::uint64_t>(residual))
          .field("wrapped_sites",
                 static_cast<std::uint64_t>(wrapped_instance.sites))
          .field("wrapped_build_identical", wrapped_identical)
          .field("fleet_sites", static_cast<std::uint64_t>(fleet.sites))
          .field("fleet_cold_seconds", fleet.cold_seconds)
          .field("fleet_warm_seconds", fleet.warm_seconds)
          .field("fleet_dictionary_keys",
                 static_cast<std::uint64_t>(fleet.stats.dictionary_keys))
          .field("fleet_dictionary_bytes",
                 static_cast<std::uint64_t>(fleet.stats.dictionary_bytes))
          .field("fleet_vmhwm_mb", fleet_peak_mb, 1)
          .field("fleet_vmhwm_reset", peak_reset));
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
