// E10 (v2 API) — DiagnosisEngine batch throughput vs. worker count.
//
// A 64-run seed sweep over a 32-SRAM heterogeneous SoC, executed at
// 1/2/4/8 workers.  Every run owns its RNG, SoC and scheme, so the sweep
// is embarrassingly parallel; the engine must (a) keep per-run Reports
// bit-identical to serial execution and (b) scale throughput with cores.
//
// One untimed serial warm-up, then 5 timed batches per worker count,
// reported as median, min and MAD (median absolute deviation).  Emits one
// JSON object on stdout (line prefixed "JSON:") for the perf trajectory;
// the speedup achievable is bounded by the machine's hardware_concurrency,
// which the JSON records, and worker counts above it are flagged
// oversubscribed.  Bit identity compares every repetition's per-run
// encode_report bytes with the warm-up's; the binary exits 1 on divergence.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <thread>

#include "bench_common.h"
#include "core/fastdiag.h"
#include "service/serialize.h"
#include "util/format.h"
#include "util/table.h"

namespace {

using namespace fastdiag;

/// 32 small heterogeneous e-SRAMs: 8 of each of 4 shapes.
std::vector<sram::SramConfig> heterogeneous_soc() {
  std::vector<sram::SramConfig> configs;
  const auto add = [&configs](const std::string& stem, std::uint32_t words,
                              std::uint32_t bits) {
    for (int i = 0; i < 8; ++i) {
      sram::SramConfig config;
      config.name = stem + std::to_string(i);
      config.words = words;
      config.bits = bits;
      config.spare_rows = 8;
      configs.push_back(config);
    }
  };
  add("fifo", 64, 18);
  add("lut", 16, 36);
  add("scratch", 32, 9);
  add("tag", 48, 12);
  return configs;
}

std::vector<core::SessionSpec> sweep_specs(std::size_t runs) {
  core::SweepSpec sweep;
  sweep.base = core::SessionSpec::builder()
                   .add_srams(heterogeneous_soc())
                   .defect_rate(0.01);
  for (std::size_t seed = 1; seed <= runs; ++seed) {
    sweep.seeds.push_back(seed);
  }
  auto specs = sweep.expand();
  if (!specs) {
    std::cerr << "sweep expansion failed: " << specs.error().to_string()
              << '\n';
    std::exit(1);
  }
  return std::move(specs).value();
}

double run_batch_seconds(const std::vector<core::SessionSpec>& specs,
                         std::size_t workers, core::AggregateReport& out) {
  const core::DiagnosisEngine engine({.workers = workers});
  const auto start = std::chrono::steady_clock::now();
  out = engine.run_batch(specs);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Median absolute deviation from the median.
double mad_of(const std::vector<double>& values) {
  const double median = median_of(values);
  std::vector<double> deviations;
  for (const double v : values) {
    deviations.push_back(std::abs(v - median));
  }
  return median_of(deviations);
}

/// Per-run encode_report bytes: the bit-identity reference.
std::vector<std::vector<std::uint8_t>> encoded_runs(
    const core::AggregateReport& report) {
  std::vector<std::vector<std::uint8_t>> out;
  for (const auto& run : report.runs) {
    out.push_back(service::encode_report(run));
  }
  return out;
}

/// Runs the sweep at 1/2/4/8 workers after one untimed serial warm-up,
/// timing kRepetitions batches per worker count.  Returns false when any
/// repetition's reports differ from the warm-up's encode_report bytes.
bool scaling_table() {
  constexpr std::size_t kRuns = 64;
  constexpr std::size_t kRepetitions = 5;
  const auto specs = sweep_specs(kRuns);
  const unsigned cores = std::thread::hardware_concurrency();

  core::AggregateReport warm_up;
  (void)run_batch_seconds(specs, 1, warm_up);
  const auto reference = encoded_runs(warm_up);

  TablePrinter table({"workers", "median", "min", "MAD", "runs/s", "speedup",
                      "bit-identical"});
  table.set_title("64-run sweep, 32-SRAM heterogeneous SoC (" +
                  std::to_string(kRepetitions) +
                  " timed repetitions after one warm-up)");

  std::vector<std::string> results;
  bool all_identical = true;
  double serial_median = 0.0;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    std::vector<double> seconds;
    bool identical = true;
    for (std::size_t rep = 0; rep < kRepetitions; ++rep) {
      core::AggregateReport report;
      seconds.push_back(run_batch_seconds(specs, workers, report));
      identical = identical && encoded_runs(report) == reference;
    }
    all_identical = all_identical && identical;
    const double median = median_of(seconds);
    const double min = *std::min_element(seconds.begin(), seconds.end());
    const double mad = mad_of(seconds);
    if (workers == 1) {
      serial_median = median;
    }
    const bool oversubscribed = cores != 0 && workers > cores;  // 0: unknown
    const double runs_per_s = static_cast<double>(kRuns) / median;
    const double speedup = serial_median / median;
    table.add_row({std::to_string(workers) + (oversubscribed ? " (over)" : ""),
                   fmt_double(median * 1e3, 1) + " ms",
                   fmt_double(min * 1e3, 1) + " ms",
                   fmt_double(mad * 1e3, 1) + " ms",
                   fmt_double(runs_per_s, 1), fmt_ratio(speedup),
                   identical ? "yes" : "NO"});
    results.push_back(JsonObject()
                          .field("workers", static_cast<std::uint64_t>(workers))
                          .field("oversubscribed", oversubscribed)
                          .field("median_s", median)
                          .field("min_s", min)
                          .field("mad_s", mad)
                          .field("runs_per_sec", runs_per_s, 2)
                          .field("speedup", speedup, 2)
                          .field("bit_identical", identical)
                          .str());
  }

  table.add_note("speedup = serial median / median; it is bounded by "
                 "hardware_concurrency = " + std::to_string(cores) +
                 ", and \"(over)\" marks oversubscribed worker counts");
  table.add_note("bit-identical: every repetition's encode_report bytes "
                 "equal the serial warm-up's");
  table.print(std::cout);
  print_json_line(
      JsonObject()
          .field("bench", "engine_scaling")
          .field("runs", static_cast<std::uint64_t>(kRuns))
          .field("memories", 32)
          .field("warmup_batches", 1)
          .field("repetitions", static_cast<std::uint64_t>(kRepetitions))
          .field("hardware_concurrency", static_cast<std::uint64_t>(cores))
          .field("bit_identical", all_identical)
          .raw("results", json_array(results)));
  return all_identical;
}

// ---- microbenchmarks ------------------------------------------------------

void BM_EngineBatch(benchmark::State& state) {
  const auto specs = sweep_specs(16);
  const auto workers = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const core::DiagnosisEngine engine({.workers = workers});
    auto report = engine.run_batch(specs);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(specs.size()));
}
BENCHMARK(BM_EngineBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SweepExpansion(benchmark::State& state) {
  core::SweepSpec sweep;
  sweep.base = core::SessionSpec::builder()
                   .add_srams(heterogeneous_soc());
  sweep.schemes = {"fast", "fast-without-drf", "baseline"};
  sweep.defect_rates = {0.005, 0.01, 0.02, 0.05};
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    sweep.seeds.push_back(seed);
  }
  for (auto _ : state) {
    auto specs = sweep.expand();
    benchmark::DoNotOptimize(specs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sweep.cardinality()));
}
BENCHMARK(BM_SweepExpansion);

}  // namespace

int main(int argc, char** argv) {
  print_banner("E10: DiagnosisEngine batch scaling",
               "diagnosis runs are embarrassingly parallel; batch "
               "throughput scales with workers at bit-identical results");
  if (!scaling_table()) {
    std::cerr << "engine_scaling: worker counts diverged from serial\n";
    return 1;
  }
  return run_microbenchmarks(argc, argv);
}
