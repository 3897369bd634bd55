// fleet_1pct, classify_wrap and infield_scan: seeds streamed through
// DiagnosisEngine::run_stream by min(4, nproc) workers in a closed loop
// (the stream pulls its next spec only when a window slot frees).
#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "model.h"
#include "service/serialize.h"
#include "traced.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace fastdiag;
using SpecResult = core::Expected<core::SessionSpec, core::ConfigError>;

/// Set-up is repeated this many times per untraced run and its median
/// reported, so one slow thread spawn or page-fault burst does not decide
/// setup_s.
constexpr int kSetupRepetitions = 5;

/// The traced phase replays at least this many runs, however slow they are.
constexpr std::uint64_t kMinTracedRuns = 2;

/// run_stream's in-flight window (its default for up to 4 workers), set
/// explicitly because runs complete a window at a time and the traced
/// phase compares rates over whole windows.
constexpr std::size_t kStreamWindow = 16;

sram::SramConfig memory(const char* prefix, int index, std::uint32_t words,
                        std::uint32_t bits, std::uint32_t spare_rows = 2) {
  sram::SramConfig config;
  config.name = prefix + std::to_string(index);
  config.words = words;
  config.bits = bits;
  config.spare_rows = spare_rows;
  return config;
}

// The paper's operating point: 64 small e-SRAMs of four depths behind one
// controller, so the 128-, 192- and 224-word memories wrap the 256-step
// sweep; 1 % defects plus DRFs, March CW+NWRTM, no classification.
SpecResult fleet_spec(std::uint64_t seed, std::uint64_t stream,
                      std::uint64_t index) {
  static const core::SessionSpec::Builder base = [] {
    auto builder = core::SessionSpec::builder();
    const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
        {256, 18}, {128, 40}, {192, 24}, {224, 72}};
    int n = 0;
    for (const auto& [words, bits] : shapes) {
      for (int k = 0; k < 16; ++k) {
        builder.add_sram(memory("fleet", n++, words, bits));
      }
    }
    builder.defect_rate(0.01).include_retention_faults(true).scheme("fast");
    return builder;
  }();
  auto builder = base;
  return builder.seed(run_seed(seed, stream, index)).build();
}

// Wrap-around classification: 64-word memories that do not wrap next to
// 48- and 40-word ones that do, then repair and retest.  Kept small on
// purpose — larger wrapped shapes classify in tens of seconds today.
SpecResult classify_spec(std::uint64_t seed, std::uint64_t stream,
                         std::uint64_t index) {
  static const core::SessionSpec::Builder base = [] {
    auto builder = core::SessionSpec::builder();
    int n = 0;
    for (int k = 0; k < 8; ++k) builder.add_sram(memory("wrap", n++, 64, 16, 16));
    for (int k = 0; k < 4; ++k) builder.add_sram(memory("wrap", n++, 48, 16, 16));
    for (int k = 0; k < 4; ++k) builder.add_sram(memory("wrap", n++, 40, 24, 16));
    builder.defect_rate(0.01).classify(true).with_repair(true);
    return builder;
  }();
  auto builder = base;
  return builder.seed(run_seed(seed, stream, index)).build();
}

// In-field scanning: 8 deployed 256x32 memories, an upset every 2 us on
// average over a 1 ms window, 10 us scans, 10 % intermittent upsets,
// on_detect scrub, and on-die ECC on every other run.
SpecResult infield_spec(std::uint64_t seed, std::uint64_t stream,
                        std::uint64_t index) {
  const auto make_base = [](bool ecc) {
    faults::SoftErrorSpec soft;
    soft.enabled = true;
    soft.mean_upset_gap_ns = 2'000;
    soft.duration_ns = 1'000'000;
    soft.scan_period_ns = 10'000;
    soft.intermittent_fraction = 0.1;
    soft.ecc = ecc;
    soft.scrub = faults::ScrubPolicy::on_detect;
    auto builder = core::SessionSpec::builder();
    for (int k = 0; k < 8; ++k) builder.add_sram(memory("field", k, 256, 32));
    builder.defect_rate(0.0).scheme("periodic_scan").soft_error(soft);
    return builder;
  };
  static const core::SessionSpec::Builder plain = make_base(false);
  static const core::SessionSpec::Builder with_ecc = make_base(true);
  auto builder = index % 2 == 1 ? with_ecc : plain;
  return builder.seed(run_seed(seed, stream, index)).build();
}

const EngineWorkload kWorkloads[] = {
    {"fleet_1pct", fleet_spec, /*model_prefix=*/16, /*verify_samples=*/4},
    {"classify_wrap", classify_spec, 64, 8},
    {"infield_scan", infield_spec, 128, 8},
};

/// What one untraced run_stream phase measured.
struct StreamPhase {
  std::uint64_t completed = 0;
  Clock::time_point start;
  double seconds = 0.0;
  std::vector<Clock::time_point> delivered;  ///< by stream index
  std::vector<double> latencies_ms;  ///< spec pulled -> Report at the sink
  ModelTally model;                  ///< over the model prefix
  /// Encoded reports of the sampled stream indices.
  std::map<std::uint64_t, std::vector<std::uint8_t>> samples;

  [[nodiscard]] double runs_per_s() const {
    return seconds > 0 ? static_cast<double>(completed) / seconds : 0.0;
  }

  /// Median over the stream's windows of each window's completion rate:
  /// runs finish a window at a time, and the median keeps one window
  /// slowed by another process on the machine from moving the figure.
  [[nodiscard]] double median_window_runs_per_s() const {
    std::vector<double> rates;
    for (std::size_t end = kStreamWindow; end <= delivered.size();
         end += kStreamWindow) {
      const auto from =
          end == kStreamWindow ? start : delivered[end - kStreamWindow - 1];
      rates.push_back(static_cast<double>(kStreamWindow) /
                      seconds_between(from, delivered[end - 1]));
    }
    return median(rates);
  }

  /// Latencies grouped by window, complete windows only.
  [[nodiscard]] std::vector<std::vector<double>> window_latencies() const {
    std::vector<std::vector<double>> windows;
    for (std::size_t end = kStreamWindow; end <= latencies_ms.size();
         end += kStreamWindow) {
      windows.emplace_back(latencies_ms.begin() + (end - kStreamWindow),
                           latencies_ms.begin() + end);
    }
    return windows;
  }

  /// The rate over the first @p runs of the stream, rounded up to whole
  /// windows — the same inputs, and so the same cache warmth, a traced
  /// phase over those runs saw.
  [[nodiscard]] double prefix_runs_per_s(std::uint64_t runs) const {
    const std::size_t whole = std::min<std::size_t>(
        delivered.size(),
        (runs + kStreamWindow - 1) / kStreamWindow * kStreamWindow);
    return whole == 0 ? 0.0
                      : static_cast<double>(whole) /
                            seconds_between(start, delivered[whole - 1]);
  }
};

bool is_sample(const EngineWorkload& workload, std::uint64_t index) {
  const std::size_t stride = std::max<std::size_t>(
      1, workload.model_prefix / workload.verify_samples);
  return index < workload.model_prefix && index % stride == 0;
}

/// A fresh engine, warmed by one run per worker from the warm-up stream.
/// run_stream keeps its classifier cache per call, so the timed stream
/// still starts cold.
std::unique_ptr<core::DiagnosisEngine> set_up(const EngineWorkload& workload,
                                              const Options& options,
                                              std::size_t workers,
                                              Result& result) {
  auto engine = std::make_unique<core::DiagnosisEngine>(
      core::EngineOptions{.workers = workers});
  std::uint64_t pulled = 0;
  const auto warmed = engine->run_stream(
      [&]() -> std::optional<core::SessionSpec> {
        if (pulled >= workers) return std::nullopt;
        ++result.attempted;
        auto spec = workload.spec(options.seed, kWarmupStream, pulled++);
        if (!spec) {
          ++result.failures.config_errors;
          return std::nullopt;
        }
        return std::move(spec).value();
      });
  if (warmed.completed != workers) {
    ++result.failures.fold_mismatches;
  }
  return engine;
}

StreamPhase stream_phase(const core::DiagnosisEngine& engine,
                         const EngineWorkload& workload,
                         const Options& options, double seconds,
                         Result& result) {
  StreamPhase phase;
  std::vector<Clock::time_point> pulled;
  core::DiagnosisEngine::StreamOptions stream;
  stream.window = kStreamWindow;
  stream.sink = [&](std::size_t index, const core::Report& report) {
    const auto now = Clock::now();
    phase.delivered.push_back(now);
    phase.latencies_ms.push_back(ms_between(pulled[index], now));
    if (index < workload.model_prefix) {
      phase.model.add(report);
    }
    if (is_sample(workload, index)) {
      phase.samples[index] = service::encode_report(report);
    }
  };
  const auto start = Clock::now();
  phase.start = start;
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const auto source = [&]() -> std::optional<core::SessionSpec> {
    const auto now = Clock::now();
    if (pulled.size() >= workload.model_prefix && now >= deadline) {
      return std::nullopt;
    }
    ++result.attempted;
    auto spec = workload.spec(options.seed, kTimedStream, pulled.size());
    if (!spec) {
      ++result.failures.config_errors;
      std::fprintf(stderr, "spec rejected: %s\n",
                   spec.error().to_string().c_str());
      return std::nullopt;
    }
    pulled.push_back(now);
    return std::move(spec).value();
  };
  try {
    const auto streamed = engine.run_stream(source, stream);
    phase.completed = streamed.completed;
    if (streamed.completed != pulled.size() ||
        streamed.aggregate.folded.count != pulled.size()) {
      ++result.failures.fold_mismatches;
    }
  } catch (const std::exception& error) {
    result.failures.exceptions += pulled.size() - phase.latencies_ms.size();
    std::fprintf(stderr, "run_stream threw: %s\n", error.what());
  }
  phase.seconds = seconds_between(start, Clock::now());
  result.check(phase.model.runs() == workload.model_prefix,
               "the model prefix did not complete");
  return phase;
}

/// Re-executes each sampled run serially and requires the streamed bytes.
void verify_samples(const EngineWorkload& workload, const Options& options,
                    const StreamPhase& phase, Result& result) {
  diagnosis::ClassifierCache cache;
  for (const auto& [index, bytes] : phase.samples) {
    ++result.attempted;
    auto spec = workload.spec(options.seed, kTimedStream, index);
    if (!spec) {
      ++result.failures.config_errors;
      continue;
    }
    try {
      const auto report = core::DiagnosisEngine::execute(
          spec.value(), core::SchemeRegistry::global(), &cache);
      if (service::encode_report(report) != bytes) {
        ++result.failures.verify_mismatches;
        std::fprintf(stderr, "streamed run %llu differs from execute\n",
                     static_cast<unsigned long long>(index));
      }
    } catch (const std::exception& error) {
      ++result.failures.exceptions;
      std::fprintf(stderr, "verification threw: %s\n", error.what());
    }
  }
  result.check(phase.samples.size() == workload.verify_samples,
               "not every verification sample was streamed");
}

void traced_phase(const EngineWorkload& workload, const Options& options,
                  const StreamPhase& untraced, std::size_t workers,
                  Result& result) {
  TracedPhase traced;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds / 2));
  std::uint64_t i = 0;
  for (; i < kMinTracedRuns || Clock::now() < deadline; ++i) {
    std::optional<core::SessionSpec> spec;
    {
      const Tracer::Scope span(traced.tracer(), "core.spec", i);
      auto built = workload.spec(options.seed, kTimedStream, i);
      if (built) spec = std::move(built).value();
    }
    if (!spec) {
      ++result.attempted;
      ++result.failures.config_errors;
      break;
    }
    const auto bytes = traced.run(*spec, i, result);
    const auto sample = untraced.samples.find(i);
    if (sample != untraced.samples.end() && sample->second != bytes) {
      ++result.failures.verify_mismatches;
    }
  }
  const double wall_ms = ms_between(start, Clock::now());
  const std::string path =
      options.trace_dir.empty()
          ? std::string()
          : options.trace_dir + "/" + workload.name + "-seed" +
                std::to_string(options.seed) + ".json";
  traced.finish(result, wall_ms, untraced.prefix_runs_per_s(i), workers, {},
                path);
}

}  // namespace

const EngineWorkload* find_engine_workload(const std::string& name) {
  for (const auto& workload : kWorkloads) {
    if (name == workload.name) {
      return &workload;
    }
  }
  return nullptr;
}

std::size_t engine_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

Result run_engine_workload(const EngineWorkload& workload,
                           const Options& options) {
  Result result;
  const std::size_t workers = engine_workers();

  std::vector<double> setup_s;
  std::unique_ptr<core::DiagnosisEngine> engine;
  const int repetitions = options.trace ? 1 : kSetupRepetitions;
  for (int rep = 0; rep < repetitions; ++rep) {
    engine.reset();
    release_freed_memory();
    const auto start = rep == 0 ? options.process_start : Clock::now();
    engine = set_up(workload, options, workers, result);
    setup_s.push_back(seconds_between(start, Clock::now()));
  }

  const double timed_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  const StreamPhase phase =
      stream_phase(*engine, workload, options, timed_seconds, result);
  const double rss_mb = peak_rss_mb();
  engine.reset();
  std::printf("digest %s seed=%llu prefix=%zu: %s\n", workload.name,
              static_cast<unsigned long long>(options.seed),
              workload.model_prefix, phase.model.digest().c_str());

  if (options.trace) {
    traced_phase(workload, options, phase, workers, result);
    return result;
  }

  std::fprintf(stderr,
               "%s: %llu runs in %.3f s (%.4f/s overall), %zu latency "
               "samples\n",
               workload.name, static_cast<unsigned long long>(phase.completed),
               phase.seconds, phase.runs_per_s(), phase.latencies_ms.size());
  verify_samples(workload, options, phase, result);
  result.add("runs_per_s", phase.median_window_runs_per_s(), "1/s");
  const auto windows = phase.window_latencies();
  result.add("job_p50_ms", median_slice_percentile(windows, 50), "ms");
  result.add("job_p99_ms", median_slice_percentile(windows, 99), "ms");
  result.add("setup_s", median(setup_s), "s");
  result.add("peak_rss_mb", rss_mb, "MB");
  phase.model.add_metrics(result);
  return result;
}

}  // namespace perfbench
