// fastdiag_perf: the end-to-end benchmark of the fastdiag library.
//
//   fastdiag_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-dir <dir>]
//
// Workloads: fleet_1pct, classify_wrap, diagd_jobs, infield_scan.  With
// --trace 0 the run measures the end-to-end metrics; with --trace 1 it
// splits its time between an untraced phase and the traced replica and
// reports the per-layer metrics.  Informational lines (fingerprint, digest,
// failure breakdown) go to stdout first; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}.  Times are host
// time unless a name says "sim".
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.h"
#include "util/json.h"
#include "util/simd.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE "OFF"
#endif

namespace {

using namespace perfbench;

int usage(const char* message) {
  std::fprintf(stderr,
               "fastdiag_perf: %s\nusage: fastdiag_perf --workload "
               "<fleet_1pct|classify_wrap|diagd_jobs|infield_scan> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
               message);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0' && text[0] != '-';
}

/// Timings from an unoptimised or instrumented build describe another
/// program; the benchmark refuses to report them.
const char* unfit_build() {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string sanitize = PERFBENCH_SANITIZE;
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG unset)";
#endif
  if (build_type == "Debug") {
    return "CMAKE_BUILD_TYPE is Debug";
  }
  if (!sanitize.empty() && sanitize != "OFF") {
    return "the library is built with sanitizers (FASTDIAG_SANITIZE)";
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "the benchmark is built with sanitizers";
#endif
  return nullptr;
}

std::string fingerprint() {
  const char* forced = std::getenv("FASTDIAG_FORCE_ISA");
  return fastdiag::util::JsonObject()
      .field("nproc", static_cast<std::uint64_t>(
                          std::thread::hardware_concurrency()))
      .field("engine_workers", static_cast<std::uint64_t>(engine_workers()))
      .field("isa", fastdiag::simd::isa_name(fastdiag::simd::active_level()))
      .field("isa_forced", forced != nullptr ? forced : "")
      .field("compiler", __VERSION__)
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .str();
}

std::string result_line(const Result& result) {
  std::string metrics;
  bool finite = true;
  for (const Metric& metric : result.metrics) {
    finite = finite && std::isfinite(metric.value);
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    metrics += (metrics.empty() ? "" : ",");
    metrics += "\"" + metric.name + "\":{\"value\":" + value +
               ",\"unit\":\"" + metric.unit + "\"}";
  }
  const bool correct =
      finite && result.checks_passed && result.failures.total() == 0;
  return "{\"correct\":" + std::string(correct ? "true" : "false") +
         ",\"attempted\":" + std::to_string(result.attempted) +
         ",\"failed\":" + std::to_string(result.failures.total()) +
         ",\"metrics\":{" + metrics + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.process_start = Clock::now();

  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && parse_u64(value, number)) {
      options.seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && parse_u64(value, number) &&
               number >= 1 && number <= 600) {
      options.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace" && parse_u64(value, number) && number <= 1) {
      options.trace = number == 1;
      have_trace = true;
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return usage(("bad flag or value: " + flag + " " + value).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  const EngineWorkload* engine_workload = find_engine_workload(options.workload);
  if (engine_workload == nullptr && options.workload != "diagd_jobs") {
    return usage(("unknown workload " + options.workload).c_str());
  }
  if (const char* reason = unfit_build()) {
    std::fprintf(stderr, "fastdiag_perf: refusing to report timings: %s\n",
                 reason);
    return 3;
  }

  std::printf("fingerprint: %s\n", fingerprint().c_str());
  Result result;
  try {
    result = engine_workload != nullptr
                 ? run_engine_workload(*engine_workload, options)
                 : run_diagd_workload(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fastdiag_perf: %s\n", error.what());
    return 1;
  }
  std::printf("failures: %s\n", result.failures.to_json().c_str());
  std::printf("%s\n", result_line(result).c_str());
  return 0;
}
