// Shared plumbing of the fastdiag end-to-end benchmark: metric records,
// failure accounting, the seed schedule and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

[[nodiscard]] inline double ms_between(Clock::time_point from,
                                       Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its span file; empty writes none.
  std::string trace_dir;
  /// Taken first thing in main(): setup_s counts from here.
  Clock::time_point process_start;
};

/// Failed operations by cause, each counted against Result::attempted.
struct Failures {
  std::uint64_t exceptions = 0;       ///< a run or job threw
  std::uint64_t config_errors = 0;    ///< a generated spec was rejected
  std::uint64_t error_frames = 0;     ///< diagd answered with an error frame
  std::uint64_t decode_failures = 0;  ///< a served report did not decode
  std::uint64_t replica_mismatches = 0;  ///< traced replica != execute bytes
  std::uint64_t fold_mismatches = 0;  ///< folded count != submitted count
  std::uint64_t verify_mismatches = 0;  ///< re-executed sample != served bytes

  [[nodiscard]] std::uint64_t total() const {
    return exceptions + config_errors + error_frames + decode_failures +
           replica_mismatches + fold_mismatches + verify_mismatches;
  }
  [[nodiscard]] std::string to_json() const;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  Failures failures;
  /// False once an output check that is not a per-operation failure (an
  /// impossible model value, a broken trace accounting) has failed.
  bool checks_passed = true;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records an output check; a failed one is reported on stderr.
  void check(bool condition, const std::string& what);
};

/// Seed of run @p index of stream @p stream: a function of the workload seed
/// only, and distinct for distinct indices of one stream.
[[nodiscard]] std::uint64_t run_seed(std::uint64_t workload_seed,
                                     std::uint64_t stream,
                                     std::uint64_t index);

/// Seed streams.  Timed and traced runs use the same stream (the traced
/// replica replays the timed workload's specs); warm-up and set-up work draw
/// from their own, so the timed phase never sees a warmed input.
inline constexpr std::uint64_t kTimedStream = 1;
inline constexpr std::uint64_t kWarmupStream = 2;

/// Nearest-rank percentile (@p p in [0, 100]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// Median over @p slices (consecutive time slices of one run) of each
/// slice's percentile @p p.  A host stall that slows one slice moves the
/// figure no more than any other single slice can.
[[nodiscard]] double median_slice_percentile(
    const std::vector<std::vector<double>>& slices, double p);

/// Process high-water resident set, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Returns the heap's free pages to the system.  Called between set-up
/// repetitions, so a torn-down repetition's memory, parked in the malloc
/// arena of a thread that no longer exists, cannot add to the high-water
/// mark of the next one.
void release_freed_memory();

/// 64-bit FNV-1a, for the determinism digests printed with every result.
[[nodiscard]] std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size,
                                  std::uint64_t hash = 0xcbf29ce484222325ULL);
[[nodiscard]] std::string hex64(std::uint64_t value);

}  // namespace perfbench
