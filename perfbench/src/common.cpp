#include "common.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/json.h"

namespace perfbench {

std::string Failures::to_json() const {
  return fastdiag::util::JsonObject()
      .field("exceptions", exceptions)
      .field("config_errors", config_errors)
      .field("error_frames", error_frames)
      .field("decode_failures", decode_failures)
      .field("replica_mismatches", replica_mismatches)
      .field("fold_mismatches", fold_mismatches)
      .field("verify_mismatches", verify_mismatches)
      .str();
}

void Result::check(bool condition, const std::string& what) {
  if (!condition) {
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
    checks_passed = false;
  }
}

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t run_seed(std::uint64_t workload_seed, std::uint64_t stream,
                       std::uint64_t index) {
  // A per-(seed, stream) base plus the index: distinct within a stream by
  // construction, unrelated across streams and workload seeds.
  return splitmix64(splitmix64(workload_seed) ^ (stream << 56)) + index;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median_slice_percentile(const std::vector<std::vector<double>>& slices,
                               double p) {
  std::vector<double> per_slice;
  for (const auto& slice : slices) {
    if (!slice.empty()) {
      per_slice.push_back(percentile(slice, p));
    }
  }
  return median(per_slice);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void release_freed_memory() { (void)malloc_trim(0); }

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size,
                    std::uint64_t hash) {
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace perfbench
