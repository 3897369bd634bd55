// Shared plumbing of the bench binaries: every binary first regenerates its
// paper table(s) on stdout, then runs its google-benchmark microbenchmarks.
// Binaries that export machine-readable results print one `JSON: {...}`
// line built with util::json's JsonObject.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>

#include "util/json.h"

/// Call at the end of main(): runs the registered microbenchmarks.
inline int run_microbenchmarks(int argc, char** argv) {
  std::printf("\n-- microbenchmarks ------------------------------------\n");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

inline void print_banner(const char* experiment, const char* claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper claim: %s\n", claim);
  std::printf("================================================================\n\n");
}

/// The JSON writer lives in util/json.h so the diagd stats endpoint shares
/// it; benches keep their historical unqualified names.
using fastdiag::util::JsonObject;
using fastdiag::util::json_array;

/// The machine-readable summary line: `JSON: {...}`.
inline void print_json_line(const JsonObject& object) {
  std::printf("\nJSON: %s\n", object.str().c_str());
}
