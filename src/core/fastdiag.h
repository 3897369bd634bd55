// fastdiag — fast diagnosis of distributed small embedded SRAMs.
//
// Umbrella header: pulls in the whole public API.
//
//   #include "core/fastdiag.h"
//
//   using namespace fastdiag;
//
//   // Build an immutable, up-front-validated spec...
//   const auto spec = core::SessionSpec::builder()
//                         .add_sram(sram::benchmark_sram())
//                         .defect_rate(0.01)
//                         .seed(42)
//                         .build();
//   if (!spec) {
//     std::cerr << spec.error().to_string() << '\n';
//     return 1;
//   }
//   // ...and run it; or sweep seeds x schemes across a worker pool:
//   const auto report = core::DiagnosisEngine::execute(spec.value());
//   std::cout << report.summary();
//
//   core::SweepSpec sweep;
//   sweep.base = spec.value().rebuild();
//   sweep.schemes = {"fast", "baseline"};
//   sweep.seeds = {1, 2, 3, 4};
//   const auto batch = core::DiagnosisEngine({.workers = 8}).run_sweep(sweep);
//   std::cout << batch.value().summary();
//
// Custom schemes plug into core::SchemeRegistry::global() by name; see
// README.md for the v1 -> v2 migration guide.
//
// Reproduction of: B. Wang, Y. Wu, A. Ivanov, "A Fast Diagnosis Scheme for
// Distributed Small Embedded SRAMs", DATE 2005.
#pragma once

#include "analysis/area_model.h"   // IWYU pragma: export
#include "analysis/time_model.h"   // IWYU pragma: export
#include "bisd/baseline_scheme.h"  // IWYU pragma: export
#include "bisd/fast_scheme.h"      // IWYU pragma: export
#include "bisd/repair.h"           // IWYU pragma: export
#include "bisd/soc.h"              // IWYU pragma: export
#include "core/engine.h"           // IWYU pragma: export
#include "core/errors.h"           // IWYU pragma: export
#include "core/expected.h"         // IWYU pragma: export
#include "core/registry.h"         // IWYU pragma: export
#include "core/report.h"           // IWYU pragma: export
#include "core/spec.h"             // IWYU pragma: export
#include "diagnosis/classifier.h"  // IWYU pragma: export
#include "diagnosis/syndrome.h"    // IWYU pragma: export
#include "faults/dictionary.h"     // IWYU pragma: export
#include "faults/fault_set.h"      // IWYU pragma: export
#include "faults/injector.h"       // IWYU pragma: export
#include "march/coverage.h"        // IWYU pragma: export
#include "march/library.h"         // IWYU pragma: export
#include "march/notation.h"        // IWYU pragma: export
#include "nwrtm/nwrtm.h"           // IWYU pragma: export
#include "serial/psc.h"            // IWYU pragma: export
#include "serial/serial_interface.h"  // IWYU pragma: export
#include "serial/spc.h"            // IWYU pragma: export
#include "sram/electrical.h"       // IWYU pragma: export
#include "sram/instance_slab.h"    // IWYU pragma: export
#include "sram/sram.h"             // IWYU pragma: export
#include "util/simd.h"             // IWYU pragma: export

namespace fastdiag {

inline constexpr int kVersionMajor = 2;
inline constexpr int kVersionMinor = 1;
inline constexpr int kVersionPatch = 0;

/// "2.1.0"
[[nodiscard]] inline const char* version() { return "2.1.0"; }

}  // namespace fastdiag
