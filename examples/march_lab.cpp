// March algorithm laboratory.
//
//   $ march_lab                                  # list the library
//   $ march_lab --matrix                         # coverage matrix
//   $ march_lab --march "{any(w0); up(r0,w1); down(r1,w0)}" --matrix
//   $ march_lab --march "..." --diagnose         # run it end to end
//
// Lists the built-in March tests with their complexities, optionally parses
// a user-supplied March element string, and evaluates RAMSES-style fault
// coverage on a small geometry.  With --diagnose, the custom test is
// registered as a scheme in the SchemeRegistry ("lab-custom") and executed
// end to end through the DiagnosisEngine — the v2 plug-in path, no core
// changes needed.
#include <cstdio>
#include <exception>
#include <iostream>

#include "core/fastdiag.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

using namespace fastdiag;

void list_library(std::uint32_t bits) {
  TablePrinter table({"algorithm", "ops (n=256)", "reads/addr", "writes/addr",
                      "phases"});
  table.set_title("March library (built for width " + std::to_string(bits) +
                  ")");
  for (const auto& test : march::all_library_tests(bits)) {
    table.add_row({test.name(), std::to_string(test.op_count(256)),
                   std::to_string(test.reads_per_address()),
                   std::to_string(test.writes_per_address()),
                   std::to_string(test.phases().size())});
  }
  table.print(std::cout);
  std::printf("\nMarch C- in notation: %s\n",
              march::elements_to_string(
                  march::march_c_minus(bits).phases().front().elements)
                  .c_str());
}

void coverage_matrix(const march::MarchTest& test, std::uint32_t words,
                     std::uint32_t bits, std::size_t samples) {
  sram::SramConfig geometry;
  geometry.name = "lab";
  geometry.words = words;
  geometry.bits = bits;

  const march::CoverageEvaluator evaluator(geometry);
  const auto rows = evaluator.evaluate_all(test, samples, /*seed=*/2005);

  TablePrinter table({"fault model", "injected", "detected", "located",
                      "detection"});
  table.set_title("coverage of '" + test.name() + "' on " +
                  std::to_string(words) + "x" + std::to_string(bits));
  for (const auto& row : rows) {
    table.add_row({row.label, std::to_string(row.injected),
                   std::to_string(row.detected),
                   std::to_string(row.located),
                   fmt_percent(row.detection_rate())});
  }
  table.print(std::cout);
}

/// The registry plug-in path: wrap the custom test in a FastScheme and run
/// it end to end over an injected SoC, exactly like a built-in scheme.
void diagnose_custom(const march::MarchTest& test, std::uint32_t words,
                     std::uint32_t bits) {
  core::SchemeRegistry registry;
  registry.register_scheme(
      "lab-custom", {}, [test](const core::SchemeContext& context) {
        bisd::FastSchemeOptions options;
        options.clock = context.clock;
        options.include_drf = false;
        options.test = test;
        return std::make_unique<bisd::FastScheme>(options);
      });

  sram::SramConfig geometry;
  geometry.name = "lab";
  geometry.words = words;
  geometry.bits = bits;
  const auto spec = core::SessionSpec::builder()
                        .add_sram(geometry)
                        .defect_rate(0.02)
                        .include_retention_faults(false)
                        .seed(2005)
                        .scheme("lab-custom")
                        .build(registry);
  if (!spec) {
    std::fprintf(stderr, "bad configuration — %s\n",
                 spec.error().to_string().c_str());
    return;
  }
  const auto report = core::DiagnosisEngine::execute(spec.value(), registry);
  std::printf("\nend-to-end diagnosis with the custom test:\n%s",
              report.summary().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    ArgParser args(argc, argv);
    const auto words = args.get_u64("words", 16, "geometry words");
    const auto bits = args.get_u64("bits", 8, "geometry IO width");
    const auto samples = args.get_u64("samples", 32, "instances per fault kind");
    const auto custom =
        args.get_string("march", "", "March element string to evaluate");
    const bool matrix = args.get_flag("matrix", "run the coverage matrix");
    const bool diagnose =
        args.get_flag("diagnose", "run the custom test end to end");
    if (args.help_requested()) {
      args.print_help("March algorithm laboratory");
      return 0;
    }
    args.finish();

    const auto w = static_cast<std::uint32_t>(words);
    const auto b = static_cast<std::uint32_t>(bits);

    list_library(b);

    if (!custom.empty()) {
      const auto elements = march::parse_elements(custom);
      const march::MarchTest test(
          "custom", {march::MarchPhase{BitVector(b, false), elements}});
      std::printf("\nparsed custom test (%llu ops at n=%u):\n  %s\n",
                  static_cast<unsigned long long>(test.op_count(w)), w,
                  march::elements_to_string(elements).c_str());
      if (matrix) {
        std::printf("\n");
        coverage_matrix(test, w, b, samples);
      }
      if (diagnose) {
        diagnose_custom(test, w, b);
      }
      return 0;
    }

    if (matrix) {
      std::printf("\n");
      coverage_matrix(march::march_cw_nwrtm(b), w, b, samples);
    }
    if (diagnose) {
      diagnose_custom(march::march_cw(b), w, b);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
