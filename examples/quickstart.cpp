// Quickstart: diagnose one embedded SRAM with the proposed fast scheme.
//
//   $ quickstart [--words 512] [--bits 100] [--rate 0.01] [--seed 42]
//                [--kernel word_parallel|per_cell]
//
// Builds the paper's benchmark e-SRAM, injects a 1 % defect population
// (including the data-retention faults prior schemes miss), runs the
// SPC/PSC + March CW + NWRTM diagnosis, and prints the session report plus
// the first few scan-out records.
//
// v2 API shape: describe the run as an immutable SessionSpec (validated
// up front, no run()-time surprises), then hand it to the DiagnosisEngine.
#include <cstdio>
#include <exception>

#include "core/fastdiag.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace fastdiag;
  try {
    ArgParser args(argc, argv);
    const auto words = args.get_u64("words", 512, "memory words (n)");
    const auto bits = args.get_u64("bits", 100, "memory IO width (c)");
    const auto rate = args.get_double("rate", 0.01, "cell defect rate");
    const auto seed = args.get_u64("seed", 42, "injection seed");
    const auto kernel_name = args.get_string(
        "kernel", "word_parallel",
        "access kernel: word_parallel or per_cell");
    if (args.help_requested()) {
      args.print_help("fastdiag quickstart: one e-SRAM, fast diagnosis");
      return 0;
    }
    args.finish();

    const auto kernel = sram::parse_access_kernel(kernel_name);
    if (!kernel) {
      std::fprintf(stderr, "unknown --kernel '%s'\n", kernel_name.c_str());
      return 1;
    }

    sram::SramConfig config;
    config.name = "quickstart";
    config.words = static_cast<std::uint32_t>(words);
    config.bits = static_cast<std::uint32_t>(bits);
    config.spare_rows = 8;

    const auto spec = core::SessionSpec::builder()
                          .add_sram(config)
                          .defect_rate(rate)
                          .seed(seed)
                          .with_repair(true)
                          .access_kernel(*kernel)
                          .build();
    if (!spec) {
      std::fprintf(stderr, "bad configuration — %s\n",
                   spec.error().to_string().c_str());
      return 1;
    }
    const auto report = core::DiagnosisEngine::execute(spec.value());

    std::printf("%s\n", report.summary().c_str());

    std::printf("first scan-out records:\n");
    std::size_t shown = 0;
    for (const auto& record : report.result.log.records()) {
      std::printf("  %s\n", record.to_string().c_str());
      if (++shown == 8) {
        break;
      }
    }
    if (report.result.log.records().size() > shown) {
      std::printf("  ... %zu more\n",
                  report.result.log.records().size() - shown);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
