// Closed-loop fault resolution: diagnose -> classify -> repair -> retest.
//
//   $ closed_loop [--memories 6] [--rate 0.01] [--seed 42] [--spares 8]
//
// Builds a heterogeneous SoC, injects the paper's manufacturing model, and
// executes one spec with classification and repair on: the fast scheme
// collects the diagnosis log in one March run, the syndrome classifier
// turns it into fault-kind verdicts (scored against the injected ground
// truth), the must-repair allocator maps faulty rows onto the backup
// memories, and a retest checks that the SoC diagnoses clean.
#include <cstdio>
#include <exception>
#include <iostream>
#include <vector>

#include "core/fastdiag.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace fastdiag;
  try {
    ArgParser args(argc, argv);
    const auto memories = args.get_u64("memories", 6, "e-SRAMs in the SoC");
    const auto rate = args.get_double("rate", 0.01, "cell defect rate");
    const auto seed = args.get_u64("seed", 42, "injection seed");
    const auto spares = args.get_u64("spares", 8, "spare rows per memory");
    if (args.help_requested()) {
      args.print_help("closed-loop diagnose/classify/repair/retest demo");
      return 0;
    }
    args.finish();
    if (memories == 0) {
      std::fprintf(stderr, "error: --memories must be > 0\n");
      return 1;
    }

    // A few repeating shapes, the distributed-buffer situation of Fig. 1.
    std::vector<sram::SramConfig> configs;
    for (std::uint64_t m = 0; m < memories; ++m) {
      sram::SramConfig config;
      config.name = "buf" + std::to_string(m);
      config.words = 32 + 16 * (m % 2);
      config.bits = 12 + 6 * (m % 3);
      config.spare_rows = static_cast<std::uint32_t>(spares);
      configs.push_back(config);
    }
    // The default scheme is "fast" (March CW+NWRTM at 10 ns), and the
    // default injection includes retention faults.
    const auto spec = core::SessionSpec::builder()
                          .add_srams(configs)
                          .defect_rate(rate)
                          .seed(seed)
                          .classify(true)
                          .with_repair(true)
                          .build();
    if (!spec) {
      std::fprintf(stderr, "bad configuration — %s\n",
                   spec.error().to_string().c_str());
      return 1;
    }
    diagnosis::ClassifierCache cache;
    const auto report = core::DiagnosisEngine::execute(
        spec.value(), core::SchemeRegistry::global(), &cache);
    const auto& classification = report.classification.value();

    std::printf("%s\n", report.summary().c_str());

    TablePrinter table({"memory", "site", "verdict", "confidence"});
    table.set_title("classified fault sites");
    for (const auto& memory : classification.memories) {
      for (const auto& site : memory.sites) {
        std::string where =
            site.site == diagnosis::SiteClassification::Site::row
                ? "row " + std::to_string(site.row)
                : "(" + std::to_string(site.cell.row) + "," +
                      std::to_string(site.cell.bit) + ")";
        std::string verdict = "unclassified";
        if (site.classified()) {
          verdict.clear();
          for (const auto kind : site.top_kinds()) {
            verdict += (verdict.empty() ? "" : " | ");
            verdict += faults::fault_kind_name(kind);
          }
        }
        table.add_row({configs[memory.memory_index].name, where, verdict,
                       fmt_double(site.top_confidence(), 2)});
      }
    }
    table.add_note("tied verdicts are kinds this March test cannot separate");
    table.print(std::cout);

    std::printf("\n%s\n", classification.confusion.to_string().c_str());
    std::printf("%s\n", cache.stats().to_string().c_str());
    const bool fully_repairable = report.repair->fully_repairable();
    if (!fully_repairable) {
      std::printf("note: spare budget exhausted — raise --spares to see the "
                  "loop close\n");
    }
    return report.repair_verified_clean || !fully_repairable ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
