// The paper's motivating scenario (Sec. 1, ref [1]): a networking SoC with
// many small, distributed, heterogeneous e-SRAM buffers between
// computational blocks — exactly the setting where one shared BISD
// controller plus per-memory SPC/PSC pays off.
//
//   $ soc_network_buffers [--buffers 12] [--rate 0.01] [--seed 7]
//                         [--compare-baseline]
//
// Builds a mix of FIFO/lookup/scratch buffers, runs the fast scheme, and
// (optionally) the [7,8] baseline on an identical copy for a side-by-side.
#include <cstdio>
#include <exception>
#include <iostream>
#include <vector>

#include "core/fastdiag.h"
#include "util/cli.h"
#include "util/format.h"
#include "util/table.h"

namespace {

/// A plausible buffer mix: packet FIFOs (deep, medium width), header
/// lookup tables (shallow, wide), and scratch pads (small).
std::vector<fastdiag::sram::SramConfig> make_buffers(std::uint64_t count) {
  using fastdiag::sram::SramConfig;
  std::vector<SramConfig> configs;
  for (std::uint64_t i = 0; i < count; ++i) {
    SramConfig config;
    config.spare_rows = 8;
    switch (i % 3) {
      case 0:
        config.name = "pkt_fifo_" + std::to_string(i);
        config.words = 256;
        config.bits = 36;  // 32 data + 4 sideband
        break;
      case 1:
        config.name = "hdr_lut_" + std::to_string(i);
        config.words = 64;
        config.bits = 72;
        break;
      default:
        config.name = "scratch_" + std::to_string(i);
        config.words = 128;
        config.bits = 18;
        break;
    }
    configs.push_back(config);
  }
  return configs;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fastdiag;
  try {
    ArgParser args(argc, argv);
    const auto buffers = args.get_u64("buffers", 12, "number of e-SRAM buffers");
    const auto rate = args.get_double("rate", 0.01, "cell defect rate");
    const auto seed = args.get_u64("seed", 7, "injection seed");
    const bool compare =
        args.get_flag("compare-baseline", "also run the [7,8] baseline");
    if (args.help_requested()) {
      args.print_help("networking-SoC buffer diagnosis demo");
      return 0;
    }
    args.finish();

    const auto configs = make_buffers(buffers);
    std::printf("SoC: %zu distributed e-SRAM buffers, %.2f%% defective cells\n\n",
                configs.size(), rate * 100.0);

    // One batch, heterogeneous specs: the fast scheme with the repair
    // flow, plus (with --compare-baseline) the baseline WITHOUT it — the
    // iterative baseline already spends spare rows mid-diagnosis, so a
    // second repair pass would double-allocate them.  The engine runs both
    // concurrently.
    const auto base = core::SessionSpec::builder()
                          .add_srams(configs)
                          .defect_rate(rate)
                          .seed(seed);
    std::vector<core::SessionSpec> specs;
    const auto add_spec = [&specs](core::SessionSpec::Builder builder) {
      auto spec = builder.build();
      if (!spec) {
        std::fprintf(stderr, "bad configuration — %s\n",
                     spec.error().to_string().c_str());
        return false;
      }
      specs.push_back(std::move(spec).value());
      return true;
    };
    if (!add_spec(core::SessionSpec::Builder(base).with_repair(true))) {
      return 1;
    }
    if (compare &&
        !add_spec(core::SessionSpec::Builder(base).scheme(
            "baseline-with-retention"))) {
      return 1;
    }
    // The fast run finishes in milliseconds while the baseline's retention
    // pauses take minutes; stream the fast section through the engine's
    // observer instead of sitting silent until the whole batch returns.
    const auto print_fast = [&configs](const core::Report& fast) {
      std::printf("--- proposed scheme ---\n%s\n", fast.summary().c_str());
      TablePrinter per_memory({"buffer", "words", "bits", "injected",
                               "diagnosed rows", "recall"});
      per_memory.set_title("per-buffer diagnosis (fast scheme)");
      for (std::size_t i = 0; i < configs.size(); ++i) {
        per_memory.add_row({
            configs[i].name,
            std::to_string(configs[i].words),
            std::to_string(configs[i].bits),
            std::to_string(fast.matches[i].truth_faults),
            std::to_string(fast.result.log.faulty_rows(i).size()),
            fmt_percent(fast.matches[i].recall()),
        });
      }
      per_memory.print(std::cout);
      std::fflush(stdout);
    };
    const auto batch = core::DiagnosisEngine({.workers = 0}).run_batch(
        specs, [&print_fast](std::size_t index, const core::Report& run) {
          if (index == 0) {
            print_fast(run);
          }
        });
    const auto& fast = batch.runs.front();

    if (compare) {
      const auto& baseline = batch.runs.back();
      std::printf("\n--- baseline [7,8] with retention pauses ---\n%s\n",
                  baseline.summary().c_str());
      const double r = static_cast<double>(baseline.total_ns) /
                       static_cast<double>(fast.total_ns);
      std::printf("measured reduction factor R = %s\n",
                  fmt_ratio(r).c_str());
      std::printf("\n--- batch aggregate ---\n%s",
                  batch.summary().c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
