#include "faults/injector.h"

#include <cmath>
#include <set>

#include "util/require.h"

namespace fastdiag::faults {

std::uint64_t expected_fault_count(const sram::SramConfig& config,
                                   const InjectionSpec& spec) {
  require(spec.cell_defect_rate >= 0.0 && spec.cell_defect_rate <= 1.0,
          "InjectionSpec: cell_defect_rate must be in [0,1]");
  if (spec.cell_defect_rate == 0.0) {
    return 0;
  }
  const double defective =
      static_cast<double>(config.cell_count()) * spec.cell_defect_rate;
  const auto count = static_cast<std::uint64_t>(
      std::floor(defective / kCellsPerFault));
  return count == 0 ? 1 : count;
}

InjectionResult inject(const sram::SramConfig& config,
                       const InjectionSpec& spec, Rng& rng) {
  config.validate();
  InjectionResult result;
  const std::uint64_t logic_faults = expected_fault_count(config, spec);
  if (logic_faults == 0) {
    return result;
  }

  std::uint64_t retention_faults = 0;
  if (spec.include_retention) {
    require(spec.retention_fraction >= 0.0 && spec.retention_fraction <= 1.0,
            "InjectionSpec: retention_fraction must be in [0,1]");
    retention_faults = static_cast<std::uint64_t>(std::ceil(
        static_cast<double>(logic_faults) * spec.retention_fraction));
  }

  // Distinct primary sites for every fault so instances do not pile up on
  // one cell (mirrors spot defects landing on different locations).
  const std::uint64_t total = logic_faults + retention_faults;
  require(total <= config.cell_count(),
          "inject: more faults requested than cells available");
  const auto sites =
      rng.sample_without_replacement(config.cell_count(), total);

  std::set<std::uint32_t> used_decoder_rows;
  const auto& classes = logic_defect_classes();
  for (std::uint64_t i = 0; i < total; ++i) {
    const sram::CellCoord site{
        static_cast<std::uint32_t>(sites[i] / config.bits),
        static_cast<std::uint32_t>(sites[i] % config.bits)};

    Defect defect;
    defect.site = site;
    if (i < logic_faults) {
      defect.cls =
          classes[static_cast<std::size_t>(rng.uniform(classes.size()))];
      if (defect.cls == DefectClass::decoder_open) {
        // One decoder defect per row at most; fall back to a cell defect
        // when this row's decoder is already broken.
        if (!used_decoder_rows.insert(site.row).second) {
          defect.cls = DefectClass::cell_short;
        }
      }
    } else {
      defect.cls = DefectClass::pullup_open;
    }
    result.defects.push_back(defect);
    result.faults.push_back(translate_defect(defect, config, rng));
  }
  return result;
}

}  // namespace fastdiag::faults
