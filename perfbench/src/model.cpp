#include "model.h"

#include "service/serialize.h"

namespace perfbench {

using namespace fastdiag;

void ModelTally::add(const core::Report& report) {
  folded_.fold(report);
  if (report.repair || report.repair_2d) {
    ++repaired_runs_;
    clean_runs_ += report.repair_verified_clean ? 1 : 0;
  }
  records_ += report.result.log.records().size();
  injected_ += report.injected_faults;
  if (report.classification) {
    sites_ += report.classification->site_count();
  }
  if (report.soft_error) {
    upsets_ += report.soft_error->injected_upsets;
  }
}

void ModelTally::add_metrics(Result& result) const {
  const auto mean_or_one = [](const core::MetricFold& fold) {
    return fold.count == 0 ? 1.0 : fold.stats_unit().mean;
  };
  const double recall = folded_.recall.stats_unit().mean;
  const double sim_us = folded_.time_ns.stats_ns().mean / 1e3;
  const double accuracy = mean_or_one(folded_.accuracy);
  const double clean =
      repaired_runs_ == 0
          ? 1.0
          : static_cast<double>(clean_runs_) / static_cast<double>(repaired_runs_);
  const double detection = mean_or_one(folded_.soft_detection);
  const double contained = folded_.soft_escape.count == 0
                               ? 1.0
                               : 1.0 - folded_.soft_escape.stats_unit().mean;

  result.check(folded_.count > 0, "model prefix folded no run");
  const auto unit = [&result](double value, const char* name) {
    result.check(value >= 0.0 && value <= 1.0,
                 std::string(name) + " outside [0, 1]");
  };
  unit(recall, "recall");
  unit(accuracy, "classify_accuracy");
  unit(clean, "repair_clean_ratio");
  unit(detection, "soft_detection");
  unit(contained, "soft_contained");
  result.check(sim_us > 0.0, "sim_diag_us is not positive");

  result.add("recall", recall, "ratio");
  // Simulated time, fixed by geometry and scheme on most workloads; the
  // unit keeps it from being read as a host-time measurement.
  result.add("sim_diag_us", sim_us, "sim_us");
  result.add("classify_accuracy", accuracy, "ratio");
  result.add("repair_clean_ratio", clean, "ratio");
  result.add("soft_detection", detection, "ratio");
  result.add("soft_contained", contained, "ratio");
}

std::string ModelTally::digest() const {
  service::ByteWriter folded;
  service::encode_folded(folded, folded_);
  service::ByteWriter counters;
  for (const std::uint64_t value : {folded_.count, repaired_runs_, clean_runs_,
                                    records_, injected_, sites_, upsets_}) {
    counters.u64(value);
  }
  return "folded=" + hex64(fnv1a(folded.data().data(), folded.size())) +
         " counters=" +
         hex64(fnv1a(counters.data().data(), counters.size()));
}

}  // namespace perfbench
