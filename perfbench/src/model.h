// Model outputs of a workload: what the simulated diagnosis concluded, as
// opposed to how fast the host computed it.
//
// They are taken over a fixed prefix of each workload's run stream, so for
// one seed they are identical on every run and every commit that only
// speeds the simulator up; a change that moves them changed the model.  The
// model is unvalidated (the repository holds no silicon reference), so no
// error figure is reported for it.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"
#include "core/report.h"

namespace perfbench {

class ModelTally {
 public:
  /// Folds one report; callers add the prefix runs in stream order.
  void add(const fastdiag::core::Report& report);

  [[nodiscard]] std::uint64_t runs() const { return folded_.count; }

  /// recall, sim_diag_us, classify_accuracy, repair_clean_ratio,
  /// soft_detection and soft_contained, plus range checks on each.  A rate
  /// whose denominator the workload never produces (no classified run, no
  /// repair, no in-field run) reads 1: nothing was misclassified, left
  /// dirty, missed or escaped — the convention SoftErrorOutcome uses.
  void add_metrics(Result& result) const;

  /// "folded=<fnv> counters=<fnv>" over encode_folded and the deterministic
  /// counters of the prefix.
  [[nodiscard]] std::string digest() const;

 private:
  fastdiag::core::AggregateReport::Folded folded_;
  std::uint64_t repaired_runs_ = 0;
  std::uint64_t clean_runs_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t injected_ = 0;
  std::uint64_t sites_ = 0;
  std::uint64_t upsets_ = 0;
};

}  // namespace perfbench
