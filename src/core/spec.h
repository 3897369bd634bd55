// SessionSpec: the immutable, value-semantic description of one diagnosis
// run — which SoC, which manufacturing model, which scheme, whether to
// repair.
//
// Specs are produced by SessionSpec::Builder, which collects parameters
// without throwing and validates everything in one place: build() returns
// Expected<SessionSpec, ConfigError> instead of deferring errors to
// run()-time exceptions.  A validated spec cannot be mutated, so it can be
// copied freely across engine worker threads and replayed bit-identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/errors.h"
#include "core/expected.h"
#include "core/registry.h"
#include "faults/injector.h"
#include "sram/access_kernel.h"
#include "sram/config.h"
#include "sram/timing.h"

namespace fastdiag::core {

class SessionSpec {
 public:
  class Builder;

  /// Entry point: SessionSpec::builder().add_sram(...)....build().
  [[nodiscard]] static Builder builder();

  [[nodiscard]] const std::vector<sram::SramConfig>& configs() const {
    return configs_;
  }
  [[nodiscard]] const sram::ClockDomain& clock() const { return clock_; }
  [[nodiscard]] const faults::InjectionSpec& injection() const {
    return injection_;
  }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] const std::string& scheme() const { return scheme_; }
  [[nodiscard]] bool repair() const { return repair_; }
  [[nodiscard]] bool column_spares() const { return column_spares_; }
  [[nodiscard]] bool classify() const { return classify_; }
  [[nodiscard]] sram::AccessKernel access_kernel() const { return kernel_; }
  [[nodiscard]] const faults::SoftErrorSpec& soft_error() const {
    return soft_error_;
  }

  /// A builder pre-loaded with this spec's values — the way to derive
  /// variants (sweeps change one axis per derived spec).
  [[nodiscard]] Builder rebuild() const;

  /// "fast seed=7 rate=1.00% memories=2" — used by reports and observers.
  [[nodiscard]] std::string label() const;

 private:
  SessionSpec() = default;

  std::vector<sram::SramConfig> configs_;
  sram::ClockDomain clock_{10};
  faults::InjectionSpec injection_;
  std::uint64_t seed_ = 1;
  std::string scheme_ = "fast";
  bool repair_ = false;
  bool column_spares_ = false;
  bool classify_ = false;
  sram::AccessKernel kernel_ = sram::AccessKernel::word_parallel;
  faults::SoftErrorSpec soft_error_{};
};

class SessionSpec::Builder {
 public:
  Builder();

  /// Setters never throw and never validate; build() is the single
  /// validation point.
  Builder& add_sram(const sram::SramConfig& config);
  Builder& add_srams(const std::vector<sram::SramConfig>& configs);
  Builder& clear_srams();

  /// BISD controller clock period (default 10 ns, the paper's t).
  Builder& clock_ns(std::uint64_t period_ns);

  /// Fraction of defective cells (default 0.01, the case study's 1 %).
  Builder& defect_rate(double rate);

  /// Also inject open-pull-up (DRF) defects (default true).
  Builder& include_retention_faults(bool include);

  /// Share of additional DRFs relative to the logic faults (default 0.1).
  Builder& retention_fraction(double fraction);

  Builder& seed(std::uint64_t seed);

  /// Scheme by registry name (default "fast").
  Builder& scheme(const std::string& name);

  /// Repair from the backup memories after diagnosis and re-run the scheme
  /// to verify (default false).
  Builder& with_repair(bool repair);

  /// Use the 2-D row+column allocator instead of row-only repair (default
  /// false).
  Builder& use_column_spares(bool use);

  /// Classify diagnosis syndromes into fault-kind hypotheses and score
  /// them against the injected ground truth (default false).  Only
  /// march-attributed schemes (the fast family) produce classifiable logs;
  /// other schemes leave Report::classification empty.
  Builder& classify(bool classify);

  /// Simulation access kernel (default word_parallel).  word_parallel
  /// advances groups of up to 64 identical-geometry memories as bit-lanes
  /// of one packed slab with each lane's fault sites overlaid
  /// (faults::OverlaySlab) and everything else through packed word ops.
  /// per_cell forces the bit-at-a-time reference path in every memory —
  /// slow, but the oracle the fast kernel is differentially tested against;
  /// reports are bit-identical.
  Builder& access_kernel(sram::AccessKernel kernel);

  /// In-field soft-error workload (default disabled).  When enabled the
  /// engine layers timestamped upsets (and optionally on-die ECC) over each
  /// memory and the scheme must carry the in_field capability
  /// (periodic_scan); enabling it together with with_repair(), or selecting
  /// an in-field scheme without enabling it, is rejected by build().
  Builder& soft_error(const faults::SoftErrorSpec& spec);

  /// Validates every collected parameter — memory present, each SramConfig
  /// sane, clock > 0, rates in range, scheme registered in @p registry —
  /// and freezes the result into an immutable SessionSpec.
  [[nodiscard]] Expected<SessionSpec, ConfigError> build(
      const SchemeRegistry& registry = SchemeRegistry::global()) const;

 private:
  friend class SessionSpec;
  SessionSpec draft_;
};

}  // namespace fastdiag::core
