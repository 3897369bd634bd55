#include "core/spec.h"

#include <cstdint>
#include <exception>
#include <limits>

#include "util/table.h"

namespace fastdiag::core {

SessionSpec::Builder SessionSpec::builder() { return Builder(); }

SessionSpec::Builder SessionSpec::rebuild() const {
  Builder builder;
  builder.draft_ = *this;
  return builder;
}

std::string SessionSpec::label() const {
  return scheme_ + " seed=" + std::to_string(seed_) +
         " rate=" + fmt_percent(injection_.cell_defect_rate) +
         " memories=" + std::to_string(configs_.size());
}

SessionSpec::Builder::Builder() {
  draft_.injection_.include_retention = true;
}

SessionSpec::Builder& SessionSpec::Builder::add_sram(
    const sram::SramConfig& config) {
  draft_.configs_.push_back(config);
  return *this;
}

SessionSpec::Builder& SessionSpec::Builder::add_srams(
    const std::vector<sram::SramConfig>& configs) {
  draft_.configs_.insert(draft_.configs_.end(), configs.begin(),
                         configs.end());
  return *this;
}

SessionSpec::Builder& SessionSpec::Builder::clear_srams() {
  draft_.configs_.clear();
  return *this;
}

SessionSpec::Builder& SessionSpec::Builder::clock_ns(
    std::uint64_t period_ns) {
  draft_.clock_.period_ns = period_ns;
  return *this;
}

SessionSpec::Builder& SessionSpec::Builder::defect_rate(double rate) {
  draft_.injection_.cell_defect_rate = rate;
  return *this;
}

SessionSpec::Builder& SessionSpec::Builder::include_retention_faults(
    bool include) {
  draft_.injection_.include_retention = include;
  return *this;
}

SessionSpec::Builder& SessionSpec::Builder::retention_fraction(
    double fraction) {
  draft_.injection_.retention_fraction = fraction;
  return *this;
}

SessionSpec::Builder& SessionSpec::Builder::seed(std::uint64_t seed) {
  draft_.seed_ = seed;
  return *this;
}

SessionSpec::Builder& SessionSpec::Builder::scheme(const std::string& name) {
  draft_.scheme_ = name;
  return *this;
}

SessionSpec::Builder& SessionSpec::Builder::with_repair(bool repair) {
  draft_.repair_ = repair;
  return *this;
}

SessionSpec::Builder& SessionSpec::Builder::use_column_spares(bool use) {
  draft_.column_spares_ = use;
  return *this;
}

SessionSpec::Builder& SessionSpec::Builder::classify(bool classify) {
  draft_.classify_ = classify;
  return *this;
}

SessionSpec::Builder& SessionSpec::Builder::access_kernel(
    sram::AccessKernel kernel) {
  draft_.kernel_ = kernel;
  return *this;
}

SessionSpec::Builder& SessionSpec::Builder::soft_error(
    const faults::SoftErrorSpec& spec) {
  draft_.soft_error_ = spec;
  return *this;
}

Expected<SessionSpec, ConfigError> SessionSpec::Builder::build(
    const SchemeRegistry& registry) const {
  const auto fail = [](ConfigErrorCode code, std::string message) {
    return make_unexpected(ConfigError{code, std::move(message)});
  };

  if (draft_.configs_.empty()) {
    return fail(ConfigErrorCode::no_memory,
                "a spec needs at least one SRAM configuration");
  }
  for (const auto& config : draft_.configs_) {
    try {
      config.validate();
    } catch (const std::exception& e) {
      return fail(ConfigErrorCode::invalid_memory,
                  "SRAM '" + config.name + "': " + e.what());
    }
  }
  if (draft_.clock_.period_ns == 0) {
    return fail(ConfigErrorCode::invalid_clock,
                "controller clock period must be > 0 ns");
  }
  const double rate = draft_.injection_.cell_defect_rate;
  if (!(rate >= 0.0 && rate <= 1.0)) {
    return fail(ConfigErrorCode::invalid_defect_rate,
                "defect rate " + std::to_string(rate) +
                    " outside [0, 1]");
  }
  const double fraction = draft_.injection_.retention_fraction;
  if (!(fraction >= 0.0 && fraction <= 1.0)) {
    return fail(ConfigErrorCode::invalid_retention_fraction,
                "retention fraction " + std::to_string(fraction) +
                    " outside [0, 1]");
  }
  if (!registry.contains(draft_.scheme_)) {
    return fail(ConfigErrorCode::unknown_scheme,
                "no scheme named '" + draft_.scheme_ +
                    "' is registered");
  }
  const SchemeCapabilities caps = registry.capabilities(draft_.scheme_);
  const faults::SoftErrorSpec& soft = draft_.soft_error_;
  if (soft.enabled) {
    if (soft.scan_period_ns == 0) {
      return fail(ConfigErrorCode::invalid_soft_error,
                  "soft-error scan period must be > 0 ns");
    }
    if (soft.duration_ns < soft.scan_period_ns) {
      return fail(ConfigErrorCode::invalid_soft_error,
                  "soft-error duration must cover at least one scan period");
    }
    if (soft.duration_ns / soft.scan_period_ns >
        std::numeric_limits<std::uint32_t>::max()) {
      // Diagnosis records carry the sweep index in 32 bits.
      return fail(ConfigErrorCode::invalid_soft_error,
                  "soft-error window holds more than 2^32 - 1 scan sweeps");
    }
    if (soft.mean_upset_gap_ns == 0) {
      return fail(ConfigErrorCode::invalid_soft_error,
                  "mean upset gap must be > 0 ns");
    }
    if (soft.mean_upset_gap_ns > faults::kMaxMeanUpsetGapNs) {
      // Gaps are drawn from [1, 2 * mean - 1], which must not wrap.
      return fail(ConfigErrorCode::invalid_soft_error,
                  "mean upset gap must be <= 2^63 ns");
    }
    const double intermittent = soft.intermittent_fraction;
    if (!(intermittent >= 0.0 && intermittent <= 1.0)) {
      return fail(ConfigErrorCode::invalid_soft_error,
                  "intermittent fraction " + std::to_string(intermittent) +
                      " outside [0, 1]");
    }
    if (intermittent > 0.0 && soft.intermittent_hold_ns == 0) {
      return fail(ConfigErrorCode::invalid_soft_error,
                  "intermittent hold window must be > 0 ns");
    }
    if (draft_.repair_) {
      return fail(ConfigErrorCode::invalid_soft_error,
                  "repair is a manufacturing-flow pass; disable it for "
                  "in-field soft-error runs");
    }
    if (!caps.in_field) {
      return fail(ConfigErrorCode::scheme_capability_mismatch,
                  "scheme '" + draft_.scheme_ +
                      "' is not an in-field scheme; soft-error workloads "
                      "need one (e.g. periodic_scan)");
    }
  } else if (caps.in_field) {
    return fail(ConfigErrorCode::scheme_capability_mismatch,
                "scheme '" + draft_.scheme_ +
                    "' monitors in-field upsets; enable the soft-error "
                    "workload (Builder::soft_error)");
  }
  return draft_;
}

}  // namespace fastdiag::core
