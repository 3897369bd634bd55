// String-keyed registry of diagnosis-scheme factories.
//
// Schemes are looked up by name, carry capabilities the spec builder
// checks, and user-defined schemes plug in through
// register_scheme() without touching core.  The built-in schemes
// self-register into the global() instance:
//
//   "fast"                     SPC/PSC + March CW + NWRTM
//   "fast-without-drf"         SPC/PSC + March CW only
//   "baseline"                 [7,8] bi-dir serial + DiagRSMarch
//   "baseline-with-retention"  [7,8] plus the delay-based DRF block
//   "periodic_scan"            in-field soft-error sweeps (needs an enabled
//                              SoftErrorSpec in the context/spec)
//
// All member functions are safe to call concurrently; the engine's worker
// threads instantiate schemes through the same registry.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bisd/scheme.h"
#include "faults/soft_error.h"
#include "sram/timing.h"

namespace fastdiag::core {

/// What a scheme must be given to run; SessionSpec::build() checks it.
struct SchemeCapabilities {
  /// Monitors deployed memories for soft errors (periodic_scan) instead of
  /// running a manufacturing-time March diagnosis; requires — and is
  /// required by — a SessionSpec with an enabled SoftErrorSpec.
  bool in_field = false;
};

/// Everything a factory needs to instantiate a scheme for one run.
struct SchemeContext {
  sram::ClockDomain clock{10};
  faults::SoftErrorSpec soft_error{};
};

using SchemeFactory =
    std::function<std::unique_ptr<bisd::DiagnosisScheme>(const SchemeContext&)>;

class SchemeRegistry {
 public:
  SchemeRegistry() = default;
  SchemeRegistry(const SchemeRegistry&) = delete;
  SchemeRegistry& operator=(const SchemeRegistry&) = delete;

  /// The process-wide registry, pre-populated with the four built-ins.
  [[nodiscard]] static SchemeRegistry& global();

  /// Registers a factory under @p name.  Throws std::invalid_argument when
  /// the name is empty, the factory is null, or the name is taken.
  void register_scheme(const std::string& name, SchemeCapabilities caps,
                       SchemeFactory factory);

  [[nodiscard]] bool contains(const std::string& name) const;

  /// Instantiates the named scheme.  Throws std::invalid_argument for
  /// unknown names — validate first via contains() or SessionSpec::build().
  [[nodiscard]] std::unique_ptr<bisd::DiagnosisScheme> make(
      const std::string& name, const SchemeContext& context) const;

  /// Capabilities of a registered scheme (throws on unknown names).
  [[nodiscard]] SchemeCapabilities capabilities(const std::string& name) const;

  /// Registered names in sorted order.
  [[nodiscard]] std::vector<std::string> names() const;

  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    SchemeCapabilities caps;
    SchemeFactory factory;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace fastdiag::core
