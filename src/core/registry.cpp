#include "core/registry.h"

#include "bisd/baseline_scheme.h"
#include "bisd/fast_scheme.h"
#include "bisd/periodic_scan.h"
#include "util/require.h"

namespace fastdiag::core {

namespace {

void register_builtin_schemes(SchemeRegistry& registry) {
  registry.register_scheme(
      "fast", {}, [](const SchemeContext& context) {
        bisd::FastSchemeOptions options;
        options.clock = context.clock;
        options.include_drf = true;
        return std::make_unique<bisd::FastScheme>(options);
      });
  registry.register_scheme(
      "fast-without-drf", {}, [](const SchemeContext& context) {
        bisd::FastSchemeOptions options;
        options.clock = context.clock;
        options.include_drf = false;
        return std::make_unique<bisd::FastScheme>(options);
      });
  registry.register_scheme(
      "baseline", {}, [](const SchemeContext& context) {
        bisd::BaselineSchemeOptions options;
        options.clock = context.clock;
        options.include_drf = false;
        return std::make_unique<bisd::BaselineScheme>(options);
      });
  registry.register_scheme(
      "baseline-with-retention", {}, [](const SchemeContext& context) {
        bisd::BaselineSchemeOptions options;
        options.clock = context.clock;
        options.include_drf = true;
        return std::make_unique<bisd::BaselineScheme>(options);
      });
  registry.register_scheme(
      "periodic_scan", {.in_field = true}, [](const SchemeContext& context) {
        bisd::PeriodicScanOptions options;
        options.soft = context.soft_error;
        return std::make_unique<bisd::PeriodicScanScheme>(options);
      });
}

}  // namespace

SchemeRegistry& SchemeRegistry::global() {
  static SchemeRegistry* instance = [] {
    auto* registry = new SchemeRegistry;
    register_builtin_schemes(*registry);
    return registry;
  }();
  return *instance;
}

void SchemeRegistry::register_scheme(const std::string& name,
                                     SchemeCapabilities caps,
                                     SchemeFactory factory) {
  require(!name.empty(), "SchemeRegistry: scheme name must not be empty");
  require(factory != nullptr,
          "SchemeRegistry: factory for '" + name + "' must not be null");
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] =
      entries_.emplace(name, Entry{caps, std::move(factory)});
  (void)it;
  require(inserted, "SchemeRegistry: scheme '" + name + "' already registered");
}

bool SchemeRegistry::contains(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.count(name) != 0;
}

std::unique_ptr<bisd::DiagnosisScheme> SchemeRegistry::make(
    const std::string& name, const SchemeContext& context) const {
  SchemeFactory factory;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(name);
    require(it != entries_.end(),
            "SchemeRegistry: no scheme named '" + name + "' is registered");
    factory = it->second.factory;
  }
  // Invoke outside the lock; factories may be arbitrarily expensive.
  auto scheme = factory(context);
  ensure(scheme != nullptr,
         "SchemeRegistry: factory for '" + name + "' returned null");
  return scheme;
}

SchemeCapabilities SchemeRegistry::capabilities(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(name);
  require(it != entries_.end(),
          "SchemeRegistry: no scheme named '" + name + "' is registered");
  return it->second.caps;
}

std::vector<std::string> SchemeRegistry::names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    (void)entry;
    out.push_back(name);
  }
  return out;  // std::map keeps them sorted
}

std::size_t SchemeRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace fastdiag::core
