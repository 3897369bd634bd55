#include "bisd/soc.h"

#include "faults/fault_set.h"
#include "faults/overlay_slab.h"
#include "util/require.h"

namespace fastdiag::bisd {

void SocUnderTest::add_memory(const sram::SramConfig& config,
                              std::vector<faults::FaultInstance> truth) {
  config.validate();
  for (const auto& fault : truth) {
    fault.validate(config);
  }
  Entry entry;
  entry.memory = std::make_unique<sram::Sram>(
      config, std::make_unique<faults::FaultSet>(truth));
  entry.truth = std::move(truth);
  memories_.push_back(std::move(entry));
}

void SocUnderTest::add_in_field_memory(
    const sram::SramConfig& config, std::vector<faults::FaultInstance> truth,
    std::vector<faults::UpsetEvent> upsets,
    const faults::SoftErrorSpec& soft) {
  config.validate();
  for (const auto& fault : truth) {
    fault.validate(config);
  }
  auto behavior = std::make_unique<faults::SoftErrorBehavior>(
      std::make_unique<faults::FaultSet>(truth), std::move(upsets), soft.ecc);
  Entry entry;
  entry.soft = behavior.get();
  entry.memory = std::make_unique<sram::Sram>(config, std::move(behavior));
  entry.truth = std::move(truth);
  memories_.push_back(std::move(entry));
}

SocUnderTest SocUnderTest::from_injection(
    const std::vector<sram::SramConfig>& configs,
    const faults::InjectionSpec& spec, std::uint64_t seed,
    const faults::SoftErrorSpec* soft) {
  require(!configs.empty(), "SocUnderTest: at least one memory required");
  SocUnderTest soc;
  Rng root(seed);
  const bool in_field = soft != nullptr && soft->enabled;
  for (const auto& config : configs) {
    Rng stream = root.fork();
    auto injection = faults::inject(config, spec, stream);
    if (in_field) {
      Rng upset_stream = stream.fork();
      auto upsets = faults::generate_upsets(config, *soft, upset_stream);
      soc.add_in_field_memory(config, std::move(injection.faults),
                              std::move(upsets), *soft);
    } else {
      soc.add_memory(config, std::move(injection.faults));
    }
  }
  return soc;
}

sram::Sram& SocUnderTest::memory(std::size_t index) {
  require_in_range(index < memories_.size(), "SocUnderTest: bad memory index");
  return *memories_[index].memory;
}

const sram::SramConfig& SocUnderTest::config(std::size_t index) const {
  require_in_range(index < memories_.size(), "SocUnderTest: bad memory index");
  return memories_[index].memory->config();
}

const std::vector<faults::FaultInstance>& SocUnderTest::truth(
    std::size_t index) const {
  require_in_range(index < memories_.size(), "SocUnderTest: bad memory index");
  return memories_[index].truth;
}

std::uint32_t SocUnderTest::max_words() const {
  require(!memories_.empty(), "SocUnderTest: empty SoC");
  std::uint32_t best = 0;
  for (const auto& entry : memories_) {
    best = std::max(best, entry.memory->words());
  }
  return best;
}

std::uint32_t SocUnderTest::max_bits() const {
  require(!memories_.empty(), "SocUnderTest: empty SoC");
  std::uint32_t best = 0;
  for (const auto& entry : memories_) {
    best = std::max(best, entry.memory->bits());
  }
  return best;
}

void SocUnderTest::advance_time_ns(std::uint64_t ns) {
  for (auto& entry : memories_) {
    entry.memory->advance_time_ns(ns);
  }
}

void SocUnderTest::set_access_kernel(sram::AccessKernel kernel) {
  kernel_ = kernel;
  for (auto& entry : memories_) {
    entry.memory->set_access_kernel(kernel);
  }
}

std::vector<SliceGroup> SocUnderTest::slice_groups() const {
  std::vector<SliceGroup> groups;
  for (std::size_t i = 0; i < memories_.size(); ++i) {
    const auto& memory = *memories_[i].memory;
    // Idle mode is required: a memory without it performs per-shift-clock
    // dummy reads during PSC drain, which a shared slab cannot replicate
    // per lane without giving up the whole win.  In-field memories fail
    // lane_capable(): their upsets are timed per-instance state.
    if (!faults::OverlaySlab::lane_capable(memory) ||
        !memory.config().has_idle_mode) {
      continue;
    }
    SliceGroup* open = nullptr;
    for (auto& group : groups) {
      if (group.words == memory.words() && group.bits == memory.bits() &&
          group.members.size() < 64) {
        open = &group;
        break;
      }
    }
    if (open == nullptr) {
      groups.push_back(SliceGroup{memory.words(), memory.bits(), {}});
      open = &groups.back();
    }
    open->members.push_back(i);
  }
  std::erase_if(groups, [](const SliceGroup& group) {
    return !faults::OverlaySlab::worth_slicing(group.members.size(),
                                               group.bits);
  });
  return groups;
}

faults::SoftErrorBehavior* SocUnderTest::soft_behavior(std::size_t index) {
  require_in_range(index < memories_.size(), "SocUnderTest: bad memory index");
  return memories_[index].soft;
}

const std::vector<faults::UpsetEvent>& SocUnderTest::upsets(
    std::size_t index) const {
  require_in_range(index < memories_.size(), "SocUnderTest: bad memory index");
  static const std::vector<faults::UpsetEvent> kEmpty;
  const auto* soft = memories_[index].soft;
  return soft == nullptr ? kEmpty : soft->events();
}

std::size_t SocUnderTest::total_faults() const {
  std::size_t total = 0;
  for (const auto& entry : memories_) {
    total += entry.truth.size();
  }
  return total;
}

}  // namespace fastdiag::bisd
