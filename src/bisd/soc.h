// The collection of distributed small e-SRAMs one shared BISD controller
// diagnoses (Fig. 1 / Fig. 3).
//
// Each memory carries its own (possibly empty) injected fault population;
// the ground truth stays available for scoring.  The controller dimensions
// everything by the largest capacity and the widest IO count (Sec. 3.1).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "faults/fault.h"
#include "faults/injector.h"
#include "faults/soft_error.h"
#include "sram/sram.h"
#include "util/rng.h"

namespace fastdiag::bisd {

/// One instance-sliced execution group (see faults::OverlaySlab): up to 64
/// identical-geometry memories a scheme advances as bit-lanes of one packed
/// slab, each lane's fault sites overlaid on its column bits.  members are
/// memory indices in this SoC, ascending; lane k of the slab is members[k].
/// FastScheme gives a group one SPC, address generator and golden shadow;
/// every memory outside the groups runs on its own port.
struct SliceGroup {
  std::uint32_t words = 0;
  std::uint32_t bits = 0;
  std::vector<std::size_t> members;
};

class SocUnderTest {
 public:
  SocUnderTest() = default;

  /// Adds one memory with an explicit fault population.
  void add_memory(const sram::SramConfig& config,
                  std::vector<faults::FaultInstance> truth = {});

  /// Adds one in-field memory: static @p truth wrapped in a
  /// SoftErrorBehavior replaying @p upsets (with the ECC layer when
  /// @p soft.ecc is set).  Tests use this with handcrafted event streams
  /// for exact masking/miscorrection assertions.
  void add_in_field_memory(const sram::SramConfig& config,
                           std::vector<faults::FaultInstance> truth,
                           std::vector<faults::UpsetEvent> upsets,
                           const faults::SoftErrorSpec& soft);

  /// Builds a SoC by running the defect injector over every configuration
  /// with per-memory forked streams of @p seed.  When @p soft is non-null
  /// and enabled, each memory additionally draws its upset event stream
  /// from a second fork of its per-memory stream — still keyed only by
  /// (seed, memory index), so runs stay bit-identical at any worker count.
  [[nodiscard]] static SocUnderTest from_injection(
      const std::vector<sram::SramConfig>& configs,
      const faults::InjectionSpec& spec, std::uint64_t seed,
      const faults::SoftErrorSpec* soft = nullptr);

  [[nodiscard]] std::size_t memory_count() const { return memories_.size(); }
  [[nodiscard]] sram::Sram& memory(std::size_t index);
  [[nodiscard]] const sram::SramConfig& config(std::size_t index) const;
  [[nodiscard]] const std::vector<faults::FaultInstance>& truth(
      std::size_t index) const;

  /// Largest word count across memories (the controller's n).
  [[nodiscard]] std::uint32_t max_words() const;
  /// Widest IO count across memories (the controller's c).
  [[nodiscard]] std::uint32_t max_bits() const;

  /// Advances the simulated wall clock of every memory.
  void advance_time_ns(std::uint64_t ns);

  /// Selects the access kernel of every memory and remembers it as the
  /// SoC-level kernel (word_parallel by default, which lets schemes advance
  /// slice_groups() on overlaid slabs; per_cell forces the bit-at-a-time
  /// reference path everywhere — differential tests and benchmarks prove
  /// both bit-identical).
  void set_access_kernel(sram::AccessKernel kernel);
  [[nodiscard]] sram::AccessKernel access_kernel() const { return kernel_; }

  /// Instance-sliced execution groups: unrepaired, idle-capable,
  /// FaultSet-backed memories of identical geometry — faulty or not —
  /// chunked into groups of at most 64 in ascending memory-index order
  /// (deterministic — the 65th identical memory opens a second group), and
  /// kept only where faults::OverlaySlab::worth_slicing() says the group
  /// pays.  Repaired, idle-less and in-field (SoftErrorBehavior) memories
  /// are simply absent and stay on their own ports — an idle-less memory
  /// is read with data ignored on every shift clock, per-instance traffic
  /// a shared slab cannot replay.  Group membership is independent of the
  /// selected kernel; callers gate on access_kernel().
  [[nodiscard]] std::vector<SliceGroup> slice_groups() const;

  /// Total injected faults over all memories.
  [[nodiscard]] std::size_t total_faults() const;

  /// The in-field layer of memory @p index, or nullptr for a memory added
  /// without one.  Scanning schemes use it for ECC scrub hints; the engine
  /// for upset scoring.
  [[nodiscard]] faults::SoftErrorBehavior* soft_behavior(std::size_t index);

  /// The upset event stream of memory @p index (empty without an in-field
  /// layer) — the scoring ground truth, like truth() for static faults.
  [[nodiscard]] const std::vector<faults::UpsetEvent>& upsets(
      std::size_t index) const;

 private:
  struct Entry {
    std::unique_ptr<sram::Sram> memory;
    std::vector<faults::FaultInstance> truth;
    /// Non-owning view into the memory's behavior chain; null when the
    /// memory carries no in-field layer.
    faults::SoftErrorBehavior* soft = nullptr;
  };
  std::vector<Entry> memories_;
  sram::AccessKernel kernel_ = sram::AccessKernel::word_parallel;
};

}  // namespace fastdiag::bisd
