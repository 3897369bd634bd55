// Access-kernel selection, shared by the memory model and the public API.
//
// Kept in its own header so core/spec.h can name the enum without pulling
// the whole behavioral memory model into every API translation unit.
#pragma once

#include <optional>
#include <string_view>

namespace fastdiag::sram {

/// Which access hot path the simulation uses.
///
///  * word_parallel (the default) is the fast path.  A lone memory routes
///    single-row, unrepaired-column accesses through the word-level
///    FaultBehavior hooks: one packed limb copy plus the row's sparse fault
///    sites (faults::FaultSet).  Group executors (bisd::FastScheme over
///    bisd::SocUnderTest::slice_groups, march::MarchRunner::run_group)
///    additionally pack identical-geometry, unrepaired, FaultSet-backed
///    memories — faulty or not — as bit-lanes of an sram::InstanceSlab
///    (bit k of each limb = memory k's cell) and overlay each lane's fault
///    sites on its column bits (faults::OverlaySlab), so one March op
///    advances up to 64 memories per word operation.  Which groups slice
///    is decided from the group itself (lane count and width), never from
///    an option.
///  * per_cell forces the bit-at-a-time reference loop on every access and
///    never slices: the one differential reference.
///
/// Both produce bit-identical results — the reference exists so
/// differential tests and benchmarks can prove it.
enum class AccessKernel { word_parallel, per_cell };

/// "word_parallel" / "per_cell".
[[nodiscard]] constexpr const char* access_kernel_name(AccessKernel kernel) {
  switch (kernel) {
    case AccessKernel::word_parallel:
      return "word_parallel";
    case AccessKernel::per_cell:
      return "per_cell";
  }
  return "word_parallel";
}

/// Parses an access_kernel_name() string; nullopt for anything else.
[[nodiscard]] constexpr std::optional<AccessKernel> parse_access_kernel(
    std::string_view name) {
  if (name == "word_parallel") {
    return AccessKernel::word_parallel;
  }
  if (name == "per_cell") {
    return AccessKernel::per_cell;
  }
  return std::nullopt;
}

}  // namespace fastdiag::sram
