#include "bisd/periodic_scan.h"

#include <algorithm>
#include <limits>

#include "util/require.h"

namespace fastdiag::bisd {

namespace {

/// The reference image every word holds between sweeps: a checkerboard,
/// the classic data background pattern with maximum neighbour activity.
BitVector checkerboard(std::uint32_t bits) {
  BitVector value(bits);
  for (std::uint32_t j = 1; j < bits; j += 2) value.set(j, true);
  return value;
}

}  // namespace

PeriodicScanScheme::PeriodicScanScheme(PeriodicScanOptions options)
    : options_(std::move(options)) {}

std::string PeriodicScanScheme::name() const { return "periodic_scan"; }

std::optional<ScanInfo> PeriodicScanScheme::scan_info() const {
  if (!ran_) return std::nullopt;
  return info_;
}

DiagnosisResult PeriodicScanScheme::diagnose(SocUnderTest& soc) {
  const faults::SoftErrorSpec& soft = options_.soft;
  require(soft.scan_period_ns > 0, "periodic_scan: scan period must be > 0");
  DiagnosisResult result;
  const std::uint64_t sweeps = soft.duration_ns / soft.scan_period_ns;
  // Records carry the sweep index in a 32-bit field.
  require(sweeps <= std::numeric_limits<std::uint32_t>::max(),
          "periodic_scan: more than 2^32 - 1 sweeps in the window");
  info_ = ScanInfo{soft.scan_period_ns, sweeps, 0};

  const std::size_t memories = soc.memory_count();
  const std::uint32_t max_words = soc.max_words();
  std::vector<BitVector> golden(memories);
  std::vector<std::uint32_t> background_ids(memories);
  for (std::size_t m = 0; m < memories; ++m) {
    golden[m] = checkerboard(soc.memory(m).bits());
    background_ids[m] = result.log.intern(golden[m]);
  }

  // t = 0: write the reference image everywhere (one controller cycle per
  // address, all memories in parallel — the distributed-BISD port model).
  for (std::uint32_t addr = 0; addr < max_words; ++addr) {
    result.time.add_cycles(1);
    for (std::size_t m = 0; m < memories; ++m) {
      if (addr < soc.memory(m).words()) soc.memory(m).write(addr, golden[m]);
    }
  }

  result.log.reserve(log_capacity_hint_);
  BitVector scratch;
  std::uint64_t now = 0;
  for (std::uint64_t k = 0; k < sweeps; ++k) {
    // Idle until this sweep's sample tick; upsets land during the gap.
    const std::uint64_t target = (k + 1) * soft.scan_period_ns;
    soc.advance_time_ns(target - now);
    result.time.add_pause_ns(target - now);
    now = target;
    // The sweep itself samples with the run clocks frozen, so every upset
    // present at the tick attributes exactly to sweep k.
    for (std::uint32_t addr = 0; addr < max_words; ++addr) {
      result.time.add_cycles(1);
      for (std::size_t m = 0; m < memories; ++m) {
        auto& memory = soc.memory(m);
        if (addr >= memory.words()) continue;
        memory.read_into(addr, scratch);
        bool mismatch = false;
        const std::uint32_t bits = memory.bits();
        for (std::uint32_t j = 0; j < bits; ++j) {
          if (scratch.get(j) == golden[m].get(j)) continue;
          mismatch = true;
          DiagnosisRecord record;
          record.memory_index = m;
          record.addr = addr;
          record.bit = j;
          record.background = background_ids[m];
          record.element = static_cast<std::uint32_t>(k);
          record.cycle = result.time.cycles;
          result.log.add(record);
        }
        bool corrected = false;
        if (soft.ecc) {
          const auto* soft_layer = soc.soft_behavior(m);
          corrected =
              soft_layer != nullptr && soft_layer->last_read_corrected();
        }
        const bool scrub =
            soft.scrub == faults::ScrubPolicy::periodic ||
            (soft.scrub == faults::ScrubPolicy::on_detect &&
             (mismatch || corrected));
        if (scrub) {
          memory.write(addr, golden[m]);
          result.time.add_cycles(1);
          ++info_.scrub_writes;
        }
      }
    }
  }
  // Run out the tail of the window past the last full sweep.
  if (soft.duration_ns > now) {
    soc.advance_time_ns(soft.duration_ns - now);
    result.time.add_pause_ns(soft.duration_ns - now);
  }
  result.iterations = std::max<std::uint64_t>(1, sweeps);
  ran_ = true;
  return result;
}

}  // namespace fastdiag::bisd
