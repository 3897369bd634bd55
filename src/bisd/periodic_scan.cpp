#include "bisd/periodic_scan.h"

#include <algorithm>
#include <iterator>
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

/// One (address, memory) slot of a sweep, keyed so that ascending keys are
/// the controller's visiting order: address first, then memory.
std::uint64_t slot_key(std::uint32_t addr, std::size_t memory) {
  return (std::uint64_t{addr} << 32) | memory;
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
  info_ = ScanInfo{soft.scan_period_ns, sweeps, 0, 0};

  const std::size_t memories = soc.memory_count();
  const std::uint32_t max_words = soc.max_words();
  const bool periodic = soft.scrub == faults::ScrubPolicy::periodic;
  std::vector<BitVector> golden(memories);
  std::vector<std::uint32_t> background_ids(memories);
  std::vector<std::uint32_t> words(memories);
  std::vector<faults::SoftErrorBehavior*> layers(memories);
  // A row of an in-field memory without static fault sites reads back the
  // golden image unless it is live, so these memories sense only their
  // live rows; the word-parallel kernel is the fast path, per_cell the
  // full-sweep reference.
  std::vector<bool> event_driven(memories);
  for (std::size_t m = 0; m < memories; ++m) {
    auto& memory = soc.memory(m);
    golden[m] = checkerboard(memory.bits());
    background_ids[m] = result.log.intern(golden[m]);
    words[m] = memory.words();
    layers[m] = soc.soft_behavior(m);
    event_driven[m] = layers[m] != nullptr && soc.truth(m).empty() &&
                      memory.access_kernel() != sram::AccessKernel::per_cell;
  }

  // The slots every sweep senses (full-sweep memories), in visiting order,
  // and slots_below[a], the number of slots at addresses below a.
  std::vector<std::uint64_t> full_slots;
  std::vector<std::uint64_t> slots_below(max_words + 1, 0);
  for (std::uint32_t addr = 0; addr < max_words; ++addr) {
    slots_below[addr + 1] = slots_below[addr];
    for (std::size_t m = 0; m < memories; ++m) {
      if (addr >= words[m]) continue;
      ++slots_below[addr + 1];
      if (!event_driven[m]) full_slots.push_back(slot_key(addr, m));
    }
  }
  const auto slots_before = [&](std::uint32_t addr, std::size_t m) {
    std::uint64_t before = slots_below[addr];
    for (std::size_t other = 0; other < m; ++other) {
      before += addr < words[other] ? 1 : 0;
    }
    return before;
  };

  // t = 0: write the reference image everywhere (one controller cycle per
  // address, all memories in parallel — the distributed-BISD port model).
  for (std::uint32_t addr = 0; addr < max_words; ++addr) {
    result.time.add_cycles(1);
    for (std::size_t m = 0; m < memories; ++m) {
      if (addr < words[m]) soc.memory(m).write(addr, golden[m]);
    }
  }

  BitVector scratch;
  std::vector<std::uint32_t> rows;
  std::vector<std::uint64_t> live;
  std::vector<std::uint64_t> visits;
  std::vector<std::uint64_t> sensed(memories, 0);
  std::uint64_t now = 0;
  for (std::uint64_t k = 0; k < sweeps; ++k) {
    // Idle until this sweep's sample tick; upsets land during the gap.
    const std::uint64_t target = (k + 1) * soft.scan_period_ns;
    soc.advance_time_ns(target - now);
    result.time.add_pause_ns(target - now);
    now = target;
    // The sweep itself samples with the run clocks frozen, so every upset
    // present at the tick attributes exactly to sweep k.
    live.clear();
    for (std::size_t m = 0; m < memories; ++m) {
      if (!event_driven[m]) continue;
      auto& memory = soc.memory(m);
      layers[m]->commit_up_to(memory.cells_mut(), memory.now_ns());
      layers[m]->live_rows(memory.now_ns(), rows);
      for (const std::uint32_t row : rows) live.push_back(slot_key(row, m));
    }
    std::sort(live.begin(), live.end());
    visits.clear();
    std::merge(full_slots.begin(), full_slots.end(), live.begin(), live.end(),
               std::back_inserter(visits));
    info_.rows_sensed += visits.size();

    const std::uint64_t base = result.time.cycles;
    std::uint64_t scrubs = 0;
    for (const std::uint64_t slot : visits) {
      const auto addr = static_cast<std::uint32_t>(slot >> 32);
      const auto m = static_cast<std::size_t>(slot & 0xFFFF'FFFFu);
      auto& memory = soc.memory(m);
      memory.read_into(addr, scratch);
      ++sensed[m];
      // One cycle per address up to this one, plus every scrub before this
      // slot; under periodic scrubbing, each earlier slot issued one.
      const std::uint64_t cycle =
          base + addr + 1 + (periodic ? slots_before(addr, m) : scrubs);
      // The whole word is compared at once: one non-serial event covers
      // every failing bit of it, one entry per failing limb.
      bool mismatch = false;
      std::uint32_t event = 0;
      const std::uint64_t* read = scratch.word_data();
      const std::uint64_t* expected = golden[m].word_data();
      for (std::size_t limb = 0; limb < golden[m].word_count(); ++limb) {
        const std::uint64_t diff = read[limb] ^ expected[limb];
        if (diff == 0) {
          continue;
        }
        if (!mismatch) {
          DiagnosisEvent sensed;
          sensed.cycle_base = cycle;
          sensed.element = static_cast<std::uint32_t>(k);
          sensed.background = background_ids[m];
          event = result.log.intern(sensed);
          mismatch = true;
        }
        result.log.add_word(static_cast<std::uint32_t>(m), addr,
                            static_cast<std::uint32_t>(limb), diff, event);
      }
      const bool corrected = soft.ecc && layers[m] != nullptr &&
                             layers[m]->last_read_corrected();
      if (periodic || (soft.scrub == faults::ScrubPolicy::on_detect &&
                       (mismatch || corrected))) {
        memory.write(addr, golden[m]);
        ++scrubs;
        ++info_.scrub_writes;
      }
    }
    const std::uint64_t sweep_scrubs = periodic ? slots_below[max_words]
                                                : scrubs;
    result.time.add_cycles(max_words + sweep_scrubs);
  }

  // Credit the slots the sweeps skipped: each read the golden image back
  // and, under periodic scrubbing, wrote it again.
  for (std::size_t m = 0; m < memories; ++m) {
    const std::uint64_t credited = sweeps * words[m] - sensed[m];
    if (credited == 0) continue;
    auto& memory = soc.memory(m);
    sram::OpCounters ops;
    ops.reads = credited;
    if (periodic) {
      ops.writes = credited;
      info_.scrub_writes += credited;
    }
    memory.credit_ops(ops);
    // The memory's last read was its last address in the final sweep.
    if (!std::binary_search(visits.begin(), visits.end(),
                            slot_key(words[m] - 1, m))) {
      memory.restore_sense_latch(golden[m]);
    }
  }

  // Run out the tail of the window past the last full sweep.
  if (soft.duration_ns > now) {
    soc.advance_time_ns(soft.duration_ns - now);
    result.time.add_pause_ns(soft.duration_ns - now);
  }
  result.iterations = std::max<std::uint64_t>(1, sweeps);
  result.log.seal();
  ran_ = true;
  return result;
}

}  // namespace fastdiag::bisd
