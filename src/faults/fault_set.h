// The fault-semantics engine: a sram::FaultBehavior that applies an
// arbitrary set of FaultInstances to every memory operation.
//
// Semantics (standard functional fault models):
//  * stuck-at cells always read their forced value; writes do not change it;
//  * transition faults block the affected 0->1 / 1->0 write transition;
//  * stuck-open cells never drive the bitlines (the Sram falls back to its
//    sense-amp latch) and writes do not reach them;
//  * coupling effects fire on *direct* aggressor transitions (one level, no
//    cascading — the usual single-step linked-fault simplification);
//  * state coupling <s;v> pins the victim to v whenever the aggressor holds
//    s: enforced at aggressor transitions, at victim writes and at victim
//    reads;
//  * DRF cells lose the affected value retention_ns after it was written
//    (decay is evaluated lazily against the memory's simulated clock), and a
//    No-Write-Recovery cycle toward the weak value fails outright, which is
//    exactly what NWRTM exploits (Sec. 3.4);
//  * address faults rewrite the decode: no row, a wrong row, or an extra row.
//
// Sparse fault-site overlay.  attach() compiles the population into flat
// records: one Site per cell that carries defect state, a state-coupling
// pin or a coupling-aggressor role (sorted by row, then bit, with the
// row's range in a CSR offset table), the pins and aggressor fires those
// sites own, and a per-address decode table.  Every other cell is plain
// storage.  Sites are per *cell*, not per fault, so faults sharing a cell,
// row or column compose exactly as the per-cell reference composes them.
//
// The same records drive three paths, all bit-identical:
//  * the per-cell hooks (write_cell / read_cell) — the reference the
//    per_cell kernel runs on every bit, looking the cell's site up;
//  * the word-level hooks on a single decoded row — one packed limb copy
//    plus O(sites in the row) exact patches;
//  * faults::OverlaySlab, which folds single-kind sites of many lanes into
//    per-column lane masks of an instance-sliced sram::InstanceSlab and
//    replays every other site through write_sites / read_sites on one
//    bit-lane (SlabLane below).
// The templated entry points take any storage with get(CellCoord) and
// set(CellCoord, bool): sram::CellArray or SlabLane.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "faults/fault.h"
#include "sram/fault_behavior.h"

namespace fastdiag::faults {

/// One bit-lane of an instance-sliced arena (rows x bits lane limbs,
/// row-major): the storage view OverlaySlab hands the site records.
struct SlabLane {
  std::uint64_t* arena = nullptr;
  std::uint32_t bits = 0;
  std::uint32_t lane = 0;

  [[nodiscard]] bool get(sram::CellCoord cell) const {
    return ((arena[static_cast<std::size_t>(cell.row) * bits + cell.bit] >>
             lane) &
            1u) != 0;
  }
  void set(sram::CellCoord cell, bool value) {
    std::uint64_t& limb =
        arena[static_cast<std::size_t>(cell.row) * bits + cell.bit];
    limb = (limb & ~(std::uint64_t{1} << lane)) |
           (static_cast<std::uint64_t>(value) << lane);
  }
};

class FaultSet final : public sram::FaultBehavior {
 public:
  /// One compiled fault site (a cell with fault state of any kind).
  struct Site {
    sram::CellCoord cell{};
    std::uint8_t flags = 0;  ///< kSa0 | kSa1 | kTfUp | ... of the cell
    std::uint32_t pin_begin = 0;  ///< state-coupling pins on this victim
    std::uint32_t pin_end = 0;
    std::uint32_t fire_begin = 0;  ///< couplings this aggressor fires
    std::uint32_t fire_end = 0;
    std::uint64_t since_ns = 0;  ///< DRF cells: when the value was stored
  };
  static constexpr std::uint8_t kSa0 = 1;
  static constexpr std::uint8_t kSa1 = 2;
  static constexpr std::uint8_t kTfUp = 4;
  static constexpr std::uint8_t kTfDown = 8;
  static constexpr std::uint8_t kSof = 16;
  static constexpr std::uint8_t kDrf0 = 32;
  static constexpr std::uint8_t kDrf1 = 64;
  static constexpr std::uint8_t kDrf = kDrf0 | kDrf1;

  FaultSet() = default;

  /// Builds the engine from @p faults; instances are validated on attach().
  explicit FaultSet(std::vector<FaultInstance> faults);

  /// Adds one instance (before or after attach(); after attach the records
  /// are recompiled, keeping every existing site's retention clock).
  void add(const FaultInstance& fault);

  [[nodiscard]] const std::vector<FaultInstance>& faults() const {
    return faults_;
  }

  // sram::FaultBehavior --------------------------------------------------
  void attach(const sram::SramConfig& config) override;
  void decode(std::uint32_t addr, std::vector<std::uint32_t>& rows) override;
  void write_cell(sram::CellArray& cells, sram::CellCoord cell, bool value,
                  sram::WriteStyle style, std::uint64_t now_ns) override;
  bool read_cell(sram::CellArray& cells, sram::CellCoord cell,
                 std::uint64_t now_ns, bool& drives) override;
  void begin_word_op() override;
  void end_word_op(sram::CellArray& cells, std::uint64_t now_ns) override;

  /// Word-level hooks: one packed limb copy of the row, then the row's
  /// sites patched in ascending bit order with the exact per-cell
  /// semantics (coupling disturbs land after the whole word).
  void write_row(sram::CellArray& cells, std::uint32_t row,
                 const BitVector& value, sram::WriteStyle style,
                 std::uint64_t now_ns) override;
  bool read_row(sram::CellArray& cells, std::uint32_t row, BitVector& out,
                BitVector& drives, std::uint64_t now_ns) override;

  // ---- overlay records (valid after attach) --------------------------------

  /// True when an address fault rewrites the decode of @p addr.
  [[nodiscard]] bool address_faulty(std::uint32_t addr) const {
    if (decode_offset_.empty()) {
      return false;
    }
    const auto rows = decode_rows(addr);
    return rows.size() != 1 || rows.front() != addr;
  }

  /// The physical rows logical @p addr decodes to (ascending, deduped).
  /// Call only where address_faulty(addr) holds: the table exists only
  /// when some address fault is present, and every other address decodes
  /// to its own row.
  [[nodiscard]] std::span<const std::uint32_t> decode_rows(
      std::uint32_t addr) const {
    return {decode_rows_.data() + decode_offset_[addr],
            decode_offset_[addr + 1] - decode_offset_[addr]};
  }

  /// The sites of physical @p row, ascending by bit.
  [[nodiscard]] std::span<const Site> row_sites(std::uint32_t row) const {
    return {sites_.data() + row_offset_[row],
            row_offset_[row + 1] - row_offset_[row]};
  }

  /// Applies one word-write pulse to the sites of @p rows (in order, each
  /// ascending by bit), then fires the queued coupling disturbs.  The clean
  /// cells of those rows must already hold the written word and every site
  /// cell its pre-write value.  @p value(bit) is the written data bit.
  template <typename Storage, typename Value>
  void write_sites(Storage& storage, std::span<const std::uint32_t> rows,
                   const Value& value, sram::WriteStyle style,
                   std::uint64_t now_ns);

  /// Reads the sites of the single decoded @p row (ascending by bit):
  /// @p out(bit, value, drives) receives each site cell's sensed value and
  /// whether it drove its bitlines.  Clean cells read their stored value.
  template <typename Storage, typename Out>
  void read_sites(Storage& storage, std::uint32_t row, std::uint64_t now_ns,
                  Out&& out);

  /// Multi-row (address-fault) read: for every column holding a site in
  /// any of @p rows, @p out(bit, value, any_driver) receives the wired-AND
  /// of the driving cells over @p rows, evaluated bit-major like the
  /// per-cell reference.
  template <typename Storage, typename Out>
  void read_sites_wired(Storage& storage, std::span<const std::uint32_t> rows,
                        std::uint64_t now_ns, Out&& out);

 private:
  /// Packs single-kind sites of whole lanes into per-column lane masks and
  /// fires aggressor transitions it detects in packed form.
  friend class OverlaySlab;

  struct Pin {
    sram::CellCoord aggressor;
    bool state = false;   ///< aggressor state s that triggers the pin
    bool forced = false;  ///< victim value v while pinned
  };

  struct Fire {
    sram::CellCoord victim;
    std::int32_t victim_site = -1;  ///< index into sites_, -1 when none
    bool trigger = false;  ///< fires when the aggressor's new value is this
    bool invert = false;   ///< CFin flips the victim; otherwise force
    bool forced = false;
  };

  struct Pending {
    std::uint32_t site = 0;
    bool new_value = false;
  };

  void compile();
  [[nodiscard]] std::int32_t find_site(sram::CellCoord cell) const;

  /// Commits pending retention decay of the site's cell, returns the
  /// settled value.
  template <typename Storage>
  bool settle(Storage& storage, Site& site, std::uint64_t now_ns);
  /// The victim-side CFst pin: the forced value while an aggressor holds
  /// its trigger state, else @p value.
  template <typename Storage>
  bool pinned(const Storage& storage, const Site& site, bool value) const;
  /// One exact write_cell of a site cell; transitions of aggressors are
  /// queued in pending_ (end_word_op ordering) or fired at once.
  template <typename Storage>
  void write_site(Storage& storage, std::uint32_t index, bool value,
                  sram::WriteStyle style, std::uint64_t now_ns, bool queue);
  template <typename Storage>
  bool read_site(Storage& storage, std::uint32_t index, std::uint64_t now_ns,
                 bool& drives);
  /// Applies the coupling side effects of site @p index transitioning to
  /// @p new_value.
  template <typename Storage>
  void fire(Storage& storage, std::uint32_t index, bool new_value,
            std::uint64_t now_ns);
  template <typename Storage>
  void flush_pending(Storage& storage, std::uint64_t now_ns);

  sram::SramConfig config_;
  bool attached_ = false;
  std::vector<FaultInstance> faults_;

  std::vector<Site> sites_;
  std::vector<std::uint32_t> row_offset_;  ///< words + 1, CSR into sites_
  std::vector<Pin> pins_;
  std::vector<Fire> fires_;
  std::vector<std::uint32_t> decode_offset_;  ///< words + 1, or empty
  std::vector<std::uint32_t> decode_rows_;

  /// Pending aggressor transitions while a word write is in flight.
  bool in_word_op_ = false;
  std::vector<Pending> pending_;
  std::vector<std::uint8_t> held_;  ///< write_row's pre-pulse site values
};

// ---- templated overlay semantics --------------------------------------------

template <typename Storage>
bool FaultSet::settle(Storage& storage, Site& site, std::uint64_t now_ns) {
  bool value = storage.get(site.cell);
  const bool weak = (site.flags & (value ? kDrf1 : kDrf0)) != 0;
  if (weak && now_ns >= site.since_ns &&
      now_ns - site.since_ns >= config_.retention_ns) {
    value = !value;
    storage.set(site.cell, value);
    site.since_ns = now_ns;
  }
  return value;
}

template <typename Storage>
bool FaultSet::pinned(const Storage& storage, const Site& site,
                      bool value) const {
  for (std::uint32_t p = site.pin_begin; p < site.pin_end; ++p) {
    if (storage.get(pins_[p].aggressor) == pins_[p].state) {
      return pins_[p].forced;
    }
  }
  return value;
}

template <typename Storage>
void FaultSet::write_site(Storage& storage, std::uint32_t index, bool value,
                          sram::WriteStyle style, std::uint64_t now_ns,
                          bool queue) {
  Site& site = sites_[index];
  const std::uint8_t flags = site.flags;
  const bool old = settle(storage, site, now_ns);
  if ((flags & kSof) != 0) {
    return;  // the access transistor is open: the write never arrives
  }
  if ((flags & (kSa0 | kSa1)) != 0) {
    // The node is tied; keep the stored image consistent with the tie so
    // later transitions cannot originate from a stale value.
    storage.set(site.cell, (flags & kSa1) != 0);
    return;
  }
  if (old != value) {
    if ((flags & (value ? kTfUp : kTfDown)) != 0) {
      return;  // transition fault: the cell refuses this flip
    }
    if (style == sram::WriteStyle::nwrc &&
        (flags & (value ? kDrf1 : kDrf0)) != 0) {
      // NWRC: the rising bitline floats at GND, so only the cell's own
      // pull-up could flip it — and that pull-up is the open one.
      return;
    }
  }
  const bool stored = pinned(storage, site, value);
  storage.set(site.cell, stored);
  if ((flags & kDrf) != 0) {
    site.since_ns = now_ns;  // every commit restarts the retention clock
  }
  if (stored == old || site.fire_begin == site.fire_end) {
    return;  // no transition, or no coupling side effects
  }
  if (queue) {
    // Intra-word disturbs land after every write driver of the word pulse
    // has released.
    pending_.push_back(Pending{index, stored});
  } else {
    fire(storage, index, stored, now_ns);
  }
}

template <typename Storage>
bool FaultSet::read_site(Storage& storage, std::uint32_t index,
                         std::uint64_t now_ns, bool& drives) {
  Site& site = sites_[index];
  const bool stored = settle(storage, site, now_ns);
  drives = true;
  if ((site.flags & kSof) != 0) {
    drives = false;
    return stored;
  }
  bool value = stored;
  if ((site.flags & kSa0) != 0) value = false;
  if ((site.flags & kSa1) != 0) value = true;
  return pinned(storage, site, value);
}

template <typename Storage>
void FaultSet::fire(Storage& storage, std::uint32_t index, bool new_value,
                    std::uint64_t now_ns) {
  const Site& site = sites_[index];
  for (std::uint32_t f = site.fire_begin; f < site.fire_end; ++f) {
    const Fire& rec = fires_[f];
    if (new_value != rec.trigger) {
      continue;
    }
    Site* victim = rec.victim_site < 0
                       ? nullptr
                       : &sites_[static_cast<std::size_t>(rec.victim_site)];
    const bool victim_old = victim != nullptr
                                ? settle(storage, *victim, now_ns)
                                : storage.get(rec.victim);
    const bool victim_new = rec.invert ? !victim_old : rec.forced;
    if (victim_new != victim_old) {
      // One-level propagation: the victim change does not re-trigger
      // couplings (standard single-step linked-fault simplification).
      storage.set(rec.victim, victim_new);
      if (victim != nullptr && (victim->flags & kDrf) != 0) {
        victim->since_ns = now_ns;
      }
    }
  }
}

template <typename Storage>
void FaultSet::flush_pending(Storage& storage, std::uint64_t now_ns) {
  for (const Pending& transition : pending_) {
    fire(storage, transition.site, transition.new_value, now_ns);
  }
  pending_.clear();
}

template <typename Storage, typename Value>
void FaultSet::write_sites(Storage& storage,
                           std::span<const std::uint32_t> rows,
                           const Value& value, sram::WriteStyle style,
                           std::uint64_t now_ns) {
  pending_.clear();
  for (const std::uint32_t row : rows) {
    for (std::uint32_t i = row_offset_[row]; i < row_offset_[row + 1]; ++i) {
      write_site(storage, i, value(sites_[i].cell.bit), style, now_ns,
                 /*queue=*/true);
    }
  }
  flush_pending(storage, now_ns);
}

template <typename Storage, typename Out>
void FaultSet::read_sites(Storage& storage, std::uint32_t row,
                          std::uint64_t now_ns, Out&& out) {
  for (std::uint32_t i = row_offset_[row]; i < row_offset_[row + 1]; ++i) {
    bool drives = true;
    const bool value = read_site(storage, i, now_ns, drives);
    out(sites_[i].cell.bit, value, drives);
  }
}

template <typename Storage, typename Out>
void FaultSet::read_sites_wired(Storage& storage,
                                std::span<const std::uint32_t> rows,
                                std::uint64_t now_ns, Out&& out) {
  // Columns are visited in ascending order by merging the rows' site
  // lists; within a column the rows go in decode order, like the
  // reference's bit-major loop (settles and pins see the same history).
  std::uint32_t bit = 0;
  for (;;) {
    bool found = false;
    std::uint32_t next = 0;
    for (const std::uint32_t row : rows) {
      for (std::uint32_t i = row_offset_[row]; i < row_offset_[row + 1]; ++i) {
        if (sites_[i].cell.bit >= bit) {
          if (!found || sites_[i].cell.bit < next) {
            next = sites_[i].cell.bit;
          }
          found = true;
          break;
        }
      }
    }
    if (!found) {
      return;
    }
    bool any_driver = false;
    bool value = true;  // wired-AND start: a stored 0 discharges the bitline
    for (const std::uint32_t row : rows) {
      const std::int32_t site = find_site({row, next});
      bool drives = true;
      const bool v =
          site < 0 ? storage.get({row, next})
                   : read_site(storage, static_cast<std::uint32_t>(site),
                               now_ns, drives);
      if (drives) {
        any_driver = true;
        value = value && v;
      }
    }
    out(next, value, any_driver);
    bit = next + 1;
  }
}

}  // namespace fastdiag::faults
