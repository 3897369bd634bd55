#include "faults/overlay_slab.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <string>

#include "util/require.h"
#include "util/simd.h"

namespace fastdiag::faults {
namespace {

/// dst[j] = (dst[j] & ~lanes) | (src[j] & lanes): the broadcast pulse
/// reaching only @p lanes.
void blend_lanes(std::uint64_t* dst, const std::uint64_t* src,
                 std::uint64_t lanes, std::uint32_t n) {
  for (std::uint32_t j = 0; j < n; ++j) {
    dst[j] = (dst[j] & ~lanes) | (src[j] & lanes);
  }
}

void set_lane_bit(std::uint64_t& limb, std::uint32_t lane, bool value) {
  limb = (limb & ~(std::uint64_t{1} << lane)) |
         (static_cast<std::uint64_t>(value) << lane);
}

/// Calls @p fn(k) for every set bit k of @p mask, ascending.
template <typename Fn>
void for_each_lane(std::uint64_t mask, Fn&& fn) {
  while (mask != 0) {
    fn(static_cast<std::uint32_t>(std::countr_zero(mask)));
    mask &= mask - 1;
  }
}

}  // namespace

bool OverlaySlab::lane_capable(const sram::Sram& memory) {
  return memory.col_spares_used() == 0 &&
         (dynamic_cast<const FaultSet*>(&memory.behavior()) != nullptr ||
          dynamic_cast<const sram::FaultFreeBehavior*>(&memory.behavior()) !=
              nullptr);
}

bool OverlaySlab::worth_slicing(std::size_t lanes, std::uint32_t bits) {
  return lanes >= 2 && lanes * 256 >= bits;
}

OverlaySlab::OverlaySlab(const std::vector<sram::Sram*>& lanes)
    : slab_(lanes), memories_(lanes) {
  const std::uint32_t bits = slab_.bits();
  latch_.assign(bits, 0);
  for (std::uint32_t k = 0; k < memories_.size(); ++k) {
    sram::Sram& memory = *memories_[k];
    require(lane_capable(memory), [&] {
      return "OverlaySlab: lane '" + memory.config().name +
             "' carries a behaviour the overlay cannot apply";
    });
    faults_.push_back(dynamic_cast<FaultSet*>(&memory.behavior()));
    base_ns_.push_back(memory.now_ns());
    const BitVector& latch = memory.sense_latch();
    for (std::uint32_t j = 0; j < bits; ++j) {
      set_lane_bit(latch_[j], k, latch.get(j));
    }
  }
  slab_.gather();
  index_lanes();
}

OverlaySlab::OverlaySlab(const sram::SramConfig& config,
                         const std::vector<FaultInstance>* lanes,
                         std::size_t lane_count)
    : slab_(config.words, config.bits, lane_count) {
  require(lanes != nullptr, "OverlaySlab: null probe lanes");
  latch_.assign(config.bits, 0);
  // The probe packing contract, checked per lane: no address faults, and
  // no cell shared by two candidates.
  std::vector<std::uint64_t> claimed(
      (static_cast<std::size_t>(config.words) * config.bits + 63) / 64, 0);
  for (std::size_t k = 0; k < lane_count; ++k) {
    for (const FaultInstance& fault : lanes[k]) {
      require(!is_address_fault(fault.kind),
              "OverlaySlab: address faults cannot be packed");
    }
    owned_.push_back(std::make_unique<FaultSet>(lanes[k]));
    owned_.back()->attach(config);  // validates every candidate
    const auto claim = [&](sram::CellCoord cell, bool set) {
      const std::size_t index =
          static_cast<std::size_t>(cell.row) * config.bits + cell.bit;
      const std::uint64_t bit = std::uint64_t{1} << (index & 63);
      require(!set || (claimed[index >> 6] & bit) == 0, [&] {
        return "OverlaySlab: lane " + std::to_string(k) +
               " candidates overlap at cell (" + std::to_string(cell.row) +
               "," + std::to_string(cell.bit) + ")";
      });
      claimed[index >> 6] ^= bit;
    };
    for (const bool set : {true, false}) {
      for (const FaultInstance& fault : lanes[k]) {
        claim(fault.victim, set);
        if (needs_aggressor(fault.kind)) {
          claim(fault.aggressor, set);
        }
      }
    }
    faults_.push_back(owned_.back().get());
    base_ns_.push_back(0);
  }
  index_lanes();
}

namespace {

/// How the packed path replays a site: a column mask (single stuck-at,
/// transition or stuck-open flag), a retention ref, a one-pin state-coupling
/// victim ref or a pure-aggressor ref.  Anything else — several roles on
/// one cell — takes the exact per-site path.
enum class Packing { mask, retention, pinned, aggressor, exact };

Packing packing(const FaultSet::Site& site) {
  const std::uint32_t pins = site.pin_end - site.pin_begin;
  if (site.fire_begin != site.fire_end) {
    return site.flags == 0 && pins == 0 ? Packing::aggressor : Packing::exact;
  }
  if (pins != 0) {
    return site.flags == 0 && pins == 1 ? Packing::pinned : Packing::exact;
  }
  switch (site.flags) {
    case FaultSet::kSa0:
    case FaultSet::kSa1:
    case FaultSet::kTfUp:
    case FaultSet::kTfDown:
    case FaultSet::kSof:
      return Packing::mask;
    case FaultSet::kDrf0:
    case FaultSet::kDrf1:
      return Packing::retention;
    default:
      return Packing::exact;
  }
}

}  // namespace

void OverlaySlab::index_lanes() {
  const std::uint32_t rows = slab_.rows();
  const std::uint32_t bits = slab_.bits();
  scratch_.assign(bits, 0);
  exact_lanes_.assign(rows, 0);
  for (auto* offsets : {&patch_offset_, &retention_offset_, &pin_offset_,
                        &aggressor_offset_}) {
    offsets->assign(rows + 1, 0);
  }
  struct Entry {
    std::uint32_t bit = 0;
    std::uint32_t lane = 0;
    std::uint32_t site = 0;
  };
  std::vector<Entry> entries;
  std::vector<Entry> sorted;
  std::vector<std::uint32_t> column_count;
  std::vector<std::uint32_t> column_patch;
  std::vector<std::vector<Contributor>> by_addr;
  const auto contribute = [&](std::uint32_t addr, std::uint32_t arena_row,
                              std::uint64_t lane_bit) {
    auto& list = by_addr[addr];
    const auto it = std::find_if(
        list.begin(), list.end(),
        [arena_row](const Contributor& c) { return c.row == arena_row; });
    if (it == list.end()) {
      list.push_back(Contributor{arena_row, lane_bit});
    } else {
      it->lanes |= lane_bit;
    }
  };
  for (std::uint32_t row = 0; row < rows; ++row) {
    entries.clear();
    for (std::uint32_t k = 0; k < faults_.size(); ++k) {
      const FaultSet* faults = faults_[k];
      const std::uint64_t lane_bit = std::uint64_t{1} << k;
      if (faults != nullptr) {
        const auto sites = faults->row_sites(row);
        if (std::any_of(sites.begin(), sites.end(), [](const auto& site) {
              return packing(site) == Packing::exact;
            })) {
          exact_lanes_[row] |= lane_bit;
        } else {
          for (std::uint32_t i = 0; i < sites.size(); ++i) {
            entries.push_back(
                {sites[i].cell.bit, k, faults->row_offset_[row] + i});
          }
        }
      }
      // Address `row` of lane k lands on its spare row when repaired (the
      // repair bypasses the decoder, faulty or not, as in sram::Sram), on
      // its decoded rows when address-faulty, and on its own row otherwise.
      const std::optional<std::uint32_t> spare =
          memories_.empty() ? std::nullopt : memories_[k]->spare_row(row);
      if (!spare && (faults == nullptr || !faults->address_faulty(row))) {
        continue;
      }
      if (af_lanes_.empty()) {
        af_lanes_.assign(rows, 0);
        spare_lanes_.assign(rows, 0);
        by_addr.resize(rows);
      }
      af_lanes_[row] |= lane_bit;
      if (spare) {
        spare_lanes_[row] |= lane_bit;
        contribute(row, rows + *spare, lane_bit);
        continue;
      }
      for (const std::uint32_t decoded : faults->decode_rows(row)) {
        contribute(row, decoded, lane_bit);
      }
    }
    // Columns ascending, lanes ascending within a column (a stable counting
    // sort of the lane-major entries): each lane's aggressors then fire in
    // its commit order.
    column_count.assign(bits + 1, 0);
    for (const Entry& entry : entries) {
      ++column_count[entry.bit + 1];
    }
    column_patch.assign(bits, 0);
    for (std::uint32_t j = 0; j < bits; ++j) {
      if (column_count[j + 1] != 0) {
        column_patch[j] = static_cast<std::uint32_t>(patches_.size());
        patches_.push_back(Patch{j});
      }
      column_count[j + 1] += column_count[j];
    }
    sorted.resize(entries.size());
    for (const Entry& entry : entries) {
      sorted[column_count[entry.bit]++] = entry;
    }
    const auto patch_of = [&](std::uint32_t bit) { return column_patch[bit]; };
    for (const Entry& entry : sorted) {
      const std::uint32_t p = patch_of(entry.bit);
      Patch& patch = patches_[p];
      const std::uint64_t lane_bit = std::uint64_t{1} << entry.lane;
      const FaultSet& faults = *faults_[entry.lane];
      const FaultSet::Site& site = faults.sites_[entry.site];
      switch (packing(site)) {
        case Packing::mask:
          if (site.flags == FaultSet::kSa0 || site.flags == FaultSet::kSa1) {
            patch.stuck |= lane_bit;
            patch.ones |= site.flags == FaultSet::kSa1 ? lane_bit : 0;
          } else if (site.flags == FaultSet::kTfUp) {
            patch.tf_up |= lane_bit;
          } else if (site.flags == FaultSet::kTfDown) {
            patch.tf_down |= lane_bit;
          } else {
            patch.sof |= lane_bit;
          }
          break;
        case Packing::retention:
          retentions_.push_back({p, entry.lane, entry.site,
                                 site.flags == FaultSet::kDrf1});
          break;
        case Packing::pinned: {
          const FaultSet::Pin& pin = faults.pins_[site.pin_begin];
          PinRef ref{p, entry.lane};
          ref.aggressor =
              static_cast<std::size_t>(pin.aggressor.row) * bits +
              pin.aggressor.bit;
          ref.aggressor_bit = pin.aggressor.bit;
          ref.same_row = pin.aggressor.row == row;
          ref.aggressor_patch = ref.same_row ? patch_of(pin.aggressor.bit) : 0;
          ref.state = pin.state;
          ref.forced = pin.forced;
          pins_.push_back(ref);
          break;
        }
        case Packing::aggressor: {
          patch.aggressor |= lane_bit;
          AggressorRef ref{p, entry.lane, entry.site};
          const FaultSet::Fire& fire = faults.fires_[site.fire_begin];
          ref.inline_fire =
              site.fire_end - site.fire_begin == 1 &&
              (fire.victim_site < 0 ||
               (faults.sites_[static_cast<std::size_t>(fire.victim_site)]
                    .flags &
                FaultSet::kDrf) == 0);
          ref.trigger = fire.trigger;
          ref.invert = fire.invert;
          ref.forced = fire.forced;
          ref.victim = static_cast<std::size_t>(fire.victim.row) * bits +
                       fire.victim.bit;
          aggressors_.push_back(ref);
          break;
        }
        case Packing::exact:
          break;  // unreachable: exact lanes take no entries
      }
    }
    patch_offset_[row + 1] = static_cast<std::uint32_t>(patches_.size());
    retention_offset_[row + 1] = static_cast<std::uint32_t>(retentions_.size());
    pin_offset_[row + 1] = static_cast<std::uint32_t>(pins_.size());
    aggressor_offset_[row + 1] = static_cast<std::uint32_t>(aggressors_.size());
  }
  old_limbs_.assign(patches_.size(), 0);
  transitions_.assign(patches_.size(), 0);
  if (af_lanes_.empty()) {
    return;
  }
  contrib_offset_.assign(rows + 1, 0);
  for (std::uint32_t addr = 0; addr < rows; ++addr) {
    contribs_.insert(contribs_.end(), by_addr[addr].begin(),
                     by_addr[addr].end());
    contrib_offset_[addr + 1] = static_cast<std::uint32_t>(contribs_.size());
  }
}

void OverlaySlab::write(std::uint32_t addr, const std::uint64_t* bcast,
                        sram::WriteStyle style, std::uint64_t elapsed_ns) {
  require_in_range(addr < slab_.rows(), "OverlaySlab::write: bad address");
  const std::uint64_t af = af_lanes_.empty() ? 0 : af_lanes_[addr];
  const std::uint64_t live = ~af;  // lanes whose access of addr is {addr}
  // Address-faulty lanes replay the sites of their decoded rows; repaired
  // lanes land on a spare row, which holds none.
  const std::uint64_t wired = af_lanes_.empty() ? 0 : af & ~spare_lanes_[addr];
  const std::uint64_t exact = exact_lanes_[addr] & live;
  const std::uint32_t p_begin = patch_offset_[addr];
  const std::uint32_t p_end = patch_offset_[addr + 1];
  if (af == 0 && exact == 0 && p_begin == p_end) {
    slab_.write_row(addr, bcast);  // the common case: a plain pulse
    return;
  }
  const std::uint32_t bits = slab_.bits();
  std::uint64_t* arena = slab_.arena();
  std::uint64_t* row = arena + static_cast<std::size_t>(addr) * bits;
  const std::uint32_t own_row[] = {addr};
  // The rows lane k's pulse reaches: its decode of addr.
  const auto rows_of = [&](std::uint32_t k) -> std::span<const std::uint32_t> {
    return ((wired >> k) & 1u) != 0 ? faults_[k]->decode_rows(addr)
                                    : std::span<const std::uint32_t>(own_row);
  };
  const auto data = [bcast](std::uint32_t bit) {
    return (bcast[bit] & 1u) != 0;
  };
  const std::uint64_t per_site = exact | wired;

  // Hold every exact site cell the pulse reaches and every patched
  // column's pre-pulse limb, pulse, put the exact cells back.
  held_.clear();
  for_each_lane(per_site, [&](std::uint32_t k) {
    SlabLane view = lane(k);
    for (const std::uint32_t decoded : rows_of(k)) {
      for (const auto& site : faults_[k]->row_sites(decoded)) {
        held_.push_back(view.get(site.cell) ? 1 : 0);
      }
    }
  });
  for (std::uint32_t p = p_begin; p < p_end; ++p) {
    old_limbs_[p] = row[patches_[p].bit];
  }
  if (af == 0) {
    slab_.write_row(addr, bcast);
  } else {
    blend_lanes(row, bcast, live, bits);
    for (std::uint32_t c = contrib_offset_[addr]; c < contrib_offset_[addr + 1];
         ++c) {
      blend_lanes(arena + static_cast<std::size_t>(contribs_[c].row) * bits,
                  bcast, contribs_[c].lanes, bits);
    }
  }
  std::size_t h = 0;
  for_each_lane(per_site, [&](std::uint32_t k) {
    SlabLane view = lane(k);
    for (const std::uint32_t decoded : rows_of(k)) {
      for (const auto& site : faults_[k]->row_sites(decoded)) {
        view.set(site.cell, held_[h++] != 0);
      }
    }
  });

  // Packed columns: stuck-at slots take their forced value, transition
  // slots refuse the blocked flip (up: old & data, down: old | data),
  // stuck-open slots keep the old value, aggressors store the data and
  // report their transitions.
  for (std::uint32_t p = p_begin; p < p_end; ++p) {
    const Patch& patch = patches_[p];
    const std::uint64_t old = old_limbs_[p];
    const std::uint64_t value = bcast[patch.bit];
    const std::uint64_t stuck = patch.stuck & live;
    const std::uint64_t up = patch.tf_up & live;
    const std::uint64_t down = patch.tf_down & live;
    const std::uint64_t sof = patch.sof & live;
    std::uint64_t limb = row[patch.bit];
    limb = (limb & ~stuck) | (patch.ones & live);
    limb = (limb & ~up) | (old & value & up);
    limb = (limb & ~down) | ((old | value) & down);
    limb = (limb & ~sof) | (old & sof);
    row[patch.bit] = limb;
    transitions_[p] = (old ^ value) & patch.aggressor & live;
  }
  // Retention cells settle first (a decayed cell can refuse an NWRC write
  // back), then commit and restart their clock.
  for (std::uint32_t r = retention_offset_[addr];
       r < retention_offset_[addr + 1]; ++r) {
    const RetentionRef& ref = retentions_[r];
    if (((live >> ref.lane) & 1u) == 0) {
      continue;
    }
    FaultSet& faults = *faults_[ref.lane];
    FaultSet::Site& site = faults.sites_[ref.site];
    const std::uint64_t t = now(ref.lane, elapsed_ns);
    const std::uint32_t bit = patches_[ref.patch].bit;
    bool old = ((old_limbs_[ref.patch] >> ref.lane) & 1u) != 0;
    if (old == ref.weak_one && t >= site.since_ns &&
        t - site.since_ns >= faults.config_.retention_ns) {
      old = !old;
      site.since_ns = t;
    }
    bool next = data(bit);
    if (style == sram::WriteStyle::nwrc && old != next &&
        next == ref.weak_one) {
      next = old;  // NWRC cannot flip the cell toward its weak state
    } else {
      site.since_ns = t;
    }
    set_lane_bit(row[bit], ref.lane, next);
  }
  // State-coupling victims see their aggressor as committed so far: a
  // same-row aggressor below the victim already holds the new data.
  for (std::uint32_t q = pin_offset_[addr]; q < pin_offset_[addr + 1]; ++q) {
    const PinRef& ref = pins_[q];
    if (((live >> ref.lane) & 1u) == 0) {
      continue;
    }
    const std::uint32_t bit = patches_[ref.patch].bit;
    bool aggressor = ((arena[ref.aggressor] >> ref.lane) & 1u) != 0;
    if (ref.same_row && ref.aggressor_bit > bit) {
      aggressor = ((old_limbs_[ref.aggressor_patch] >> ref.lane) & 1u) != 0;
    }
    set_lane_bit(row[bit], ref.lane,
                 aggressor == ref.state ? ref.forced : data(bit));
  }
  // Coupling disturbs land after every commit of the word op.
  for (std::uint32_t a = aggressor_offset_[addr];
       a < aggressor_offset_[addr + 1]; ++a) {
    const AggressorRef& ref = aggressors_[a];
    if (((transitions_[ref.patch] >> ref.lane) & 1u) == 0) {
      continue;
    }
    const bool new_value = data(patches_[ref.patch].bit);
    if (!ref.inline_fire) {
      SlabLane view = lane(ref.lane);
      faults_[ref.lane]->fire(view, ref.site, new_value,
                              now(ref.lane, elapsed_ns));
    } else if (new_value == ref.trigger) {
      std::uint64_t& limb = arena[ref.victim];
      const std::uint64_t lane_bit = std::uint64_t{1} << ref.lane;
      const bool next = ref.invert ? (limb & lane_bit) == 0 : ref.forced;
      limb = next ? (limb | lane_bit) : (limb & ~lane_bit);
    }
  }

  for_each_lane(per_site, [&](std::uint32_t k) {
    SlabLane view = lane(k);
    faults_[k]->write_sites(view, rows_of(k), data, style,
                            now(k, elapsed_ns));
  });
}

void OverlaySlab::read(std::uint32_t addr, std::uint64_t elapsed_ns) {
  require_in_range(addr < slab_.rows(), "OverlaySlab::read: bad address");
  const std::uint64_t af = af_lanes_.empty() ? 0 : af_lanes_[addr];
  const std::uint64_t live = ~af;
  const std::uint64_t wired = af_lanes_.empty() ? 0 : af & ~spare_lanes_[addr];
  const std::uint64_t exact = exact_lanes_[addr] & live;
  const std::uint32_t p_begin = patch_offset_[addr];
  const std::uint32_t p_end = patch_offset_[addr + 1];
  const std::uint32_t bits = slab_.bits();
  std::uint64_t* arena = slab_.arena();
  std::uint64_t* row = arena + static_cast<std::size_t>(addr) * bits;
  if (af == 0 && exact == 0 && p_begin == p_end) {
    observed_ = row;
  } else {
    // Retention cells settle in storage before anything is sensed.
    for (std::uint32_t r = retention_offset_[addr];
         r < retention_offset_[addr + 1]; ++r) {
      const RetentionRef& ref = retentions_[r];
      if (((live >> ref.lane) & 1u) == 0) {
        continue;
      }
      FaultSet& faults = *faults_[ref.lane];
      FaultSet::Site& site = faults.sites_[ref.site];
      const std::uint64_t t = now(ref.lane, elapsed_ns);
      std::uint64_t& limb = row[patches_[ref.patch].bit];
      const bool stored = ((limb >> ref.lane) & 1u) != 0;
      if (stored == ref.weak_one && t >= site.since_ns &&
          t - site.since_ns >= faults.config_.retention_ns) {
        set_lane_bit(limb, ref.lane, !stored);
        site.since_ns = t;
      }
    }
    std::uint64_t* out = scratch_.data();
    if (af == 0) {
      simd::copy_limbs(out, row, bits);
    } else {
      // Address-faulty lanes sense the wired-AND of their decoded rows (all
      // ones when none fires), repaired lanes their spare row, every other
      // lane its own row.
      for (std::uint32_t j = 0; j < bits; ++j) {
        out[j] = row[j] | af;
      }
      for (std::uint32_t c = contrib_offset_[addr];
           c < contrib_offset_[addr + 1]; ++c) {
        const std::uint64_t* decoded =
            arena + static_cast<std::size_t>(contribs_[c].row) * bits;
        const std::uint64_t off = ~contribs_[c].lanes;
        for (std::uint32_t j = 0; j < bits; ++j) {
          out[j] &= decoded[j] | off;
        }
      }
    }
    // Packed columns: stuck-at slots sense their forced value, stuck-open
    // slots repeat the lane's latch (transition, retention and aggressor
    // slots read what they store).
    for (std::uint32_t p = p_begin; p < p_end; ++p) {
      const Patch& patch = patches_[p];
      const std::uint64_t stuck = patch.stuck & live;
      const std::uint64_t sof = patch.sof & live;
      std::uint64_t limb = out[patch.bit];
      limb = (limb & ~stuck) | (patch.ones & live);
      limb = (limb & ~sof) | (latch_[patch.bit] & sof);
      out[patch.bit] = limb;
    }
    for (std::uint32_t q = pin_offset_[addr]; q < pin_offset_[addr + 1]; ++q) {
      const PinRef& ref = pins_[q];
      if (((live >> ref.lane) & 1u) != 0 &&
          (((arena[ref.aggressor] >> ref.lane) & 1u) != 0) == ref.state) {
        set_lane_bit(out[patches_[ref.patch].bit], ref.lane, ref.forced);
      }
    }
    // Exact sites: a column nothing drives repeats the lane's latch.
    for_each_lane(exact | wired, [&](std::uint32_t k) {
      const auto patch = [&](std::uint32_t bit, bool value, bool drove) {
        set_lane_bit(out[bit], k,
                     drove ? value : ((latch_[bit] >> k) & 1u) != 0);
      };
      SlabLane view = lane(k);
      if (((wired >> k) & 1u) != 0) {
        faults_[k]->read_sites_wired(view, faults_[k]->decode_rows(addr),
                                     now(k, elapsed_ns), patch);
      } else {
        faults_[k]->read_sites(view, addr, now(k, elapsed_ns), patch);
      }
    });
    observed_ = out;
  }
  // Every lane's sense amps latch what they just resolved.
  simd::copy_limbs(latch_.data(), observed_, bits);
}

std::uint64_t OverlaySlab::compare(const std::uint64_t* expect_bcast,
                                   std::uint32_t bit_begin,
                                   std::uint32_t bit_end) const {
  require_in_range(bit_begin <= bit_end && bit_end <= slab_.bits(),
                   "OverlaySlab::compare: range out of bounds");
  return simd::lane_diff_or(observed_ + bit_begin, expect_bcast + bit_begin,
                            lane_mask(), bit_end - bit_begin);
}

std::uint64_t OverlaySlab::mismatch_columns(const std::uint64_t* expect_bcast,
                                            std::uint32_t bit_begin) const {
  require_in_range(bit_begin < slab_.bits(),
                   "OverlaySlab::mismatch_columns: out of range");
  const std::uint32_t take =
      std::min<std::uint32_t>(64, slab_.bits() - bit_begin);
  return simd::diff_column_mask(observed_ + bit_begin,
                                expect_bcast + bit_begin, lane_mask(), take);
}

void OverlaySlab::scatter() {
  slab_.scatter();
  const std::uint32_t bits = slab_.bits();
  BitVector latch(bits);
  for (std::uint32_t k = 0; k < memories_.size(); ++k) {
    for (std::uint32_t j = 0; j < bits; ++j) {
      latch.set(j, ((latch_[j] >> k) & 1u) != 0);
    }
    memories_[k]->restore_sense_latch(latch);
  }
}

}  // namespace fastdiag::faults
