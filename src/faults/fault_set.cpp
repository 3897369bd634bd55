#include "faults/fault_set.h"

#include <algorithm>

#include "util/require.h"

namespace fastdiag::faults {

FaultSet::FaultSet(std::vector<FaultInstance> faults)
    : faults_(std::move(faults)) {}

void FaultSet::add(const FaultInstance& fault) {
  faults_.push_back(fault);
  if (attached_) {
    fault.validate(config_);
    compile();
  }
}

void FaultSet::attach(const sram::SramConfig& config) {
  config_ = config;
  attached_ = true;
  for (const auto& fault : faults_) {
    fault.validate(config_);
  }
  sites_.clear();
  compile();
}

void FaultSet::compile() {
  // One (cell, fault) entry per role a fault gives a cell, sorted by cell
  // and then injection order: within a cell the first pin whose aggressor
  // holds its trigger state wins, and fires land in the order their faults
  // were added.
  const auto key = [this](sram::CellCoord cell) {
    return static_cast<std::uint64_t>(cell.row) * config_.bits + cell.bit;
  };
  struct Entry {
    std::uint64_t cell = 0;
    std::uint32_t fault = 0;
  };
  // Probe slabs compile thousands of small engines per dictionary build,
  // so the sort buffer is per thread rather than per call.
  thread_local std::vector<Entry> entries;
  entries.clear();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> decode_mods;
  std::size_t pin_count = 0;
  std::size_t fire_count = 0;
  for (std::uint32_t i = 0; i < faults_.size(); ++i) {
    const FaultInstance& fault = faults_[i];
    if (is_address_fault(fault.kind)) {
      decode_mods.emplace_back(fault.addr, i);
      continue;
    }
    const bool coupling = needs_aggressor(fault.kind);
    const bool state = coupling && fault.kind >= FaultKind::cf_st_00 &&
                       fault.kind <= FaultKind::cf_st_11;
    if (!coupling || state) {
      entries.push_back({key(fault.victim), i});  // flag or pin
      pin_count += state ? 1 : 0;
    }
    if (coupling) {
      entries.push_back({key(fault.aggressor), i});  // fire
      ++fire_count;
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.cell != b.cell ? a.cell < b.cell : a.fault < b.fault;
            });

  std::vector<Site> previous;
  previous.swap(sites_);  // recompiles keep every site's retention clock
  sites_.reserve(entries.size());
  pins_.clear();
  pins_.reserve(pin_count);
  fires_.clear();
  fires_.reserve(fire_count);
  row_offset_.assign(config_.words + 1, 0);
  for (std::size_t e = 0; e < entries.size();) {
    Site site;
    const std::uint64_t cell = entries[e].cell;
    site.cell = {static_cast<std::uint32_t>(cell / config_.bits),
                 static_cast<std::uint32_t>(cell % config_.bits)};
    site.pin_begin = static_cast<std::uint32_t>(pins_.size());
    site.fire_begin = static_cast<std::uint32_t>(fires_.size());
    for (; e < entries.size() && entries[e].cell == cell; ++e) {
      const FaultInstance& fault = faults_[entries[e].fault];
      switch (fault.kind) {
        case FaultKind::sa0: site.flags |= kSa0; break;
        case FaultKind::sa1: site.flags |= kSa1; break;
        case FaultKind::tf_up: site.flags |= kTfUp; break;
        case FaultKind::tf_down: site.flags |= kTfDown; break;
        case FaultKind::sof: site.flags |= kSof; break;
        case FaultKind::drf0: site.flags |= kDrf0; break;
        case FaultKind::drf1: site.flags |= kDrf1; break;
        case FaultKind::cf_in_up:
        case FaultKind::cf_in_down:
          fires_.push_back(Fire{fault.victim, -1,
                                fault.kind == FaultKind::cf_in_up,
                                /*invert=*/true, /*forced=*/false});
          break;
        case FaultKind::cf_id_up0:
        case FaultKind::cf_id_up1:
        case FaultKind::cf_id_down0:
        case FaultKind::cf_id_down1:
          fires_.push_back(Fire{fault.victim, -1,
                                fault.kind == FaultKind::cf_id_up0 ||
                                    fault.kind == FaultKind::cf_id_up1,
                                /*invert=*/false,
                                fault.kind == FaultKind::cf_id_up1 ||
                                    fault.kind == FaultKind::cf_id_down1});
          break;
        default: {  // state coupling <s;v>
          const bool s = fault.kind == FaultKind::cf_st_10 ||
                         fault.kind == FaultKind::cf_st_11;
          const bool v = fault.kind == FaultKind::cf_st_01 ||
                         fault.kind == FaultKind::cf_st_11;
          if (key(fault.victim) == cell) {
            pins_.push_back(Pin{fault.aggressor, s, v});
          } else {
            // The aggressor also fires when it *enters* the trigger state.
            fires_.push_back(Fire{fault.victim, -1, s, /*invert=*/false, v});
          }
        }
      }
    }
    site.pin_end = static_cast<std::uint32_t>(pins_.size());
    site.fire_end = static_cast<std::uint32_t>(fires_.size());
    if (!previous.empty()) {
      const auto old = std::lower_bound(
          previous.begin(), previous.end(), site.cell,
          [](const Site& s, sram::CellCoord c) { return s.cell < c; });
      if (old != previous.end() && old->cell == site.cell) {
        site.since_ns = old->since_ns;
      }
    }
    sites_.push_back(site);
    ++row_offset_[site.cell.row + 1];
  }
  for (std::uint32_t row = 0; row < config_.words; ++row) {
    row_offset_[row + 1] += row_offset_[row];
  }
  for (Fire& fire : fires_) {
    fire.victim_site = find_site(fire.victim);
  }

  // Decode table: every address maps to its own row unless address faults
  // rewrite it (ascending, deduped).
  decode_offset_.clear();
  decode_rows_.clear();
  if (decode_mods.empty()) {
    pending_.clear();
    return;
  }
  std::stable_sort(decode_mods.begin(), decode_mods.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  decode_offset_.assign(config_.words + 1, 0);
  decode_rows_.reserve(config_.words + decode_mods.size());
  std::size_t m = 0;
  for (std::uint32_t addr = 0; addr < config_.words; ++addr) {
    const std::size_t begin = decode_rows_.size();
    bool own_row = true;
    for (; m < decode_mods.size() && decode_mods[m].first == addr; ++m) {
      const FaultInstance& mod = faults_[decode_mods[m].second];
      own_row = own_row && mod.kind == FaultKind::af_extra_row;
      if (mod.kind != FaultKind::af_no_access) {
        decode_rows_.push_back(mod.other_row);
      }
    }
    if (own_row) {
      decode_rows_.push_back(addr);
    }
    std::sort(decode_rows_.begin() + begin, decode_rows_.end());
    decode_rows_.erase(
        std::unique(decode_rows_.begin() + begin, decode_rows_.end()),
        decode_rows_.end());
    decode_offset_[addr + 1] = static_cast<std::uint32_t>(decode_rows_.size());
  }
  pending_.clear();
}

std::int32_t FaultSet::find_site(sram::CellCoord cell) const {
  const auto begin = sites_.begin() + row_offset_[cell.row];
  const auto end = sites_.begin() + row_offset_[cell.row + 1];
  const auto it = std::lower_bound(
      begin, end, cell.bit,
      [](const Site& site, std::uint32_t bit) { return site.cell.bit < bit; });
  return it != end && it->cell.bit == cell.bit
             ? static_cast<std::int32_t>(it - sites_.begin())
             : -1;
}

void FaultSet::decode(std::uint32_t addr, std::vector<std::uint32_t>& rows) {
  if (decode_offset_.empty()) {
    rows.assign(1, addr);
    return;
  }
  const auto span = decode_rows(addr);
  rows.assign(span.begin(), span.end());
}

void FaultSet::begin_word_op() {
  in_word_op_ = true;
  pending_.clear();
}

void FaultSet::end_word_op(sram::CellArray& cells, std::uint64_t now_ns) {
  in_word_op_ = false;
  flush_pending(cells, now_ns);
}

void FaultSet::write_cell(sram::CellArray& cells, sram::CellCoord cell,
                          bool value, sram::WriteStyle style,
                          std::uint64_t now_ns) {
  const std::int32_t site = find_site(cell);
  if (site < 0) {
    // A cell without fault state: a plain store (no pin, no aggressor
    // role, nothing to settle).
    cells.set(cell, value);
    return;
  }
  write_site(cells, static_cast<std::uint32_t>(site), value, style, now_ns,
             in_word_op_);
}

bool FaultSet::read_cell(sram::CellArray& cells, sram::CellCoord cell,
                         std::uint64_t now_ns, bool& drives) {
  const std::int32_t site = find_site(cell);
  if (site < 0) {
    drives = true;
    return cells.get(cell);
  }
  return read_site(cells, static_cast<std::uint32_t>(site), now_ns, drives);
}

void FaultSet::write_row(sram::CellArray& cells, std::uint32_t row,
                         const BitVector& value, sram::WriteStyle style,
                         std::uint64_t now_ns) {
  const auto sites = row_sites(row);
  if (sites.empty()) {
    cells.write_row_from(row, value);
    return;
  }
  // The packed pulse reaches every clean cell; site cells keep their
  // pre-pulse value for the exact patches below.
  held_.clear();
  for (const Site& site : sites) {
    held_.push_back(cells.get(site.cell) ? 1 : 0);
  }
  cells.write_row_from(row, value);
  for (std::size_t i = 0; i < sites.size(); ++i) {
    cells.set(sites[i].cell, held_[i] != 0);
  }
  const std::uint32_t one_row[] = {row};
  write_sites(cells, one_row,
              [&value](std::uint32_t bit) { return value.get(bit); }, style,
              now_ns);
}

bool FaultSet::read_row(sram::CellArray& cells, std::uint32_t row,
                        BitVector& out, BitVector& drives,
                        std::uint64_t now_ns) {
  cells.read_row_into(row, out);
  bool all_drive = true;
  read_sites(cells, row, now_ns,
             [&](std::uint32_t bit, bool value, bool cell_drives) {
               out.set(bit, value);
               if (!cell_drives) {
                 if (all_drive) {
                   drives.fill(true);
                   all_drive = false;
                 }
                 drives.set(bit, false);
               }
             });
  return all_drive;
}

}  // namespace fastdiag::faults
