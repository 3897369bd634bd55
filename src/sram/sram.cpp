#include "sram/sram.h"

#include <string>

#include "util/require.h"

namespace fastdiag::sram {

Sram::Sram(SramConfig config, std::unique_ptr<FaultBehavior> behavior)
    : config_(std::move(config)),
      behavior_(behavior ? std::move(behavior)
                         : std::make_unique<FaultFreeBehavior>()),
      cells_(config_.words, config_.bits) {
  config_.validate();
  behavior_->attach(config_);
  sense_latch_.reset(config_.bits);
  drives_scratch_.reset(config_.bits);
  row_remap_.assign(config_.words, std::nullopt);
  if (config_.spare_rows > 0) {
    spare_cells_.emplace(config_.spare_rows, config_.bits);
    spare_in_use_.assign(config_.spare_rows, false);
  }
  col_remap_.assign(config_.bits, std::nullopt);
  if (config_.spare_cols > 0) {
    spare_col_cells_.emplace(config_.words, config_.spare_cols);
    col_spare_in_use_.assign(config_.spare_cols, false);
  }
}

void Sram::check_port_usable(std::uint32_t addr) const {
  ensure(mode_ != Mode::idle, [this] {
    return "Sram '" + config_.name + "': data port used while idle";
  });
  require_in_range(addr < config_.words, [this, addr] {
    return "Sram '" + config_.name + "': address " + std::to_string(addr) +
           " out of range";
  });
}

void Sram::require_width(const BitVector& value) const {
  require(value.width() == config_.bits, [this] {
    return "Sram '" + config_.name + "': word width mismatch";
  });
}

BitVector Sram::read(std::uint32_t addr) {
  BitVector out;
  read_into(addr, out);
  return out;
}

void Sram::read_into(std::uint32_t addr, BitVector& out) {
  check_port_usable(addr);
  ++counters_.reads;

  if (row_remap_[addr]) {
    spare_cells_->read_row_into(*row_remap_[addr], out);
    sense_latch_ = out;
    return;
  }

  behavior_->decode(addr, decode_scratch_);
  if (decode_scratch_.empty()) {
    // Address-decoder fault: no wordline fires.  Both bitlines stay
    // precharged high, which the sense amplifier resolves as logic '1'.
    out.reset(config_.bits);
    out.fill(true);
    sense_latch_.fill(true);
    return;
  }

  if (kernel_ != AccessKernel::per_cell && !any_col_repair_ &&
      decode_scratch_.size() == 1) {
    // Word-parallel fast path: one decoded row, no column muxing.  The
    // behaviour reads the whole row at once; only rows with non-driving
    // (stuck-open) cells pay the per-bit sense-latch blend.  read_row
    // overwrites every bit of out/drives, so width adjustment is the only
    // preparation needed (no zeroing pass).
    if (out.width() != config_.bits) {
      out.reset(config_.bits);
    }
    const bool all_drive = behavior_->read_row(cells_, decode_scratch_[0],
                                               out, drives_scratch_, now_ns_);
    if (!all_drive) {
      out.blend(drives_scratch_, sense_latch_);
    }
    sense_latch_ = out;
    return;
  }

  read_per_cell(out);
}

void Sram::read_per_cell(BitVector& out) {
  out.reset(config_.bits);
  for (std::uint32_t j = 0; j < config_.bits; ++j) {
    if (col_remap_[j]) {
      // Column mux swap: the value comes from the fault-free spare lane
      // (still through the shared row decode).
      bool value = true;
      for (const auto row : decode_scratch_) {
        value = value && spare_col_cells_->get({row, *col_remap_[j]});
      }
      sense_latch_.set(j, value);
      out.set(j, value);
      continue;
    }
    bool any_driver = false;
    bool value = true;  // wired-AND start: a stored 0 discharges the bitline
    for (const auto row : decode_scratch_) {
      bool drives = true;
      const bool v =
          behavior_->read_cell(cells_, CellCoord{row, j}, now_ns_, drives);
      if (drives) {
        any_driver = true;
        value = value && v;
      }
    }
    if (!any_driver) {
      // Stuck-open cell(s): nothing discharges the bitlines, the sense amp
      // keeps its previous decision.
      value = sense_latch_.get(j);
    }
    sense_latch_.set(j, value);
    out.set(j, value);
  }
}

void Sram::write_impl(std::uint32_t addr, const BitVector& value,
                      WriteStyle style) {
  check_port_usable(addr);
  require(value.width() == config_.bits, [this] {
    return "Sram '" + config_.name + "': write width mismatch";
  });

  if (row_remap_[addr]) {
    // Spare rows are fault-free replacements; NWRC succeeds like a normal
    // write on healthy cells.
    spare_cells_->write_row_from(*row_remap_[addr], value);
    return;
  }

  behavior_->decode(addr, decode_scratch_);

  if (kernel_ != AccessKernel::per_cell && !any_col_repair_ &&
      decode_scratch_.size() == 1) {
    // Word-parallel fast path: the behaviour applies the whole word pulse
    // (a packed limb copy plus the row's fault-site patches).
    behavior_->write_row(cells_, decode_scratch_[0], value, style, now_ns_);
    return;
  }

  behavior_->begin_word_op();
  for (const auto row : decode_scratch_) {
    for (std::uint32_t j = 0; j < config_.bits; ++j) {
      if (col_remap_[j]) {
        // The defective lane is disconnected; its spare is fault-free, so
        // NWRC and normal writes behave identically.
        spare_col_cells_->set({row, *col_remap_[j]}, value.get(j));
        continue;
      }
      behavior_->write_cell(cells_, CellCoord{row, j}, value.get(j), style,
                            now_ns_);
    }
  }
  behavior_->end_word_op(cells_, now_ns_);
}

void Sram::write(std::uint32_t addr, const BitVector& value) {
  ++counters_.writes;
  write_impl(addr, value, WriteStyle::normal);
}

void Sram::nwrc_write(std::uint32_t addr, const BitVector& value) {
  ++counters_.nwrc_writes;
  write_impl(addr, value, WriteStyle::nwrc);
}

bool Sram::read_bit(std::uint32_t addr, std::uint32_t bit) {
  require_in_range(bit < config_.bits, [this] {
    return "Sram '" + config_.name + "': bit index out of range";
  });
  read_into(addr, read_scratch_);
  return read_scratch_.get(bit);
}

void Sram::repair_row(std::uint32_t addr, std::uint32_t spare) {
  require_in_range(addr < config_.words,
                   "Sram::repair_row: address out of range");
  require(spare_cells_.has_value() && spare < config_.spare_rows, [this] {
    return "Sram '" + config_.name + "': spare index out of range";
  });
  require(!spare_in_use_[spare], [this] {
    return "Sram '" + config_.name + "': spare row already allocated";
  });
  require(!row_remap_[addr].has_value(), [this] {
    return "Sram '" + config_.name + "': address already repaired";
  });
  row_remap_[addr] = spare;
  spare_in_use_[spare] = true;
}

std::uint32_t Sram::spares_used() const {
  std::uint32_t used = 0;
  for (const bool b : spare_in_use_) {
    used += b ? 1u : 0u;
  }
  return used;
}

bool Sram::is_repaired(std::uint32_t addr) const {
  require_in_range(addr < config_.words,
                   "Sram::is_repaired: address out of range");
  return row_remap_[addr].has_value();
}

void Sram::repair_column(std::uint32_t bit, std::uint32_t spare) {
  require_in_range(bit < config_.bits,
                   "Sram::repair_column: bit out of range");
  require(spare_col_cells_.has_value() && spare < config_.spare_cols, [this] {
    return "Sram '" + config_.name + "': spare column index out of range";
  });
  require(!col_spare_in_use_[spare], [this] {
    return "Sram '" + config_.name + "': spare column already allocated";
  });
  require(!col_remap_[bit].has_value(), [this] {
    return "Sram '" + config_.name + "': bit already repaired";
  });
  col_remap_[bit] = spare;
  col_spare_in_use_[spare] = true;
  any_col_repair_ = true;
}

std::uint32_t Sram::col_spares_used() const {
  std::uint32_t used = 0;
  for (const bool b : col_spare_in_use_) {
    used += b ? 1u : 0u;
  }
  return used;
}

bool Sram::is_column_repaired(std::uint32_t bit) const {
  require_in_range(bit < config_.bits,
                   "Sram::is_column_repaired: bit out of range");
  return col_remap_[bit].has_value();
}

}  // namespace fastdiag::sram
