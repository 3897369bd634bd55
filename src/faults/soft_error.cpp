#include "faults/soft_error.h"

#include <algorithm>

#include "util/require.h"

namespace fastdiag::faults {

const char* scrub_policy_name(ScrubPolicy policy) {
  switch (policy) {
    case ScrubPolicy::none: return "none";
    case ScrubPolicy::on_detect: return "on_detect";
    case ScrubPolicy::periodic: return "periodic";
  }
  ensure(false, "scrub_policy_name: unknown policy");
  return "?";
}

std::vector<UpsetEvent> generate_upsets(const sram::SramConfig& config,
                                        const SoftErrorSpec& spec, Rng& rng) {
  std::vector<UpsetEvent> events;
  if (!spec.enabled) return events;
  ensure(spec.mean_upset_gap_ns > 0, "generate_upsets: mean gap must be > 0");
  ensure(spec.mean_upset_gap_ns <= kMaxMeanUpsetGapNs,
         "generate_upsets: mean gap must be <= 2^63 ns");
  const std::uint32_t columns =
      config.bits +
      (spec.ecc ? sram::EccCodec::check_bits_for(config.bits) : 0);
  const std::uint64_t mean = spec.mean_upset_gap_ns;
  std::uint64_t t = 0;
  for (;;) {
    const std::uint64_t gap =
        mean == 1 ? 1 : rng.uniform_in(1, 2 * mean - 1);
    if (spec.duration_ns - t < gap) break;
    t += gap;
    UpsetEvent event;
    event.time_ns = t;
    event.cell.row = static_cast<std::uint32_t>(rng.uniform(config.words));
    event.cell.bit = static_cast<std::uint32_t>(rng.uniform(columns));
    const bool intermittent = rng.bernoulli(spec.intermittent_fraction);
    if (intermittent && event.cell.bit < config.bits) {
      event.kind = UpsetKind::intermittent;
      event.hold_ns = spec.intermittent_hold_ns;
    }
    events.push_back(event);
  }
  return events;
}

SoftErrorBehavior::SoftErrorBehavior(
    std::unique_ptr<sram::FaultBehavior> inner, std::vector<UpsetEvent> events,
    bool ecc)
    : inner_(std::move(inner)), events_(std::move(events)), ecc_(ecc) {
  ensure(inner_ != nullptr, "SoftErrorBehavior: inner behavior required");
  std::stable_sort(events_.begin(), events_.end(),
                   [](const UpsetEvent& a, const UpsetEvent& b) {
                     return a.time_ns < b.time_ns;
                   });
}

void SoftErrorBehavior::attach(const sram::SramConfig& config) {
  config_ = config;
  inner_->attach(config);
  const std::uint32_t columns =
      config.bits + (ecc_ ? sram::EccCodec::check_bits_for(config.bits) : 0);
  for (const UpsetEvent& event : events_) {
    ensure(event.cell.row < config.words && event.cell.bit < columns,
           "SoftErrorBehavior: upset outside the memory");
  }
  if (ecc_) {
    codec_.emplace(config.bits);
    check_rows_.assign(config.words, 0);
  }
  cache_out_ = BitVector(config.bits);
  cache_drives_ = BitVector(config.bits);
  scratch_ = BitVector(config.bits);
  model_presented_ = BitVector(config.bits);
  model_written_ = BitVector(config.bits);
  cache_valid_ = false;
}

void SoftErrorBehavior::decode(std::uint32_t addr,
                               std::vector<std::uint32_t>& rows) {
  inner_->decode(addr, rows);
}

void SoftErrorBehavior::toggle(std::vector<std::uint32_t>& set,
                               std::uint32_t bit) {
  const auto it = std::lower_bound(set.begin(), set.end(), bit);
  if (it != set.end() && *it == bit) {
    set.erase(it);
  } else {
    set.insert(it, bit);
  }
}

void SoftErrorBehavior::commit_up_to(sram::CellArray& cells,
                                     std::uint64_t now_ns) {
  bool mutated = false;
  while (next_event_ < events_.size() &&
         events_[next_event_].time_ns <= now_ns) {
    const UpsetEvent& event = events_[next_event_++];
    mutated = true;
    if (event.cell.bit < config_.bits) {
      if (event.kind == UpsetKind::intermittent) {
        // Pin the read value to the flip of what is stored right now; the
        // stored charge itself is untouched and the pin self-clears.
        pins_.push_back({event.cell, event.time_ns + event.hold_ns,
                         !cells.get(event.cell)});
      } else {
        cells.set(event.cell, !cells.get(event.cell));
        toggle(outstanding_[event.cell.row].data, event.cell.bit);
      }
    } else if (ecc_) {
      const std::uint32_t k = event.cell.bit - config_.bits;
      check_rows_[event.cell.row] ^= 1u << k;
      toggle(outstanding_[event.cell.row].check, k);
    }
  }
  const std::size_t before = pins_.size();
  std::erase_if(pins_, [now_ns](const ActivePin& pin) {
    return pin.until_ns <= now_ns;
  });
  if (mutated || pins_.size() != before) {
    ++epoch_;
    cache_valid_ = false;
  }
}

void SoftErrorBehavior::after_row_write(sram::CellArray& cells,
                                        std::uint32_t row) {
  outstanding_.erase(row);
  if (ecc_) {
    // The check word tracks the array contents after the write pulse (a
    // write-through of the row), so static write defects fold into the
    // reference codeword and ECC statistics isolate in-field upsets.
    cells.read_row_into(row, scratch_);
    check_rows_[row] = codec_->encode(scratch_);
  }
  ++epoch_;
  cache_valid_ = false;
}

void SoftErrorBehavior::write_row(sram::CellArray& cells, std::uint32_t row,
                                  const BitVector& value,
                                  sram::WriteStyle style,
                                  std::uint64_t now_ns) {
  commit_up_to(cells, now_ns);
  inner_->write_row(cells, row, value, style, now_ns);
  after_row_write(cells, row);
}

void SoftErrorBehavior::begin_word_op() {
  inner_->begin_word_op();
  in_word_op_ = true;
  word_op_rows_.clear();
}

void SoftErrorBehavior::write_cell(sram::CellArray& cells,
                                   sram::CellCoord cell, bool value,
                                   sram::WriteStyle style,
                                   std::uint64_t now_ns) {
  commit_up_to(cells, now_ns);
  inner_->write_cell(cells, cell, value, style, now_ns);
  if (in_word_op_) {
    if (std::find(word_op_rows_.begin(), word_op_rows_.end(), cell.row) ==
        word_op_rows_.end()) {
      word_op_rows_.push_back(cell.row);
    }
  } else {
    after_row_write(cells, cell.row);
  }
}

void SoftErrorBehavior::end_word_op(sram::CellArray& cells,
                                    std::uint64_t now_ns) {
  inner_->end_word_op(cells, now_ns);
  for (const std::uint32_t row : word_op_rows_) {
    after_row_write(cells, row);
  }
  word_op_rows_.clear();
  in_word_op_ = false;
}

void SoftErrorBehavior::model_row(const sram::CellArray& cells,
                                  std::uint32_t row, std::uint64_t now_ns,
                                  BitVector& presented,
                                  BitVector& written) const {
  cells.read_row_into(row, presented);
  written = presented;
  const auto it = outstanding_.find(row);
  if (it != outstanding_.end()) {
    for (const std::uint32_t bit : it->second.data) written.flip(bit);
  }
  for (const ActivePin& pin : pins_) {
    if (pin.cell.row == row && pin.until_ns > now_ns) {
      presented.set(pin.cell.bit, pin.forced);
    }
  }
}

void SoftErrorBehavior::refresh_row_cache(sram::CellArray& cells,
                                          std::uint32_t row,
                                          std::uint64_t now_ns) {
  cache_all_drive_ =
      inner_->read_row(cells, row, cache_out_, cache_drives_, now_ns);
  if (cache_all_drive_) cache_drives_.fill(true);
  for (const ActivePin& pin : pins_) {
    if (pin.cell.row == row && pin.until_ns > now_ns) {
      cache_out_.set(pin.cell.bit, pin.forced);
      cache_drives_.set(pin.cell.bit, true);
    }
  }
  last_read_corrected_ = false;
  if (ecc_) {
    const auto decode = codec_->decode(cache_out_, check_rows_[row]);
    if (decode.outcome != sram::EccCodec::DecodeOutcome::clean) {
      last_read_corrected_ = true;
      // Classify against the accounting model (stored cells + pins +
      // outstanding flips): exactly one modeled error at the decoded
      // position is a genuine correction, anything else a miscorrection.
      model_row(cells, row, now_ns, model_presented_, model_written_);
      model_presented_.xor_with(model_written_);
      const std::uint64_t data_errors = model_presented_.popcount();
      const auto it = outstanding_.find(row);
      const std::size_t check_errors =
          it == outstanding_.end() ? 0 : it->second.check.size();
      const std::uint64_t total = data_errors + check_errors;
      switch (decode.outcome) {
        case sram::EccCodec::DecodeOutcome::corrected_data:
          if (total == 1 && data_errors == 1 &&
              model_presented_.get(static_cast<std::uint32_t>(decode.bit))) {
            ++ecc_stats_.corrected;
          } else {
            ++ecc_stats_.miscorrected;
          }
          break;
        case sram::EccCodec::DecodeOutcome::corrected_check:
          if (total == 1 && check_errors == 1 &&
              it->second.check.front() ==
                  static_cast<std::uint32_t>(decode.bit)) {
            ++ecc_stats_.corrected;
          } else {
            ++ecc_stats_.miscorrected;
          }
          break;
        case sram::EccCodec::DecodeOutcome::uncorrectable:
          ++ecc_stats_.uncorrectable;
          break;
        case sram::EccCodec::DecodeOutcome::clean: break;
      }
    }
  }
  cache_row_ = row;
  cache_now_ = now_ns;
  cache_epoch_ = epoch_;
  cache_valid_ = true;
}

bool SoftErrorBehavior::read_cell(sram::CellArray& cells, sram::CellCoord cell,
                                  std::uint64_t now_ns, bool& drives) {
  commit_up_to(cells, now_ns);
  if (!cache_valid_ || cache_row_ != cell.row || cache_now_ != now_ns ||
      cache_epoch_ != epoch_) {
    refresh_row_cache(cells, cell.row, now_ns);
  }
  drives = cache_drives_.get(cell.bit);
  return cache_out_.get(cell.bit);
}

bool SoftErrorBehavior::read_row(sram::CellArray& cells, std::uint32_t row,
                                 BitVector& out, BitVector& drives,
                                 std::uint64_t now_ns) {
  commit_up_to(cells, now_ns);
  if (!cache_valid_ || cache_row_ != row || cache_now_ != now_ns ||
      cache_epoch_ != epoch_) {
    refresh_row_cache(cells, row, now_ns);
  }
  out = cache_out_;
  drives = cache_drives_;
  return cache_all_drive_;
}

void SoftErrorBehavior::live_rows(std::uint64_t now_ns,
                                  std::vector<std::uint32_t>& rows) const {
  rows.clear();
  for (const auto& [row, errors] : outstanding_) rows.push_back(row);
  for (const ActivePin& pin : pins_) {
    if (pin.until_ns > now_ns) rows.push_back(pin.cell.row);
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
}

std::uint64_t SoftErrorBehavior::escaped_cells(sram::CellArray& cells,
                                               std::uint64_t now_ns) {
  commit_up_to(cells, now_ns);
  std::vector<std::uint32_t> rows;
  live_rows(now_ns, rows);
  std::uint64_t escaped = 0;
  for (const std::uint32_t row : rows) {
    model_row(cells, row, now_ns, model_presented_, model_written_);
    if (ecc_) codec_->decode(model_presented_, check_rows_[row]);
    model_presented_.xor_with(model_written_);
    escaped += model_presented_.popcount();
  }
  return escaped;
}

}  // namespace fastdiag::faults
