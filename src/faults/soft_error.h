// In-field soft-error workload: timestamped transient/intermittent upsets
// and the behavior layer that replays them on the memory's run clock.
//
// Everything else in src/faults models manufacturing-time static defects;
// this module models what happens *after* the die ships.  Radiation-induced
// upsets arrive as discrete events on the simulated clock (seeded integer
// inter-arrival gaps, never wall time, so runs stay bit-identical at any
// worker count):
//
//   - a *transient* upset flips the stored value of one cell at its event
//     time and the flip persists until the cell is rewritten (scrubbed);
//   - an *intermittent* upset pins the cell's read value to the flipped
//     state for a hold window [t, t+hold) and then self-clears — the stored
//     charge was never disturbed, so no scrub is needed;
//   - with ECC enabled, events may also land in the r check-bit columns the
//     on-die codec stores next to each word.
//
// SoftErrorBehavior wraps the memory's static-fault behavior (usually a
// FaultSet) and splices the event stream plus an optional sram::EccCodec
// between the cell array and whatever reads the memory.  Reads first commit
// every event with time <= now, then overlay active intermittents, then run
// the ECC decode — so single-bit upsets vanish from the observable stream
// (and double errors become confident miscorrections, Patel's problem).
// The behavior keeps exact per-upset accounting so the engine can score
// detected vs escaped upsets afterwards.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sram/config.h"
#include "sram/ecc.h"
#include "sram/fault_behavior.h"
#include "util/rng.h"

namespace fastdiag::faults {

/// What a scanning scheme writes back when it finds (or suspects) an upset.
enum class ScrubPolicy : std::uint8_t {
  /// Never rewrite; upsets accumulate until the workload ends.
  none,
  /// Rewrite a word when the comparator flags it (or, with ECC, when the
  /// decoder reports correction activity on it).
  on_detect,
  /// Rewrite every word on every sweep, detected or not.
  periodic,
};

[[nodiscard]] const char* scrub_policy_name(ScrubPolicy policy);

/// Knobs of one in-field soft-error run.  Disabled by default; enabling it
/// requires an in-field scheme (see SchemeCapabilities::in_field).
struct SoftErrorSpec {
  bool enabled = false;

  /// Mean inter-arrival gap between upsets per memory, in simulated ns.
  /// Gaps are drawn uniformly from [1, 2*mean-1] (integer, seeded) — same
  /// mean as an exponential process without float-accumulation hazards.
  std::uint64_t mean_upset_gap_ns = 20'000;

  /// Length of the simulated in-field window.
  std::uint64_t duration_ns = 1'000'000;

  /// Period of the scanning scheme's sweeps; sweep k samples the array at
  /// exactly (k+1) * scan_period_ns.
  std::uint64_t scan_period_ns = 10'000;

  /// Fraction of upsets that are intermittent (pin-then-self-clear) rather
  /// than transient (stored-bit flip).
  double intermittent_fraction = 0.0;

  /// Hold window of an intermittent upset.
  std::uint64_t intermittent_hold_ns = 25'000;

  /// Insert the on-die SEC Hamming layer between array and comparator.
  bool ecc = false;

  ScrubPolicy scrub = ScrubPolicy::on_detect;

  friend bool operator==(const SoftErrorSpec&, const SoftErrorSpec&) = default;
};

enum class UpsetKind : std::uint8_t { transient, intermittent };

/// One scheduled upset.  cell.bit >= config.bits addresses ECC check column
/// (cell.bit - config.bits); such events only exist when spec.ecc is set.
struct UpsetEvent {
  std::uint64_t time_ns = 0;
  sram::CellCoord cell{};
  UpsetKind kind = UpsetKind::transient;
  /// Intermittent only: read value pinned during [time_ns, time_ns+hold_ns).
  std::uint64_t hold_ns = 0;

  friend bool operator==(const UpsetEvent&, const UpsetEvent&) = default;
};

/// Draws the event stream for one memory from @p rng: inter-arrival gaps of
/// mean spec.mean_upset_gap_ns until spec.duration_ns, uniform cells (data
/// columns plus, with ECC, check columns).  Intermittents landing in check
/// columns degrade to transients — check storage has no read path to pin.
/// The result is sorted by time.
[[nodiscard]] std::vector<UpsetEvent> generate_upsets(
    const sram::SramConfig& config, const SoftErrorSpec& spec, Rng& rng);

/// The in-field behavior layer.  Upsets are per-instance timed state, so
/// these memories never join an instance-sliced group.
class SoftErrorBehavior final : public sram::FaultBehavior {
 public:
  struct EccStats {
    /// Decoder flipped the one genuinely upset bit.
    std::uint64_t corrected = 0;
    /// Decoder flipped a healthy bit (>= 2 errors aliasing to a single).
    std::uint64_t miscorrected = 0;
    /// Syndrome outside the code: detected, data passed through raw.
    std::uint64_t uncorrectable = 0;

    friend bool operator==(const EccStats&, const EccStats&) = default;
  };

  SoftErrorBehavior(std::unique_ptr<sram::FaultBehavior> inner,
                    std::vector<UpsetEvent> events, bool ecc);

  // FaultBehavior ------------------------------------------------------------
  void attach(const sram::SramConfig& config) override;
  void decode(std::uint32_t addr, std::vector<std::uint32_t>& rows) override;
  void write_cell(sram::CellArray& cells, sram::CellCoord cell, bool value,
                  sram::WriteStyle style, std::uint64_t now_ns) override;
  void begin_word_op() override;
  void end_word_op(sram::CellArray& cells, std::uint64_t now_ns) override;
  bool read_cell(sram::CellArray& cells, sram::CellCoord cell,
                 std::uint64_t now_ns, bool& drives) override;
  void write_row(sram::CellArray& cells, std::uint32_t row,
                 const BitVector& value, sram::WriteStyle style,
                 std::uint64_t now_ns) override;
  bool read_row(sram::CellArray& cells, std::uint32_t row, BitVector& out,
                BitVector& drives, std::uint64_t now_ns) override;

  // Accounting ---------------------------------------------------------------
  [[nodiscard]] const std::vector<UpsetEvent>& events() const {
    return events_;
  }
  [[nodiscard]] const EccStats& ecc_stats() const { return ecc_stats_; }
  [[nodiscard]] bool ecc_enabled() const { return ecc_; }

  /// True when the most recent read's ECC decode acted on the word (nonzero
  /// syndrome).  An ECC-aware scrubber rewrites such words even though the
  /// comparator saw nothing wrong.
  [[nodiscard]] bool last_read_corrected() const {
    return last_read_corrected_;
  }

  /// Applies every not-yet-committed event with time <= @p now_ns and drops
  /// expired intermittents.  Reads/writes do this implicitly; the engine
  /// calls it once more at scoring time so post-final-sweep events land.
  void commit_up_to(sram::CellArray& cells, std::uint64_t now_ns);

  /// Data cells whose value, as a consumer reading through the (optional)
  /// ECC path at @p now_ns would see it, still differs from the last value
  /// written — the upsets that escaped scanning and scrubbing.  Static
  /// defects of the inner behavior are excluded by construction: this metric
  /// isolates the soft-error workload.
  [[nodiscard]] std::uint64_t escaped_cells(sram::CellArray& cells,
                                            std::uint64_t now_ns);

 private:
  struct RowErrors {
    /// Data / check bits flipped by transients since the row's last write.
    std::vector<std::uint32_t> data;
    std::vector<std::uint32_t> check;
  };
  struct ActivePin {
    sram::CellCoord cell{};
    std::uint64_t until_ns = 0;
    bool forced = false;
  };

  void toggle(std::vector<std::uint32_t>& set, std::uint32_t bit);
  void after_row_write(sram::CellArray& cells, std::uint32_t row);
  /// Computes the post-overlay, post-decode view of @p row into the cache.
  void refresh_row_cache(sram::CellArray& cells, std::uint32_t row,
                         std::uint64_t now_ns);
  /// presented/written pair of @p row as seen by the accounting model
  /// (stored cells + pins + outstanding flips; inner defects excluded).
  void model_row(const sram::CellArray& cells, std::uint32_t row,
                 std::uint64_t now_ns, BitVector& presented,
                 BitVector& written) const;

  std::unique_ptr<sram::FaultBehavior> inner_;
  std::vector<UpsetEvent> events_;
  std::size_t next_event_ = 0;
  bool ecc_ = false;

  sram::SramConfig config_{};
  std::optional<sram::EccCodec> codec_;
  /// Stored check word per row (ECC only); rewritten on every row write.
  std::vector<std::uint32_t> check_rows_;
  std::unordered_map<std::uint32_t, RowErrors> outstanding_;
  std::vector<ActivePin> pins_;
  EccStats ecc_stats_;
  bool last_read_corrected_ = false;

  /// Bumped on every mutation (event commit, pin expiry, write) so the
  /// row-read cache — which makes the per-cell and word kernels see one
  /// decode per (row, time) and thus identical stats — stays coherent.
  std::uint64_t epoch_ = 0;
  bool cache_valid_ = false;
  std::uint32_t cache_row_ = 0;
  std::uint64_t cache_now_ = 0;
  std::uint64_t cache_epoch_ = 0;
  bool cache_all_drive_ = true;
  BitVector cache_out_;
  BitVector cache_drives_;

  bool in_word_op_ = false;
  std::vector<std::uint32_t> word_op_rows_;
  BitVector scratch_;
  BitVector model_presented_;
  BitVector model_written_;
};

}  // namespace fastdiag::faults
