// Executes a MarchTest against one memory, word-parallel (the idealized
// access every BIST architecture ultimately performs), recording every read
// mismatch.  The serial/SPC/PSC delivery mechanics of the two diagnosis
// schemes live in src/bisd; this runner is the algorithm-level reference
// used by the coverage evaluator and the scheme cross-checks.
//
// The run loop is allocation-free: one scratch word is reused across every
// read (Sram::read_into), and the heap is touched only when a mismatch is
// recorded.
//
// Four entry points share one element-loop driver (drive_march in the
// implementation): run() materializes the full Mismatch stream
// (expected/actual word copies included), run_per_cell() folds the stream
// straight into per-cell failed-read sets — the multi-victim replay the
// bit-sliced dictionary builder demultiplexes packed candidate faults from —
// run_group() advances fleets as InstanceSlab lanes with each lane's fault
// sites overlaid, and run_group_per_cell() batches up to 64 packed probe
// memories per slab for the instance-sliced dictionary build.  The clients differ only in delivery
// (port vs broadcast) and demux (word mismatch vs lane mask vs lane/cell).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "faults/fault.h"
#include "march/test.h"
#include "sram/sram.h"
#include "sram/timing.h"

namespace fastdiag::march {

struct Mismatch {
  std::size_t phase = 0;
  std::size_t element = 0;
  std::size_t op = 0;      ///< op index within the element (counts writes
                           ///< too, matching MarchElement::ops)
  std::uint32_t addr = 0;
  std::uint32_t visit = 0; ///< wrap-around revisit count (0 = first visit)
  BitVector expected;
  BitVector actual;

  friend bool operator==(const Mismatch&, const Mismatch&) = default;
};

/// Identity of one read op in the march stream, in chronological member
/// order (the default ordering sorts events in execution order).
struct ReadEvent {
  std::size_t phase = 0;
  std::size_t element = 0;
  std::uint32_t visit = 0; ///< wrap-around revisit count (0 = first visit)
  std::size_t op = 0;      ///< op index within the element (counts writes)

  friend bool operator==(const ReadEvent&, const ReadEvent&) = default;
  friend auto operator<=>(const ReadEvent&, const ReadEvent&) = default;
};

struct RunResult {
  std::vector<Mismatch> mismatches;
  std::uint64_t ops = 0;        ///< operations issued (pauses included)
  std::uint64_t elapsed_ns = 0; ///< simulated time consumed by the run

  [[nodiscard]] bool detected() const { return !mismatches.empty(); }

  /// Cells implicated by at least one mismatching read bit, sorted
  /// ascending with duplicates removed (probe with std::binary_search).
  [[nodiscard]] std::vector<sram::CellCoord> suspect_cells() const;
};

class MarchRunner {
 public:
  /// @p clock is the per-operation cycle time (default 10 ns, the paper's t).
  explicit MarchRunner(sram::ClockDomain clock = {}) : clock_(clock) {}

  /// Runs @p test on @p memory.  The test's background width must be >= the
  /// memory width; wider backgrounds are truncated to the low bits, exactly
  /// as the MSB-first SPC does for narrower memories (Sec. 3.2).
  ///
  /// @p global_words emulates the shared BISD controller's address trigger
  /// (Sec. 3.1): each element sweeps global_words steps and the local
  /// address wraps around the memory's own capacity, so smaller memories
  /// see every pattern multiple times per element.  0 (the default) sweeps
  /// exactly the memory's own words — the classical single-memory run.
  RunResult run(sram::Sram& memory, const MarchTest& test,
                std::uint32_t global_words = 0) const;

  /// Runs @p test over a fleet of identical-geometry memories, one RunResult
  /// per memory in input order, bit-identical to calling run() on each.
  /// Memories on the word_parallel kernel that
  /// faults::OverlaySlab::lane_capable() accepts — unrepaired, FaultSet- or
  /// fault-free-backed, faulty or not — advance as bit-lanes of shared
  /// slabs (chunks of up to 64 in input order, when worth_slicing() says
  /// the chunk pays) with each lane's fault sites overlaid: one word op per
  /// cell-column for the whole chunk.  Everything else (per_cell memories,
  /// repaired or in-field ones) runs the per-memory loop.
  [[nodiscard]] std::vector<RunResult> run_group(
      const std::vector<sram::Sram*>& memories, const MarchTest& test,
      std::uint32_t global_words = 0) const;

  /// Multi-victim replay: runs @p test once and demultiplexes the mismatch
  /// stream per failing cell — every cell with at least one mismatching
  /// read bit maps to its distinct ReadEvents in March order.  Equivalent
  /// to folding run().mismatches per differing bit, but without copying an
  /// expected/actual word pair per record, so a packed probe carrying many
  /// candidate faults (faults::CompositeProbeBehavior) pays one replay for
  /// every candidate's signature.
  [[nodiscard]] std::map<sram::CellCoord, std::vector<ReadEvent>>
  run_per_cell(sram::Sram& memory, const MarchTest& test,
               std::uint32_t global_words = 0) const;

  /// Instance-sliced multi-victim replay: one run_per_cell result per lane,
  /// bit-identical to replaying each lane's candidate list through its own
  /// CompositeProbeBehavior memory of geometry @p probe_config — but the
  /// whole group advances as bit-lanes of shared faults::OverlaySlab slabs
  /// (chunks of up to 64, in input order), one overlaid word op per
  /// cell-column plus each lane's exact fault-site records.  Mismatching
  /// reads demux from the packed compare masks straight to (lane, cell)
  /// coordinates.
  [[nodiscard]] std::vector<std::map<sram::CellCoord, std::vector<ReadEvent>>>
  run_group_per_cell(const sram::SramConfig& probe_config,
                     const std::vector<std::vector<faults::FaultInstance>>&
                         lanes,
                     const MarchTest& test,
                     std::uint32_t global_words = 0) const;

 private:
  sram::ClockDomain clock_;
};

}  // namespace fastdiag::march
