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
// The entry points share one element driver (drive_march in
// march/drive.h).  run() and run_per_cell() are the per-memory reference:
// run() materializes the full Mismatch stream (expected/actual word copies
// included), run_per_cell() folds the stream straight into per-cell
// failed-read sets.  run_group_chunk() is the one slab client: it replays
// up to 64 packed probe lanes per faults::OverlaySlab for the
// instance-sliced dictionary build and streams each lane's failing reads.
// The clients differ only in delivery (port vs broadcast) and demux (word
// mismatch vs lane/cell).  Fleets of real memories slice inside
// bisd::FastScheme, whose execution units are sinks of the same driver,
// one element at a time (drive_element).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
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

/// One failing read bit of an instance-sliced probe lane.
struct LaneRead {
  std::uint32_t cell_id = 0;  ///< row * bits + bit in the probe geometry
  ReadEvent event;
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

  /// Multi-victim replay: runs @p test once and demultiplexes the mismatch
  /// stream per failing cell — every cell with at least one mismatching
  /// read bit maps to its distinct ReadEvents in March order.  Equivalent
  /// to folding run().mismatches per differing bit, but without copying an
  /// expected/actual word pair per record, so a memory carrying many
  /// disjoint candidate faults pays one replay for every candidate's
  /// signature.
  [[nodiscard]] std::map<sram::CellCoord, std::vector<ReadEvent>>
  run_per_cell(sram::Sram& memory, const MarchTest& test,
               std::uint32_t global_words = 0) const;

  /// Instance-sliced multi-victim replay of one chunk of 1 to 64 probe
  /// lanes of geometry @p probe_config, advanced as the bit-lanes of one
  /// faults::OverlaySlab (each lane's candidates at pairwise disjoint
  /// cells, no address fault).  Hands each lane's failing read bits to
  /// @p on_lane(lane, reads), lanes in input order; they match what
  /// run_per_cell sees on a FaultSet memory of the lane's candidates.  A
  /// lane's reads come in March arrival order, one entry per failing bit
  /// per read; the span is scratch storage valid only during the call.
  void run_group_chunk(
      const sram::SramConfig& probe_config,
      std::span<const std::vector<faults::FaultInstance>> lanes,
      const MarchTest& test, std::uint32_t global_words,
      const std::function<void(std::size_t, std::span<const LaneRead>)>&
          on_lane) const;

 private:
  sram::ClockDomain clock_;
};

}  // namespace fastdiag::march
