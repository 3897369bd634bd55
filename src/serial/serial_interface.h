// The serial BIST interfaces of the prior art.
//
// In the serialized BIST mode of [9, 10] and [7, 8] (Fig. 2), the addressed
// word's cells form a shift chain: each clock, every cell is read and the
// value of its neighbour is written back, the controller feeding one fresh
// bit per clock at the entry end and observing one bit at the exit end.
// Filling one word with a new background therefore costs c clocks, and a
// full pass over the memory costs n*c clocks (the n*c*t unit of Eq. (1)).
//
// Because the data marches *through* the cells, a defective cell corrupts
// everything that passes it: downstream of the first fault the observed
// stream is untrustworthy, and upstream data arrives pre-corrupted.  The
// single-directional interface therefore masks every fault beyond the first
// (the problem [7,8] fixed); the bi-directional interface recovers one more
// fault per element by shifting the other way — and no more.  This module
// reproduces that behaviour bit-accurately; the diagnosis consequences are
// exercised in src/bisd and in E5 of core/paper_tables.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sram/sram.h"
#include "util/bitvec.h"

namespace fastdiag::serial {

/// Which end of the word the serial input enters.
/// right: enters bit 0, exits bit c-1 (the RSMarch direction).
/// left:  enters bit c-1, exits bit 0.
enum class ShiftDirection { right, left };

/// Result of one serialized pass.
struct SerialPassResult {
  /// Observed exit-stream per visited address, re-assembled as the word the
  /// controller would reconstruct (bit j = the value that exited when cell
  /// j's content was due, for a fault-free chain).
  std::vector<BitVector> observed;
  /// Addresses in visit order (ascending for this implementation).
  std::vector<std::uint32_t> addresses;
  /// Shift clocks consumed (n * c).
  std::uint64_t cycles = 0;
};

class BidiSerialInterface {
 public:
  /// Binds to @p memory; the memory must outlive the interface.
  explicit BidiSerialInterface(sram::Sram& memory);

  /// One serialized March pass in @p direction: every address ascending,
  /// c shift clocks each, shifting @p pattern into the word while its old
  /// content streams out.  Bit-accurate: each clock performs a real word
  /// read and a real shifted write-back through the fault engine.
  SerialPassResult pass(ShiftDirection direction, const BitVector& pattern);

  /// Same, with a per-address pattern (checkerboard fills alternate by row).
  SerialPassResult pass(
      ShiftDirection direction,
      const std::function<BitVector(std::uint32_t)>& pattern_for);

  /// Accumulated shift clocks over all passes.
  [[nodiscard]] std::uint64_t total_cycles() const { return total_cycles_; }

 private:
  sram::Sram& memory_;
  std::uint64_t total_cycles_ = 0;
};

/// The single-directional interface of [9, 10]: a BidiSerialInterface
/// restricted to right shifts — kept as its own type so architectures can
/// state which hardware they require.
class UniSerialInterface {
 public:
  explicit UniSerialInterface(sram::Sram& memory) : inner_(memory) {}

  SerialPassResult pass(const BitVector& pattern) {
    return inner_.pass(ShiftDirection::right, pattern);
  }

  [[nodiscard]] std::uint64_t total_cycles() const {
    return inner_.total_cycles();
  }

 private:
  BidiSerialInterface inner_;
};

}  // namespace fastdiag::serial
