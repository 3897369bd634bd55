// Local address generator (Sec. 3.1).
//
// The shared controller steps a single global index sized for the largest
// memory; each memory's local generator follows it and wraps around its own
// capacity ("for smaller ones the same pattern could be written on each
// address multiple times as the addresses wrap around").
#pragma once

#include <cstdint>

#include "march/element.h"
#include "util/require.h"

namespace fastdiag::bisd {

class LocalAddressGenerator {
 public:
  explicit LocalAddressGenerator(std::uint32_t words) : words_(words) {
    require(words > 0, "LocalAddressGenerator: words must be > 0");
  }

  /// Local address for controller @p step (0 .. global_words-1) sweeping
  /// @p global_words addresses in @p order.
  [[nodiscard]] std::uint32_t map(std::uint32_t step,
                                  march::AddrOrder order,
                                  std::uint32_t global_words) const {
    require(step < global_words, "LocalAddressGenerator: step out of range");
    const std::uint32_t global =
        order == march::AddrOrder::down ? global_words - 1 - step : step;
    return global % words_;
  }

  [[nodiscard]] std::uint32_t words() const { return words_; }

 private:
  std::uint32_t words_;
};

}  // namespace fastdiag::bisd
