// The per-cell map form of MarchRunner::run_group_chunk, shared by the
// tests that hold instance-sliced probe replays against run_per_cell.
#pragma once

#include <algorithm>
#include <map>
#include <span>
#include <vector>

#include "march/runner.h"

namespace fastdiag::march {

/// One run_per_cell-shaped result per lane of @p lanes, replayed through
/// run_group_chunk in chunks of up to 64 lanes, in input order.  Each
/// lane's stream folds into its (cell -> reads) map exactly as
/// run_per_cell would have: a cell's reads arrive in March order, and a
/// read failing twice on one cell counts once.
inline std::vector<std::map<sram::CellCoord, std::vector<ReadEvent>>>
run_group_per_cell(const MarchRunner& runner,
                   const sram::SramConfig& probe_config,
                   const std::vector<std::vector<faults::FaultInstance>>& lanes,
                   const MarchTest& test, std::uint32_t global_words = 0) {
  const std::uint32_t bits = probe_config.bits;
  std::vector<std::map<sram::CellCoord, std::vector<ReadEvent>>> results(
      lanes.size());
  for (std::size_t start = 0; start < lanes.size(); start += 64) {
    const std::span<const std::vector<faults::FaultInstance>> chunk(
        lanes.data() + start, std::min<std::size_t>(64, lanes.size() - start));
    runner.run_group_chunk(
        probe_config, chunk, test, global_words,
        [&](std::size_t k, std::span<const LaneRead> reads) {
          auto& by_cell = results[start + k];
          for (const auto& read : reads) {
            auto& events =
                by_cell[{read.cell_id / bits, read.cell_id % bits}];
            if (events.empty() || events.back() != read.event) {
              events.push_back(read.event);
            }
          }
        });
  }
  return results;
}

}  // namespace fastdiag::march
