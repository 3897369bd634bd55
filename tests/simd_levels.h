// Dispatch-level sweep helpers shared by the differential tests: every
// level this CPU supports, walked through simd::force(), and a guard that
// restores the level the test started at.
#pragma once

#include <vector>

#include "util/simd.h"

namespace fastdiag {

/// scalar, then avx2 and avx512 where this CPU supports them.
inline std::vector<simd::IsaLevel> available_levels() {
  std::vector<simd::IsaLevel> levels{simd::IsaLevel::scalar};
  if (simd::detected_level() >= simd::IsaLevel::avx2) {
    levels.push_back(simd::IsaLevel::avx2);
  }
  if (simd::detected_level() >= simd::IsaLevel::avx512) {
    levels.push_back(simd::IsaLevel::avx512);
  }
  return levels;
}

/// Restores the pre-test dispatch level when a level sweep exits.
class LevelGuard {
 public:
  LevelGuard() : saved_(simd::active_level()) {}
  ~LevelGuard() { simd::force(saved_); }
  LevelGuard(const LevelGuard&) = delete;
  LevelGuard& operator=(const LevelGuard&) = delete;

 private:
  simd::IsaLevel saved_;
};

}  // namespace fastdiag
