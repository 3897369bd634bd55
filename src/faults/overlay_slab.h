// Instance-sliced execution with a sparse per-lane fault-site overlay.
//
// An sram::InstanceSlab packs up to 64 identical-geometry memories as
// bit-lanes of one transposed arena, so a uniform March op costs one word
// op per cell-column for the whole group.  OverlaySlab lets *faulty* lanes
// ride that arena too: each lane's faults::FaultSet records (sites, pins,
// fires, decode table) are applied to the lane's own column bits around
// the packed operations, in the spirit of a fault injector's
// preRead/postWrite hooks:
//
//  * packed patches: where a lane's sites in a row are all single-kind —
//    stuck-at, transition, stuck-open, or a pure coupling aggressor — they
//    fold into per-column lane masks, so one masked pass per patched column
//    replays them for every such lane at once; aggressor transitions come
//    out of the same pass and fire their couplings exactly;
//  * exact sites: any other lane row (DRFs, state-coupling victims, cells
//    with several roles) holds its site cells across the broadcast pulse
//    and replays them through FaultSet::write_sites / read_sites with the
//    per-cell semantics (write-exact and read-exact slots);
//  * the observed row of a read is the arena row itself when no lane has a
//    site or an address fault there, otherwise a patched copy; stuck-open
//    columns repeat a per-lane sense latch;
//  * address faults: lanes whose decode of the address is not {addr} are
//    left out of the address row's pulse and written into their decoded
//    rows with single-lane blends; their reads take the wired-AND of the
//    decoded rows' lane bits, one vectorized pass per decoded row;
//  * row repair: a row-repaired address is an address fault with a
//    one-row decode onto the lane's spare arena row (InstanceSlab keeps
//    spare rows after the word rows).  Repair takes precedence over the
//    lane's own decode of the address, as in sram::Sram, and spare rows
//    hold no sites, so the lane replays nothing per site there.
//
// DRF timing runs on the caller's clock: each op carries the time elapsed
// since construction, and each lane's sites see its own start time plus
// that, exactly the clock a per-memory run would have shown.  scatter()
// lands every lane's cells, spare rows and sense latch in its Sram;
// retention clocks already live in the lane's FaultSet.
//
// The dictionary-build probe slabs use the standalone constructor: each
// lane's packed candidate list compiles into a private FaultSet (the probe
// packing contract: pairwise disjoint cells, no address faults), so a probe
// lane is bit-identical to a memory backed by that FaultSet.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "faults/fault.h"
#include "faults/fault_set.h"
#include "sram/instance_slab.h"

namespace fastdiag::faults {

class OverlaySlab {
 public:
  /// True when @p memory may be a slab lane: no column spares consumed
  /// (row-repaired memories qualify), and its behaviour is a FaultSet or
  /// FaultFreeBehavior.
  [[nodiscard]] static bool lane_capable(const sram::Sram& memory);

  /// True when @p lanes same-geometry memories of width @p bits run faster
  /// as one slab than through their own ports: at least two lanes, and at
  /// least one lane per 256 bits of width.  A slab op touches one limb per
  /// column for the whole group, a port op ceil(bits / 64) limbs per memory
  /// plus the per-memory scheme machinery (golden shadow, SPC/PSC).
  /// Measured with FastScheme on a 4-vCPU AVX-512 VM (best of 7), when the
  /// limb kernels still dispatched to AVX-512 bodies at run time:
  /// fault-free, one lane is slower sliced (224x72: 1.69 vs 1.34 ms), two
  /// lanes are faster up to ~100 bits (224x72: 1.74 vs 2.50 ms, 64x100:
  /// 0.62 vs 0.75 ms) but slower at 1024 bits (9.8 vs 4.9 ms, crossover
  /// near four lanes); at 1 % defects two lanes win at every width
  /// (128x1024: 453 vs 773 ms) and one lane breaks even (256x18: 1.34 vs
  /// 1.27 ms).
  [[nodiscard]] static bool worth_slicing(std::size_t lanes,
                                          std::uint32_t bits);

  /// Memory-backed lanes: 1..64 lane_capable() memories of identical
  /// words x bits (lane k = lanes[k]; spare_rows may differ).  Gathers
  /// their cells, spare rows and latches.
  explicit OverlaySlab(const std::vector<sram::Sram*>& lanes);

  /// Standalone probe lanes: @p lane_count (1..64) candidate lists against
  /// @p config, each compiled into the lane's own FaultSet.  Throws when a
  /// list holds an address fault or two candidates share a cell.
  OverlaySlab(const sram::SramConfig& config,
              const std::vector<FaultInstance>* lanes, std::size_t lane_count);

  [[nodiscard]] std::size_t lane_count() const { return slab_.lane_count(); }
  [[nodiscard]] std::uint64_t lane_mask() const { return slab_.lane_mask(); }
  [[nodiscard]] std::uint32_t bits() const { return slab_.bits(); }

  /// One uniform word write of the broadcast image @p bcast (bits()
  /// entries, all-ones/all-zeros per column) to logical @p addr in every
  /// lane, @p elapsed_ns after construction.
  void write(std::uint32_t addr, const std::uint64_t* bcast,
             sram::WriteStyle style, std::uint64_t elapsed_ns);

  /// One word read of logical @p addr in every lane; the sensed values are
  /// then available through observed() until the next op.
  void read(std::uint32_t addr, std::uint64_t elapsed_ns);

  /// The last read's observed lane limbs: bit k of entry j is what lane k
  /// sensed on column j (bits above lane_count() are unspecified).
  [[nodiscard]] const std::uint64_t* observed() const { return observed_; }

  /// Lanes whose last read disagrees with @p expect_bcast anywhere in
  /// columns [bit_begin, bit_end).
  [[nodiscard]] std::uint64_t compare(const std::uint64_t* expect_bcast,
                                      std::uint32_t bit_begin,
                                      std::uint32_t bit_end) const;

  /// Columns of the 64-column chunk at @p bit_begin where some lane's last
  /// read disagrees with @p expect_bcast (bit j = column bit_begin + j).
  [[nodiscard]] std::uint64_t mismatch_columns(
      const std::uint64_t* expect_bcast, std::uint32_t bit_begin) const;

  /// Writes every lane's cells, spare rows and sense latch back to its
  /// memory (the caller settles clocks and op counters).  Memory-backed
  /// slabs only.
  void scatter();

 private:
  /// An arena row an address reaches off its own row — a decoded row of
  /// address-faulty lanes or the spare row of repaired lanes — and the
  /// lanes reaching it.
  struct Contributor {
    std::uint32_t row = 0;
    std::uint64_t lanes = 0;
  };

  /// The packed sites of one column of a row: lane masks per kind
  /// (stuck-at lanes with their forced ones, transition, stuck-open and
  /// pure-aggressor lanes).  Retention cells and state-coupling victims
  /// have a column here too; their per-lane work lives in the refs below.
  struct Patch {
    std::uint32_t bit = 0;
    std::uint64_t stuck = 0;
    std::uint64_t ones = 0;
    std::uint64_t tf_up = 0;
    std::uint64_t tf_down = 0;
    std::uint64_t sof = 0;
    std::uint64_t aggressor = 0;
  };

  /// A packed retention cell: settles against the site's own clock.
  struct RetentionRef {
    std::uint32_t patch = 0;
    std::uint32_t lane = 0;
    std::uint32_t site = 0;
    bool weak_one = false;  ///< drf1: the stored 1 decays
  };

  /// A packed state-coupling victim with one pin.  Its aggressor is a cell
  /// of another row, or a packed aggressor of the same row that commits
  /// before the victim when it sits below it.
  struct PinRef {
    std::uint32_t patch = 0;
    std::uint32_t lane = 0;
    std::size_t aggressor = 0;  ///< arena index of the aggressor cell
    std::uint32_t aggressor_bit = 0;
    std::uint32_t aggressor_patch = 0;  ///< same row only
    bool same_row = false;
    bool state = false;   ///< aggressor value that pins the victim
    bool forced = false;  ///< the pinned value
  };

  /// A packed aggressor.  One with a single coupling onto a victim
  /// without a retention clock carries that coupling inline (victim arena
  /// index, trigger, effect); any other goes through FaultSet's exact fire.
  struct AggressorRef {
    std::uint32_t patch = 0;
    std::uint32_t lane = 0;
    std::uint32_t site = 0;
    bool inline_fire = false;
    bool trigger = false;
    bool invert = false;
    bool forced = false;
    std::size_t victim = 0;
  };

  void index_lanes();
  [[nodiscard]] SlabLane lane(std::uint32_t k) {
    return SlabLane{slab_.arena(), slab_.bits(), k};
  }
  [[nodiscard]] std::uint64_t now(std::uint32_t k,
                                  std::uint64_t elapsed_ns) const {
    return base_ns_[k] + elapsed_ns;
  }

  sram::InstanceSlab slab_;
  std::vector<sram::Sram*> memories_;  ///< empty on probe slabs
  std::vector<std::unique_ptr<FaultSet>> owned_;  ///< probe lanes' engines
  std::vector<FaultSet*> faults_;  ///< per lane; null for fault-free lanes
  std::vector<std::uint64_t> base_ns_;  ///< per lane clock at construction
  std::vector<std::uint64_t> exact_lanes_;  ///< per row: per-site lanes
  std::vector<std::uint32_t> patch_offset_;  ///< per row CSR into patches_
  std::vector<Patch> patches_;
  std::vector<std::uint32_t> retention_offset_;  ///< per row CSR
  std::vector<RetentionRef> retentions_;
  std::vector<std::uint32_t> pin_offset_;  ///< per row CSR
  std::vector<PinRef> pins_;
  std::vector<std::uint32_t> aggressor_offset_;  ///< per row CSR
  std::vector<AggressorRef> aggressors_;
  std::vector<std::uint64_t> old_limbs_;    ///< per patch: pre-pulse limb
  std::vector<std::uint64_t> transitions_;  ///< per patch: aggressor flips
  /// Per address: lanes off their own row (address-faulty or repaired),
  /// and the repaired ones among them; both empty when none.
  std::vector<std::uint64_t> af_lanes_;
  std::vector<std::uint64_t> spare_lanes_;
  std::vector<std::uint32_t> contrib_offset_;  ///< per address CSR
  std::vector<Contributor> contribs_;
  std::vector<std::uint64_t> latch_;    ///< per column lane latch limbs
  std::vector<std::uint64_t> scratch_;  ///< patched observed row
  const std::uint64_t* observed_ = nullptr;
  std::vector<std::uint8_t> held_;
};

}  // namespace fastdiag::faults
