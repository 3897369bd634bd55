// Syndrome -> fault-model classification.
//
// The classifier decides *which kind* of fault a syndrome points at, not
// just where — the step that turns the fast scheme's complete diagnosis
// data (Sec. 3.1/4) into actionable fault-model inferences.
//
// It works dictionary-style, like RAMSES run in reverse: for a candidate
// (kind, placement) it injects exactly that single fault into a small probe
// memory of the same word width, replays the same March test with an
// op-attributed MarchRunner, and records the signature — the set of
// (phase, element, op) reads the victim fails.  A hypothesis is emitted
// when the observed syndrome equals the signature (confidence 1.0), or,
// failing any exact match, when it overlaps one (Jaccard confidence).
// Signatures depend only on the victim's bit (through the data
// backgrounds), its position category (sweep edge vs. middle) and — for
// couplings — the aggressor's relative placement, so the probe needs only
// a handful of words and the dictionary is cached per victim bit.
//
// Two classical ambiguities surface honestly as ties: a cell that never
// leaves 0 (SA0 vs. TF-up under any march that initialises to 0) and
// coupling aggressor bits whose background columns the test does not
// separate.  Ties share top confidence; callers see them via top_kinds().
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "diagnosis/syndrome.h"
#include "faults/dictionary.h"
#include "faults/fault.h"
#include "march/test.h"
#include "sram/config.h"
#include "sram/timing.h"

namespace fastdiag::bisd {
class SocUnderTest;
}

namespace fastdiag::diagnosis {

/// Where a hypothesised coupling aggressor sits relative to the victim.
enum class AggressorPlacement { none, same_word, lower_address,
                                higher_address };

[[nodiscard]] std::string_view aggressor_placement_name(AggressorPlacement p);

/// Aggressor candidates consistent with the syndrome: the placement plus
/// the IO bits whose background columns reproduce the observed signature.
struct AggressorHint {
  AggressorPlacement placement = AggressorPlacement::none;
  std::vector<std::uint32_t> candidate_bits;

  /// True when @p fault (ground truth) satisfies this hint for @p victim.
  [[nodiscard]] bool admits(const faults::FaultInstance& fault) const;
};

struct Hypothesis {
  faults::FaultKind kind = faults::FaultKind::sa0;
  double confidence = 0.0;  ///< 1.0 = exact signature match
  AggressorHint aggressor;  ///< populated for coupling kinds

  [[nodiscard]] std::string to_string() const;
};

/// Verdict for one fault site — a single cell, or a whole row when the
/// syndrome is row-granular (the address-decoder signature).
struct SiteClassification {
  enum class Site { cell, row };
  Site site = Site::cell;
  sram::CellCoord cell{};     ///< valid for Site::cell
  std::uint32_t row = 0;      ///< valid for Site::row
  std::size_t failing_bits = 1;  ///< distinct failing bits at this site

  /// Sorted by confidence descending, kind declaration order inside ties.
  std::vector<Hypothesis> hypotheses;

  [[nodiscard]] bool classified() const { return !hypotheses.empty(); }
  [[nodiscard]] double top_confidence() const;

  /// Every kind tied at the top confidence (the classifier's verdict set).
  [[nodiscard]] std::vector<faults::FaultKind> top_kinds() const;

  [[nodiscard]] std::string to_string() const;
};

struct MemoryClassification {
  std::size_t memory_index = 0;
  std::vector<SiteClassification> sites;

  [[nodiscard]] std::size_t classified_sites() const;
  [[nodiscard]] std::string to_string() const;
};

/// How FaultClassifier constructs its signature dictionaries.  The values
/// are pinned: "FDCC" cache files store the mode as one byte, and 1 (a
/// retired packed-probe mode) is rejected on decode.
enum class DictionaryBuildMode {
  /// One probe replay per candidate fault — the straightforward reference
  /// path, and the differential baseline for instance_sliced.
  per_candidate = 0,

  /// Packs independent candidates into shared probe lanes — one candidate
  /// per victim cell, couplings co-located with their aggressor, stuck-open
  /// candidates alone in their column (the sense-latch rule) — and groups
  /// the lanes of one build plan into faults::OverlaySlab slabs of up to
  /// 64, each batch replayed once through MarchRunner::run_group_per_cell:
  /// one masked word op per cell-column advances the whole group, and
  /// mismatching reads demux straight to (lane, candidate, victim)
  /// coordinates.  Collapses the O(kinds x rows x bits) replays of
  /// per_candidate into O((kinds + placements) / 64) batches and produces
  /// byte-identical dictionaries.
  instance_sliced = 2,
};

[[nodiscard]] std::string_view dictionary_build_mode_name(
    DictionaryBuildMode mode);

/// Observability counters for dictionary construction and classifier
/// sharing; see FaultClassifier::dictionary_stats() / ClassifierCache::
/// stats().  Wall time is real time (std::chrono::steady_clock), so these
/// are for reporting, not for deterministic results.
struct CacheStats {
  std::size_t hits = 0;    ///< ClassifierCache::get() served an existing entry
  std::size_t misses = 0;  ///< ClassifierCache::get() built a new classifier
  std::size_t evictions = 0;  ///< entries displaced by the size bound
  std::size_t dictionary_keys = 0;  ///< signature-dictionary slots built
  std::size_t probe_replays = 0;    ///< March replays individually executed
  std::size_t slab_batches = 0;     ///< instance-sliced batch replays (each
                                    ///< covers up to 64 probe lanes)
  std::size_t slab_lanes = 0;       ///< probe lanes absorbed by those batches
                                    ///< (replays that did NOT run one-by-one)
  double build_seconds = 0.0;       ///< wall time inside dictionary builds

  CacheStats& merge(const CacheStats& other);
  [[nodiscard]] std::string to_string() const;
};

struct ClassifierOptions {
  /// Partial (non-exact) hypotheses below this Jaccard score are dropped.
  double min_confidence = 0.5;

  /// Clock the probe simulations run at — must match the clock of the run
  /// that produced the syndromes, or retention-scale DRF signatures drift
  /// off the observed timebase.
  sram::ClockDomain clock{};

  /// Address span of the probe memories (clamped to the real word count).
  /// Only used when the memory is swept without wrap-around; wrapped
  /// memories are probed at their exact geometry.  Note the shrunken probe
  /// also shrinks sweep elapsed time: retention thresholds within the same
  /// order of magnitude as one sweep (instead of the pause-dominated
  /// regime the NWRC elements create) can decay in the real run but not in
  /// the probe.  Also bounds the instance_sliced packing plan: packed
  /// candidates live inside the same probe_words x bits geometry, so
  /// dictionaries are identical across build modes by construction.
  std::uint32_t probe_words = 4;

  /// The shared controller's sweep span (the SoC's n_max, Sec. 3.1).
  /// 0 means the memory's own word count (no wrap-around).
  std::uint32_t global_words = 0;

  /// Dictionary construction strategy; both modes yield byte-identical
  /// dictionaries (a differential test pins that down), instance_sliced is
  /// just much faster to warm: it packs candidates per probe lane and
  /// replays 64 packed lanes per word op.
  DictionaryBuildMode build_mode = DictionaryBuildMode::instance_sliced;
};

/// Classifies the syndromes of memories built from one SramConfig against
/// one March test (the test the diagnosis scheme actually ran, dimensioned
/// by the SoC's widest memory).  Instances cache their signature dictionary
/// lazily per victim bit, so keep one classifier per distinct config+test
/// (or share one through ClassifierCache).  classify() may be called
/// concurrently: the lazy dictionary fills are internally synchronised.
class FaultClassifier {
 public:
  /// Throws std::invalid_argument when @p config is unusable, @p test is
  /// narrower than the memory, options.probe_words < 3, or
  /// options.min_confidence is NaN or outside [0, 1].
  FaultClassifier(sram::SramConfig config, march::MarchTest test,
                  ClassifierOptions options = {});

  /// Classifies every site of @p syndrome (memory_index is carried over).
  [[nodiscard]] MemoryClassification classify(
      const MemorySyndrome& syndrome) const;

  /// The signature a single @p fault would leave on a probe memory of
  /// @p probe_words addresses swept over @p sweep controller steps: the
  /// failed read set of each failing cell, keyed by cell.  Exposed for
  /// tests and tooling; fault coordinates refer to the probe geometry.
  [[nodiscard]] std::map<sram::CellCoord, std::vector<ReadKey>>
  probe_signature(const faults::FaultInstance& fault,
                  std::uint32_t probe_words, std::uint32_t sweep) const;

  [[nodiscard]] const sram::SramConfig& config() const { return config_; }
  [[nodiscard]] const march::MarchTest& test() const { return test_; }
  [[nodiscard]] const ClassifierOptions& options() const { return options_; }

  /// Dictionary-build counters of this classifier (hits/misses stay 0 —
  /// those belong to ClassifierCache).  Thread-safe.
  [[nodiscard]] CacheStats dictionary_stats() const;

  /// Victim position category: without wrap-around, march signatures only
  /// depend on whether the victim sits at a sweep edge or in the middle of
  /// the address space.  Wrapped memories are probed at their exact row
  /// (visit counts differ per address), so the category is the row itself.
  enum class Position : std::uint8_t { first, middle, last };

  struct CellSignature {
    faults::FaultKind kind;
    AggressorPlacement placement = AggressorPlacement::none;
    std::uint32_t aggressor_bit = 0;  ///< meaningful for couplings
    std::vector<ReadKey> reads;       ///< sorted; empty = fault invisible

    friend bool operator==(const CellSignature&, const CellSignature&) =
        default;
  };

  struct RowSignature {
    faults::FaultKind kind;
    Position position;  ///< position of the failing probe row
    /// (read, bit) pairs of the failing row, sorted.
    std::vector<std::pair<ReadKey, std::uint32_t>> reads;

    friend bool operator==(const RowSignature&, const RowSignature&) =
        default;
  };

  /// Cache key of one cell dictionary: victim bit + row category (exact
  /// row when wrapped, else the Position sentinel above 2^31).
  using CellKey = std::pair<std::uint32_t, std::uint32_t>;

  /// Portable image of every signature dictionary built so far, in key
  /// order — what cache shipping persists.  import_dictionaries() on a
  /// freshly constructed same-input classifier restores the exact slots,
  /// so classification proceeds with zero probe replays.
  struct DictionarySnapshot {
    std::vector<std::pair<CellKey, std::vector<CellSignature>>> cells;
    std::vector<std::pair<std::uint32_t, std::vector<RowSignature>>> rows;

    friend bool operator==(const DictionarySnapshot&,
                           const DictionarySnapshot&) = default;
  };

  /// Copies the dictionaries built so far.  Thread-safe.
  [[nodiscard]] DictionarySnapshot export_dictionaries() const;

  /// Installs @p snapshot's dictionaries, replacing same-key slots.  Build
  /// counters stay untouched: imported dictionaries cost no probe replays,
  /// which is the point of shipping them.  Thread-safe.
  void import_dictionaries(DictionarySnapshot snapshot);

 private:
  /// One candidate of a cell dictionary: the fault to probe plus the
  /// placement metadata its CellSignature carries.
  struct CandidateSpec {
    faults::FaultInstance fault;
    AggressorPlacement placement = AggressorPlacement::none;
    std::uint32_t aggressor_bit = 0;
  };

  /// Probe geometry shared by every dictionary build of this classifier.
  struct ProbeGeometry {
    std::uint32_t words = 0;      ///< probe word count
    std::uint32_t sweep = 0;      ///< controller sweep steps per element
    bool wrap = false;            ///< sweep > words (visit counts differ)
    std::uint32_t remainder = 0;  ///< wrap ? sweep % words : 0
  };

  [[nodiscard]] bool wrapped() const;
  [[nodiscard]] ProbeGeometry probe_geometry() const;
  [[nodiscard]] Position position_of(std::uint32_t row,
                                     std::uint32_t words) const;
  /// The probe row a victim of @p position is placed at (no-wrap builds).
  [[nodiscard]] static std::uint32_t probe_victim_row(Position position,
                                                      std::uint32_t words);
  /// The canonical candidate list of one cell-dictionary key, in the exact
  /// per_candidate order (kCellKinds, then kCouplingKinds x placements x
  /// aggressor bits) — both build modes enumerate through here, so
  /// dictionary slot order is identical by construction.
  [[nodiscard]] std::vector<CandidateSpec> cell_candidates(
      std::uint32_t victim_row, std::uint32_t bit,
      const ProbeGeometry& geometry) const;

  [[nodiscard]] const std::vector<CellSignature>& cell_dictionary(
      sram::CellCoord cell) const;
  /// per_candidate build of @p key: one probe replay per candidate.
  [[nodiscard]] const std::vector<CellSignature>& build_cell_per_candidate(
      const CellKey& key, std::uint32_t victim_row,
      const ProbeGeometry& geometry) const;
  /// instance_sliced build: packs the candidates of every key sharing
  /// @p key's probe geometry (all bits x positions without wrap; all bits
  /// of the requested row under wrap) into probe lanes and replays them as
  /// faults::OverlaySlab slabs, 64 lanes per batch, through
  /// MarchRunner::run_group_per_cell.  Fills every missing key, returns
  /// @p key's slot.
  [[nodiscard]] const std::vector<CellSignature>& build_cell_sliced(
      const CellKey& key, std::uint32_t observed_row,
      const ProbeGeometry& geometry) const;
  [[nodiscard]] const std::vector<RowSignature>& row_dictionary(
      std::uint32_t row) const;

  [[nodiscard]] SiteClassification classify_cell(
      const CellSyndrome& syndrome) const;
  [[nodiscard]] std::optional<SiteClassification> classify_row(
      std::uint32_t row, const std::vector<const CellSyndrome*>& cells) const;

  sram::SramConfig config_;
  march::MarchTest test_;
  ClassifierOptions options_;

  /// Guards lookups/inserts on the caches below; dictionary builds run
  /// outside the lock so distinct keys warm in parallel.  std::map node
  /// stability keeps returned references valid across later insertions.
  mutable std::mutex cache_mutex_;

  /// Serializes instance_sliced batch builds: one batch fills many keys at
  /// once, so letting two threads race the same batch would duplicate the
  /// whole packed build instead of one key's worth of probes.
  mutable std::mutex build_mutex_;

  mutable std::map<CellKey, std::vector<CellSignature>> cell_cache_;
  mutable std::map<std::uint32_t, std::vector<RowSignature>> row_cache_;

  /// Build counters (dictionary_keys/probe_replays/build_seconds), guarded
  /// by cache_mutex_.
  mutable CacheStats stats_;
};

/// Shares FaultClassifier instances — and thus their expensive signature
/// dictionaries — across memories, runs, and worker threads.  Entries are
/// keyed by every input a signature depends on: the March test plus the
/// config's words, bits and retention_ns (same-geometry memories with
/// different retention thresholds decay differently under NWRC, so they
/// must not share a dictionary) and the sweep/probe options.  Thread-safe.
///
/// Residency is optionally bounded: a max_entries cap evicts the least-
/// recently-used classifier on overflow (a resident service sweeping many
/// geometries must not grow without bound).  get() hands out shared_ptrs,
/// so an evicted classifier stays alive for callers still holding it; the
/// evictee's build counters fold into the cache's retired tally, keeping
/// stats() monotonic across evictions.
class ClassifierCache {
 public:
  ClassifierCache() = default;

  /// @p max_entries bounds resident classifiers; 0 means unbounded.
  explicit ClassifierCache(std::size_t max_entries)
      : max_entries_(max_entries) {}

  /// Returns the classifier for (@p config, @p test, @p options), building
  /// it on first use.
  [[nodiscard]] std::shared_ptr<const FaultClassifier> get(
      const sram::SramConfig& config, const march::MarchTest& test,
      const ClassifierOptions& options);

  /// Installs a pre-built classifier — the cache-shipping import path; the
  /// key derives from the classifier's own config()/test()/options().
  /// Replaces an existing same-key entry (which counts as an eviction).
  void insert(std::shared_ptr<FaultClassifier> classifier);

  /// The resident classifiers in key order — what the export path walks.
  [[nodiscard]] std::vector<std::shared_ptr<const FaultClassifier>> entries()
      const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t max_entries() const { return max_entries_; }

  /// Aggregate counters: this cache's hit/miss/eviction tallies plus the
  /// dictionary build counters of every classifier it has ever held
  /// (evicted classifiers' counters are folded in at eviction).
  /// Thread-safe.
  [[nodiscard]] CacheStats stats() const;

 private:
  using Key = std::tuple<std::string, std::uint32_t, std::uint32_t,
                         std::uint64_t, std::uint64_t, std::uint32_t,
                         std::uint32_t, double, int>;

  struct Slot {
    std::shared_ptr<FaultClassifier> classifier;
    std::uint64_t last_used = 0;
  };

  [[nodiscard]] static Key make_key(const sram::SramConfig& config,
                                    const march::MarchTest& test,
                                    const ClassifierOptions& options);

  /// Evicts LRU entries until the bound holds; requires mutex_ held.
  void enforce_bound_locked();

  mutable std::mutex mutex_;
  std::map<Key, Slot> cache_;
  std::size_t max_entries_ = 0;
  std::uint64_t tick_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t evictions_ = 0;
  CacheStats retired_;  ///< build counters of evicted classifiers
};

/// One SoC's worth of classification: per-memory verdicts plus their score
/// against the injected ground truth, merged over all memories.
struct SocClassification {
  std::vector<MemoryClassification> memories;
  faults::ConfusionMatrix confusion;
};

/// Classifies @p syndromes (one entry per memory of @p soc) against
/// @p test and scores every memory against the SoC's ground truth.
/// options.global_words is overridden with the SoC's controller sweep span.
/// Classifiers come from @p cache when given (reusing dictionaries across
/// calls), else from a cache local to this call (shared across same-shape
/// memories only).
[[nodiscard]] SocClassification classify_soc(
    const bisd::SocUnderTest& soc,
    const std::vector<MemorySyndrome>& syndromes,
    const march::MarchTest& test, ClassifierOptions options = {},
    ClassifierCache* cache = nullptr);

/// Scores @p classification against the injected ground @p truth of one
/// memory: every truth is matched to the site that explains it (the victim
/// cell, or a row site covering an involved row) and its top prediction is
/// tallied.  A truth counts as among-top only when its kind ties for the
/// top confidence *and*, for couplings, the aggressor hint admits the true
/// aggressor.  Classified sites no truth explains count as spurious.
[[nodiscard]] faults::ConfusionMatrix score_classification(
    const std::vector<faults::FaultInstance>& truth,
    const MemoryClassification& classification,
    const sram::SramConfig& config);

}  // namespace fastdiag::diagnosis
