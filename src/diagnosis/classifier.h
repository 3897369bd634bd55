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
// a handful of words and the dictionary is cached per victim bit.  Under
// wrap-around (a memory shallower than the controller sweep, Sec. 3.1) the
// probe keeps the memory's geometry, and a victim row's signatures depend
// only on its row class (see FaultClassifier::key_row), so a wrapped
// dictionary holds at most 10 rows x bits keys at any depth.  Failed-read
// sets are stored as bitsets over the test's read-event universe.
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
#include <span>
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
  /// 64, each batch replayed once through MarchRunner::run_group_chunk:
  /// one masked word op per cell-column advances the whole group, and
  /// mismatching reads demux straight to (lane, candidate, victim)
  /// coordinates.  One plan covers every key of the classifier (positions
  /// or wrapped row classes x bits).  Collapses the O(kinds x rows x bits)
  /// replays of per_candidate into O((kinds + placements) / 64) batches and
  /// produces the same dictionary for every cell.
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
  /// Bytes of signature storage those builds produced: per cell signature
  /// its record plus its read-mask limbs, per row signature its record
  /// plus its (read, bit) pairs.  Deterministic for a given build.
  std::size_t dictionary_bytes = 0;

  CacheStats& merge(const CacheStats& other);
  [[nodiscard]] std::string to_string() const;
};

struct ClassifierOptions {
  /// Clock the probe simulations run at — must match the clock of the run
  /// that produced the syndromes, or retention-scale DRF signatures drift
  /// off the observed timebase.
  sram::ClockDomain clock{};

  /// The shared controller's sweep span (the SoC's n_max, Sec. 3.1).
  /// 0 means the memory's own word count (no wrap-around).
  std::uint32_t global_words = 0;

  /// Dictionary construction strategy; both modes yield byte-identical
  /// dictionaries for every cell (differential tests pin that down),
  /// instance_sliced is just much faster to warm: it packs candidates per
  /// probe lane, replays 64 packed lanes per word op, and keys wrapped rows
  /// by row class where per_candidate keys them by exact row.
  DictionaryBuildMode build_mode = DictionaryBuildMode::instance_sliced;
};

/// Bit index of every read a March test can fail: (phase, element, visit,
/// op) in ReadKey order, so ascending bit index is March order.  An element
/// of r reads owns r * max_visits consecutive bits; pause-only elements own
/// none.  Signatures and syndromes become masks over this universe, so an
/// exact match is a limb compare and a Jaccard score two popcounts.
class ReadUniverse {
 public:
  static constexpr std::uint32_t npos = 0xFFFFFFFFu;

  ReadUniverse() = default;
  /// @p max_visits: the most times the sweep visits one address (1 without
  /// wrap-around).
  ReadUniverse(const march::MarchTest& test, std::uint32_t max_visits);

  /// Universe width in bits.
  [[nodiscard]] std::uint32_t size() const { return size_; }
  /// 64-bit limbs of one mask.
  [[nodiscard]] std::uint32_t limbs() const { return (size_ + 63) / 64; }

  /// The bit of @p key, or npos when the key lies outside the universe.
  [[nodiscard]] std::uint32_t index(const ReadKey& key) const;

 private:
  struct Element {
    std::uint32_t base = 0;   ///< first bit of the element
    std::uint32_t reads = 0;  ///< read ops per visit
    std::vector<std::uint32_t> read_of_op;  ///< op -> read ordinal or npos
  };
  std::vector<std::vector<Element>> phases_;
  std::uint32_t max_visits_ = 0;
  std::uint32_t size_ = 0;
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
  /// narrower than the memory, or the read universe would exceed 2^32 - 2
  /// bits.
  FaultClassifier(sram::SramConfig config, march::MarchTest test,
                  ClassifierOptions options = {});

  /// Classifies every site of @p syndrome (memory_index is carried over).
  [[nodiscard]] MemoryClassification classify(
      const MemorySyndrome& syndrome) const;

  [[nodiscard]] const sram::SramConfig& config() const { return config_; }
  [[nodiscard]] const march::MarchTest& test() const { return test_; }
  [[nodiscard]] const ClassifierOptions& options() const { return options_; }

  /// Dictionary-build counters of this classifier (hits/misses stay 0 —
  /// those belong to ClassifierCache).  Thread-safe.
  [[nodiscard]] CacheStats dictionary_stats() const;

  /// The read-event universe this classifier's masks index.
  [[nodiscard]] const ReadUniverse& read_universe() const {
    return universe_;
  }

  /// Victim position category: without wrap-around, march signatures only
  /// depend on whether the victim sits at a sweep edge or in the middle of
  /// the address space.  Wrapped memories are probed at their own geometry
  /// (visit counts differ per address), so the category is the key row.
  enum class Position : std::uint8_t { first, middle, last };

  /// One candidate of a cell dictionary; its failed-read mask lives in the
  /// owning CellDictionary.
  struct CellSignature {
    faults::FaultKind kind;
    AggressorPlacement placement = AggressorPlacement::none;
    std::uint32_t aggressor_bit = 0;  ///< meaningful for couplings

    friend bool operator==(const CellSignature&, const CellSignature&) =
        default;
  };

  /// The signatures of one cell-dictionary key in slot order, each with the
  /// read set its victim fails as a mask over read_universe(): `limbs`
  /// words per slot, stored flat.  An all-zero mask = fault invisible.
  struct CellDictionary {
    std::uint32_t limbs = 0;
    std::vector<CellSignature> signatures;
    std::vector<std::uint64_t> masks;

    [[nodiscard]] std::span<const std::uint64_t> mask(std::size_t slot) const {
      return {masks.data() + slot * limbs, limbs};
    }

    friend bool operator==(const CellDictionary&, const CellDictionary&) =
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

  /// Cache key of one cell dictionary: victim bit + row category (key_row
  /// when wrapped, else the Position sentinel above 2^31).
  using CellKey = std::pair<std::uint32_t, std::uint32_t>;

  /// The dictionary row a wrapped victim row keys on.  instance_sliced
  /// keys by row class when no hold time inside one probe replay can reach
  /// the retention threshold (retention_ns > op_count(sweep) * period_ns +
  /// total_pause_ns): with rem = sweep % words the classes are {0}, {1},
  /// [2, rem-3], rem-2, rem-1, rem, rem+1, [max(2, rem+2), words-3],
  /// words-2 and words-1, and a run keys on its first row.  Otherwise —
  /// and always under per_candidate, the reference — the key is the exact
  /// row.  Only meaningful for wrapped classifiers.
  [[nodiscard]] std::uint32_t key_row(std::uint32_t row) const;

  /// The cell dictionary classify() matches @p cell's syndrome against,
  /// built on first use.  Exposed for differential tests and tooling.
  /// Thread-safe; the reference stays valid until import_dictionaries()
  /// replaces its slot.
  [[nodiscard]] const CellDictionary& cell_dictionary(
      sram::CellCoord cell) const;

  /// The row dictionary classify() matches row @p row against (every
  /// probed signature; classify filters by position), built on first use.
  [[nodiscard]] const std::vector<RowSignature>& row_dictionary(
      std::uint32_t row) const;

  /// Portable image of every signature dictionary built so far, in key
  /// order — what cache shipping persists.  import_dictionaries() on a
  /// freshly constructed same-input classifier restores the exact slots,
  /// so classification proceeds with zero probe replays.
  struct DictionarySnapshot {
    std::vector<std::pair<CellKey, CellDictionary>> cells;
    std::vector<std::pair<std::uint32_t, std::vector<RowSignature>>> rows;

    friend bool operator==(const DictionarySnapshot&,
                           const DictionarySnapshot&) = default;
  };

  /// Copies the dictionaries built so far.  Thread-safe.
  [[nodiscard]] DictionarySnapshot export_dictionaries() const;

  /// Installs @p snapshot's dictionaries, replacing same-key slots.  Build
  /// counters stay untouched: imported dictionaries cost no probe replays,
  /// which is the point of shipping them.  Throws std::invalid_argument,
  /// importing nothing, when a cell dictionary's masks do not fit
  /// read_universe().  Thread-safe.
  void import_dictionaries(DictionarySnapshot snapshot);

 private:
  /// One candidate of a cell dictionary: the fault to probe plus the
  /// placement metadata its CellSignature carries.
  struct CandidateSpec {
    faults::FaultInstance fault;
    AggressorPlacement placement = AggressorPlacement::none;
    std::uint32_t aggressor_bit = 0;
  };

  /// Probe geometry shared by every dictionary build of this classifier,
  /// fixed at construction.
  struct ProbeGeometry {
    std::uint32_t words = 0;      ///< probe word count
    std::uint32_t sweep = 0;      ///< controller sweep steps per element
    bool wrap = false;            ///< sweep > words (visit counts differ)
    std::uint32_t remainder = 0;  ///< wrap ? sweep % words : 0
    bool class_keys = false;      ///< wrapped rows key by row class
  };

  [[nodiscard]] Position position_of(std::uint32_t row,
                                     std::uint32_t words) const;
  /// The signature a single @p fault leaves on the probe memory (the probe
  /// geometry's words, swept over its sweep steps): the failed read set of
  /// each failing cell, keyed by cell.  Fault coordinates refer to the
  /// probe geometry.
  [[nodiscard]] std::map<sram::CellCoord, std::vector<ReadKey>>
  probe_signature(const faults::FaultInstance& fault) const;
  /// The probe row a victim of @p position is placed at (no-wrap builds).
  [[nodiscard]] static std::uint32_t probe_victim_row(Position position,
                                                      std::uint32_t words);
  /// The canonical candidate list of one cell-dictionary key, in the exact
  /// per_candidate order (kCellKinds, then kCouplingKinds x placements x
  /// aggressor bits) — both build modes enumerate through here, so
  /// dictionary slot order is identical by construction.
  [[nodiscard]] std::vector<CandidateSpec> cell_candidates(
      std::uint32_t victim_row, std::uint32_t bit) const;

  /// Sets @p read's bit in @p mask (limbs of the universe).
  void set_read(const ReadKey& read, std::uint64_t* mask) const;

  /// per_candidate build of @p key: one probe replay per candidate.
  [[nodiscard]] const CellDictionary& build_cell_per_candidate(
      const CellKey& key, std::uint32_t victim_row) const;
  /// instance_sliced build: packs the candidates of every key of the
  /// plan @p key belongs to (all bits x positions without wrap, all bits
  /// x row classes under class keys, else all bits of @p key's row) into
  /// probe lanes and replays them as faults::OverlaySlab slabs, one
  /// 64-lane chunk at a time, through MarchRunner::run_group_chunk.
  /// Fills every missing key, returns @p key's slot.
  [[nodiscard]] const CellDictionary& build_cell_sliced(
      const CellKey& key) const;

  [[nodiscard]] SiteClassification classify_cell(
      const CellSyndrome& syndrome) const;
  [[nodiscard]] std::optional<SiteClassification> classify_row(
      std::uint32_t row, const std::vector<const CellSyndrome*>& cells) const;

  sram::SramConfig config_;
  march::MarchTest test_;
  ClassifierOptions options_;
  ProbeGeometry geometry_;
  ReadUniverse universe_;

  /// Guards lookups/inserts on the caches below; dictionary builds run
  /// outside the lock so distinct keys warm in parallel.  std::map node
  /// stability keeps returned references valid across later insertions.
  mutable std::mutex cache_mutex_;

  /// Serializes instance_sliced batch builds: one batch fills many keys at
  /// once, so letting two threads race the same batch would duplicate the
  /// whole packed build instead of one key's worth of probes.
  mutable std::mutex build_mutex_;

  mutable std::map<CellKey, CellDictionary> cell_cache_;
  mutable std::map<std::uint32_t, std::vector<RowSignature>> row_cache_;

  /// Build counters (dictionary_keys/probe_replays/build_seconds/
  /// dictionary_bytes), guarded by cache_mutex_.
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
                         std::uint64_t, std::uint64_t, std::uint32_t, int>;

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
