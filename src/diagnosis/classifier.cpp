#include "diagnosis/classifier.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <utility>

#include "bisd/soc.h"
#include "faults/fault_kind.h"
#include "faults/fault_set.h"
#include "march/runner.h"
#include "sram/sram.h"
#include "util/require.h"
#include "util/table.h"

namespace fastdiag::diagnosis {
namespace {

using faults::FaultInstance;
using faults::FaultKind;
using sram::CellCoord;

/// Cell-local fault kinds the dictionary probes directly.
constexpr FaultKind kCellKinds[] = {
    FaultKind::sa0,  FaultKind::sa1,  FaultKind::tf_up, FaultKind::tf_down,
    FaultKind::sof,  FaultKind::drf0, FaultKind::drf1,
};

/// Coupling kinds (each probed per aggressor placement and bit).
constexpr FaultKind kCouplingKinds[] = {
    FaultKind::cf_in_up,    FaultKind::cf_in_down,  FaultKind::cf_id_up0,
    FaultKind::cf_id_up1,   FaultKind::cf_id_down0, FaultKind::cf_id_down1,
    FaultKind::cf_st_00,    FaultKind::cf_st_01,    FaultKind::cf_st_10,
    FaultKind::cf_st_11,
};

template <typename Kind, std::size_t N>
std::uint32_t kind_index(const Kind (&kinds)[N], Kind kind) {
  for (std::size_t i = 0; i < N; ++i) {
    if (kinds[i] == kind) {
      return static_cast<std::uint32_t>(i);
    }
  }
  ensure(false, "FaultClassifier: kind outside its dictionary table");
  return 0;
}

/// Jaccard similarity of two sorted sets (ReadKeys or (ReadKey, bit) pairs).
template <typename T>
double jaccard(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.empty() && b.empty()) {
    return 1.0;
  }
  std::size_t common = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++common;
      ++ia;
      ++ib;
    }
  }
  const std::size_t all = a.size() + b.size() - common;
  return all == 0 ? 1.0
                  : static_cast<double>(common) / static_cast<double>(all);
}

/// A syndrome's failed-read set as a mask over the classifier's universe.
/// Reads outside the universe, and repeats, count in `extra`: they can never
/// match a signature read, but they stay part of the set's size.
struct ObservedReads {
  std::vector<std::uint64_t> mask;
  std::size_t count = 0;  ///< distinct in-universe reads
  std::size_t extra = 0;
};

ObservedReads observe(const ReadUniverse& universe,
                      const std::vector<ReadKey>& reads) {
  ObservedReads out;
  out.mask.assign(universe.limbs(), 0);
  for (const auto& read : reads) {
    const std::uint32_t bit = universe.index(read);
    const std::uint64_t flag = std::uint64_t{1} << (bit % 64);
    if (bit == ReadUniverse::npos || (out.mask[bit / 64] & flag) != 0) {
      ++out.extra;
      continue;
    }
    out.mask[bit / 64] |= flag;
    ++out.count;
  }
  return out;
}

/// Jaccard similarity of a signature mask and the observed reads — the
/// same integer counts, and so the same double, as the sorted-set form.
double mask_jaccard(std::span<const std::uint64_t> signature,
                    const ObservedReads& observed) {
  std::size_t size = 0;
  std::size_t common = 0;
  for (std::size_t i = 0; i < signature.size(); ++i) {
    size += static_cast<std::size_t>(std::popcount(signature[i]));
    common += static_cast<std::size_t>(
        std::popcount(signature[i] & observed.mask[i]));
  }
  const std::size_t all = size + observed.count + observed.extra - common;
  return all == 0 ? 1.0
                  : static_cast<double>(common) / static_cast<double>(all);
}

bool mask_empty(std::span<const std::uint64_t> mask) {
  return std::all_of(mask.begin(), mask.end(),
                     [](std::uint64_t limb) { return limb == 0; });
}

/// Stable hypothesis order: confidence descending, then kind declaration
/// order, then placement, so verdicts are deterministic.
void sort_hypotheses(std::vector<Hypothesis>& hypotheses) {
  std::stable_sort(hypotheses.begin(), hypotheses.end(),
                   [](const Hypothesis& a, const Hypothesis& b) {
                     if (a.confidence != b.confidence) {
                       return a.confidence > b.confidence;
                     }
                     if (a.kind != b.kind) {
                       return static_cast<int>(a.kind) <
                              static_cast<int>(b.kind);
                     }
                     return static_cast<int>(a.aggressor.placement) <
                            static_cast<int>(b.aggressor.placement);
                   });
}

/// Cache sentinel for position-category keys (cannot collide with rows).
std::uint32_t position_key(std::uint32_t position) {
  return 0x80000000u + position;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

ReadKey to_read_key(const march::ReadEvent& event) {
  return ReadKey{event.phase, event.element, event.visit, event.op};
}

std::size_t cell_dictionary_bytes(
    const FaultClassifier::CellDictionary& dictionary) {
  return dictionary.signatures.size() *
             sizeof(FaultClassifier::CellSignature) +
         dictionary.masks.size() * sizeof(std::uint64_t);
}

std::size_t row_dictionary_bytes(
    const std::vector<FaultClassifier::RowSignature>& dictionary) {
  std::size_t bytes = dictionary.size() * sizeof(FaultClassifier::RowSignature);
  for (const auto& signature : dictionary) {
    bytes += signature.reads.size() * sizeof(signature.reads.front());
  }
  return bytes;
}

/// Round-robin tournament schedule over @p c columns: assigns every ordered
/// column pair (victim b, aggressor a), a != b, a replay round such that
/// within one round each column plays at most one role.  Returned flat as
/// sched[b * c + a]; rounds are 2 * R + direction with R the circle-method
/// matching index, so even c needs 2 * (c - 1) rounds and odd c needs 2 * c.
std::vector<std::uint32_t> same_word_schedule(std::uint32_t c) {
  std::vector<std::uint32_t> sched(static_cast<std::size_t>(c) * c, 0);
  if (c < 2) {
    return sched;
  }
  const std::uint32_t n = (c % 2 == 0) ? c : c + 1;  // dummy column for byes
  for (std::uint32_t r = 0; r + 1 < n; ++r) {
    const auto emit = [&](std::uint32_t x, std::uint32_t y) {
      if (x >= c || y >= c) {
        return;  // pairing against the dummy: this column sits the round out
      }
      sched[static_cast<std::size_t>(x) * c + y] = 2 * r;
      sched[static_cast<std::size_t>(y) * c + x] = 2 * r + 1;
    };
    emit(n - 1, r);
    for (std::uint32_t i = 1; i < n / 2; ++i) {
      emit((r + i) % (n - 1), (r + n - 1 - i) % (n - 1));
    }
  }
  return sched;
}

}  // namespace

std::string_view aggressor_placement_name(AggressorPlacement p) {
  switch (p) {
    case AggressorPlacement::none: return "none";
    case AggressorPlacement::same_word: return "same-word";
    case AggressorPlacement::lower_address: return "lower-addr";
    case AggressorPlacement::higher_address: return "higher-addr";
  }
  return "?";
}

std::string_view dictionary_build_mode_name(DictionaryBuildMode mode) {
  switch (mode) {
    case DictionaryBuildMode::per_candidate: return "per_candidate";
    case DictionaryBuildMode::instance_sliced: return "instance_sliced";
  }
  return "?";
}

CacheStats& CacheStats::merge(const CacheStats& other) {
  hits += other.hits;
  misses += other.misses;
  evictions += other.evictions;
  dictionary_keys += other.dictionary_keys;
  probe_replays += other.probe_replays;
  slab_batches += other.slab_batches;
  slab_lanes += other.slab_lanes;
  build_seconds += other.build_seconds;
  dictionary_bytes += other.dictionary_bytes;
  return *this;
}

std::string CacheStats::to_string() const {
  return "classifiers: " + std::to_string(hits) + " hits, " +
         std::to_string(misses) + " misses, " + std::to_string(evictions) +
         " evictions; dictionaries: " + std::to_string(dictionary_keys) +
         " keys, " + std::to_string(probe_replays) + " probe replays, " +
         std::to_string(slab_batches) + " slab batches (" +
         std::to_string(slab_lanes) + " lanes), " +
         fmt_double(build_seconds * 1e3, 1) + " ms build, " +
         std::to_string(dictionary_bytes) + " signature bytes";
}

ReadUniverse::ReadUniverse(const march::MarchTest& test,
                           std::uint32_t max_visits)
    : max_visits_(max_visits) {
  std::uint64_t bits = 0;
  phases_.resize(test.phases().size());
  for (std::size_t p = 0; p < test.phases().size(); ++p) {
    for (const auto& element : test.phases()[p].elements) {
      Element slots;
      slots.base = static_cast<std::uint32_t>(bits);
      slots.read_of_op.assign(element.ops.size(), npos);
      if (element.order != march::AddrOrder::once) {
        for (std::size_t o = 0; o < element.ops.size(); ++o) {
          if (element.ops[o].kind == march::MarchOpKind::read) {
            slots.read_of_op[o] = slots.reads++;
          }
        }
      }
      bits += static_cast<std::uint64_t>(slots.reads) * max_visits;
      require(bits < npos, "ReadUniverse: read universe too large");
      phases_[p].push_back(std::move(slots));
    }
  }
  size_ = static_cast<std::uint32_t>(bits);
}

std::uint32_t ReadUniverse::index(const ReadKey& key) const {
  if (key.phase >= phases_.size() ||
      key.element >= phases_[key.phase].size() || key.visit >= max_visits_) {
    return npos;
  }
  const Element& element = phases_[key.phase][key.element];
  if (key.op >= element.read_of_op.size() ||
      element.read_of_op[key.op] == npos) {
    return npos;
  }
  return element.base +
         static_cast<std::uint32_t>(key.visit) * element.reads +
         element.read_of_op[key.op];
}

bool AggressorHint::admits(const faults::FaultInstance& fault) const {
  if (!faults::needs_aggressor(fault.kind)) {
    return placement == AggressorPlacement::none;
  }
  AggressorPlacement actual = AggressorPlacement::same_word;
  if (fault.aggressor.row < fault.victim.row) {
    actual = AggressorPlacement::lower_address;
  } else if (fault.aggressor.row > fault.victim.row) {
    actual = AggressorPlacement::higher_address;
  }
  if (actual != placement) {
    return false;
  }
  return std::find(candidate_bits.begin(), candidate_bits.end(),
                   fault.aggressor.bit) != candidate_bits.end();
}

std::string Hypothesis::to_string() const {
  std::string out(faults::fault_kind_name(kind));
  out += " conf=" + std::to_string(confidence);
  if (aggressor.placement != AggressorPlacement::none) {
    out += " aggr=";
    out += aggressor_placement_name(aggressor.placement);
    out += " bits={";
    for (std::size_t i = 0; i < aggressor.candidate_bits.size(); ++i) {
      out += (i != 0 ? "," : "") + std::to_string(aggressor.candidate_bits[i]);
    }
    out += "}";
  }
  return out;
}

double SiteClassification::top_confidence() const {
  return hypotheses.empty() ? 0.0 : hypotheses.front().confidence;
}

std::vector<faults::FaultKind> SiteClassification::top_kinds() const {
  std::vector<faults::FaultKind> kinds;
  const double top = top_confidence();
  for (const auto& hypothesis : hypotheses) {
    if (hypothesis.confidence < top) {
      break;
    }
    if (std::find(kinds.begin(), kinds.end(), hypothesis.kind) ==
        kinds.end()) {
      kinds.push_back(hypothesis.kind);
    }
  }
  return kinds;
}

std::string SiteClassification::to_string() const {
  std::string out = site == Site::row
                        ? "row " + std::to_string(row)
                        : "cell (" + std::to_string(cell.row) + "," +
                              std::to_string(cell.bit) + ")";
  if (hypotheses.empty()) {
    return out + ": unclassified";
  }
  out += ":";
  for (const auto& hypothesis : hypotheses) {
    out += ' ';
    out += hypothesis.to_string();
    out += ';';
  }
  return out;
}

std::size_t MemoryClassification::classified_sites() const {
  std::size_t count = 0;
  for (const auto& site : sites) {
    count += site.classified() ? 1 : 0;
  }
  return count;
}

std::string MemoryClassification::to_string() const {
  std::string out = "memory " + std::to_string(memory_index) + ":\n";
  for (const auto& site : sites) {
    out += "  " + site.to_string() + '\n';
  }
  return out;
}

FaultClassifier::FaultClassifier(sram::SramConfig config,
                                 march::MarchTest test,
                                 ClassifierOptions options)
    : config_(std::move(config)),
      test_(std::move(test)),
      options_(options) {
  config_.validate();
  require(test_.width() >= config_.bits,
          "FaultClassifier: test narrower than the memory");
  require(options_.probe_words >= 3,
          "FaultClassifier: probe_words must be >= 3");
  // ClassifierCache orders its keys on min_confidence: a NaN would break
  // the map's strict weak ordering.
  require(options_.min_confidence >= 0.0 && options_.min_confidence <= 1.0,
          "FaultClassifier: min_confidence must be in [0, 1]");

  // Without wrap, the probe shrinks to a few words and victims keep only
  // their sweep-edge category; with wrap, visit counts differ per address,
  // so the probe keeps the memory's geometry and victims their key row.
  auto& g = geometry_;
  g.wrap = options_.global_words > config_.words;
  g.words = g.wrap ? config_.words
                   : std::min(options_.probe_words, config_.words);
  g.sweep = g.wrap ? options_.global_words : g.words;
  g.remainder = g.wrap ? g.sweep % g.words : 0;
  // Row classes are exact only while no hold time inside one probe replay
  // can reach the retention threshold: a DRF's decay then depends on
  // which visits a row gets, not on when they happen.
  const std::uint64_t run_ns =
      test_.op_count(g.sweep) * options_.clock.period_ns +
      test_.total_pause_ns();
  g.class_keys = g.wrap &&
                 options_.build_mode == DictionaryBuildMode::instance_sliced &&
                 config_.retention_ns > run_ns;
  universe_ = ReadUniverse(test_, (g.sweep + g.words - 1) / g.words);
}

std::uint32_t FaultClassifier::key_row(std::uint32_t row) const {
  const std::uint32_t words = geometry_.words;
  const std::uint32_t rem = geometry_.remainder;
  if (!geometry_.class_keys || row < 2 || row + 2 >= words ||
      (row + 2 >= rem && row <= rem + 1)) {
    return row;
  }
  return row + 2 < rem ? 2 : std::max<std::uint32_t>(2, rem + 2);
}

void FaultClassifier::set_read(const ReadKey& read,
                               std::uint64_t* mask) const {
  const std::uint32_t bit = universe_.index(read);
  ensure(bit != ReadUniverse::npos,
         "FaultClassifier: probe read outside the read universe");
  mask[bit / 64] |= std::uint64_t{1} << (bit % 64);
}

std::map<CellCoord, std::vector<ReadKey>> FaultClassifier::probe_signature(
    const FaultInstance& fault, std::uint32_t probe_words,
    std::uint32_t sweep) const {
  auto probe_config = config_;
  probe_config.name = "probe";
  probe_config.words = probe_words;
  probe_config.spare_rows = 0;
  probe_config.spare_cols = 0;
  sram::Sram memory(probe_config,
                    std::make_unique<faults::FaultSet>(
                        std::vector<FaultInstance>{fault}));
  const auto by_cell =
      march::MarchRunner(options_.clock).run_per_cell(memory, test_, sweep);

  std::map<CellCoord, std::vector<ReadKey>> out;
  for (const auto& [cell, events] : by_cell) {
    auto& keys = out[cell];
    keys.reserve(events.size());
    for (const auto& event : events) {
      keys.push_back(to_read_key(event));
    }
  }
  return out;
}

CacheStats FaultClassifier::dictionary_stats() const {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  return stats_;
}

FaultClassifier::DictionarySnapshot FaultClassifier::export_dictionaries()
    const {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  DictionarySnapshot snapshot;
  snapshot.cells.reserve(cell_cache_.size());
  for (const auto& [key, dictionary] : cell_cache_) {
    snapshot.cells.emplace_back(key, dictionary);
  }
  snapshot.rows.reserve(row_cache_.size());
  for (const auto& [row, signatures] : row_cache_) {
    snapshot.rows.emplace_back(row, signatures);
  }
  return snapshot;
}

void FaultClassifier::import_dictionaries(DictionarySnapshot snapshot) {
  for (const auto& [key, dictionary] : snapshot.cells) {
    require(dictionary.limbs == universe_.limbs() &&
                dictionary.masks.size() ==
                    dictionary.signatures.size() * dictionary.limbs,
            "FaultClassifier: imported masks do not fit the read universe");
  }
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  for (auto& [key, dictionary] : snapshot.cells) {
    cell_cache_[key] = std::move(dictionary);
  }
  for (auto& [row, signatures] : snapshot.rows) {
    row_cache_[row] = std::move(signatures);
  }
  // stats_ deliberately untouched: imported slots were built elsewhere.
}

FaultClassifier::Position FaultClassifier::position_of(
    std::uint32_t row, std::uint32_t words) const {
  if (row == 0) {
    return Position::first;
  }
  if (row + 1 == words) {
    return Position::last;
  }
  return Position::middle;
}

std::uint32_t FaultClassifier::probe_victim_row(Position position,
                                                std::uint32_t words) {
  switch (position) {
    case Position::first: return 0;
    case Position::last: return words - 1;
    case Position::middle: break;
  }
  return words / 2;
}

std::vector<FaultClassifier::CandidateSpec> FaultClassifier::cell_candidates(
    std::uint32_t victim_row, std::uint32_t bit) const {
  const CellCoord victim{victim_row, bit};
  std::vector<CandidateSpec> specs;

  for (const auto kind : kCellKinds) {
    specs.push_back(
        {faults::make_cell_fault(kind, victim), AggressorPlacement::none, 0});
  }

  // Representative aggressor rows per placement.  Relative address order is
  // what march signatures key on; under wrap-around, whether a row falls
  // below the partial-wrap remainder (and so gets one extra visit per
  // element) matters too, so both sides of that boundary get a
  // representative.
  const std::uint32_t words = geometry_.words;
  const std::uint32_t remainder = geometry_.remainder;
  const auto representatives = [&](bool lower) {
    std::vector<std::uint32_t> rows;
    const auto push = [&](std::int64_t row) {
      if (row < 0 || row >= static_cast<std::int64_t>(words)) {
        return;
      }
      const auto value = static_cast<std::uint32_t>(row);
      const bool in_range = lower ? value < victim_row : value > victim_row;
      if (in_range &&
          std::find(rows.begin(), rows.end(), value) == rows.end()) {
        rows.push_back(value);
      }
    };
    push(static_cast<std::int64_t>(victim_row) + (lower ? -1 : 1));
    if (remainder != 0) {
      push(static_cast<std::int64_t>(remainder) - 1);
      push(remainder);
    }
    return rows;
  };

  struct PlacementRow {
    AggressorPlacement placement;
    std::uint32_t row;
  };
  std::vector<PlacementRow> placements;
  placements.push_back({AggressorPlacement::same_word, victim_row});
  for (const auto row : representatives(/*lower=*/true)) {
    placements.push_back({AggressorPlacement::lower_address, row});
  }
  for (const auto row : representatives(/*lower=*/false)) {
    placements.push_back({AggressorPlacement::higher_address, row});
  }
  for (const auto kind : kCouplingKinds) {
    for (const auto& placement : placements) {
      for (std::uint32_t a = 0; a < config_.bits; ++a) {
        if (placement.placement == AggressorPlacement::same_word &&
            a == bit) {
          continue;
        }
        specs.push_back({faults::make_coupling_fault(
                             kind, {placement.row, a}, victim),
                         placement.placement, a});
      }
    }
  }
  return specs;
}

const FaultClassifier::CellDictionary& FaultClassifier::cell_dictionary(
    CellCoord cell) const {
  const auto position = position_of(cell.row, config_.words);
  const std::uint32_t victim_row =
      geometry_.wrap ? key_row(cell.row)
                     : probe_victim_row(position, geometry_.words);
  const CellKey key{
      cell.bit, geometry_.wrap
                    ? victim_row
                    : position_key(static_cast<std::uint32_t>(position))};
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    const auto cached = cell_cache_.find(key);
    if (cached != cell_cache_.end()) {
      return cached->second;
    }
  }
  if (options_.build_mode == DictionaryBuildMode::instance_sliced) {
    return build_cell_sliced(key);
  }
  return build_cell_per_candidate(key, victim_row);
}

const FaultClassifier::CellDictionary&
FaultClassifier::build_cell_per_candidate(const CellKey& key,
                                          std::uint32_t victim_row) const {
  // Build outside the lock so concurrent classify() calls warm distinct
  // keys in parallel; a racing duplicate build is discarded by emplace.
  const auto start = std::chrono::steady_clock::now();
  const auto specs = cell_candidates(victim_row, key.first);
  CellDictionary dictionary;
  dictionary.limbs = universe_.limbs();
  dictionary.signatures.reserve(specs.size());
  dictionary.masks.assign(specs.size() * dictionary.limbs, 0);
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const auto& spec = specs[s];
    dictionary.signatures.push_back(
        {spec.fault.kind, spec.placement, spec.aggressor_bit});
    const auto by_cell =
        probe_signature(spec.fault, geometry_.words, geometry_.sweep);
    const auto it = by_cell.find(spec.fault.victim);
    if (it != by_cell.end()) {
      for (const auto& read : it->second) {
        set_read(read, dictionary.masks.data() + s * dictionary.limbs);
      }
    }
  }
  const double elapsed = seconds_since(start);

  const std::lock_guard<std::mutex> lock(cache_mutex_);
  stats_.dictionary_keys += 1;
  stats_.probe_replays += specs.size();
  stats_.build_seconds += elapsed;
  stats_.dictionary_bytes += cell_dictionary_bytes(dictionary);
  return cell_cache_.emplace(key, std::move(dictionary)).first->second;
}

const FaultClassifier::CellDictionary& FaultClassifier::build_cell_sliced(
    const CellKey& key) const {
  // One plan fills every key of the classifier, so serialize plan builds
  // instead of letting racing threads duplicate the whole pack.
  const std::lock_guard<std::mutex> build_lock(build_mutex_);
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    const auto cached = cell_cache_.find(key);
    if (cached != cell_cache_.end()) {
      return cached->second;
    }
  }
  const auto start = std::chrono::steady_clock::now();
  const std::uint32_t words = geometry_.words;

  // ---- batch domain: every key of this classifier's plan -----------------
  // Without wrap a key is (bit, sweep-edge category) and the plan covers
  // bits x positions.  Under class keys it covers bits x row classes, each
  // probed at its key row.  With exact-row keys (the retention threshold
  // falls inside one run) it covers all bits of the requested row.
  struct Target {
    CellKey key;
    std::uint32_t victim_row = 0;
  };
  std::vector<std::pair<std::uint32_t, std::uint32_t>> rows;  // (key, victim)
  if (!geometry_.wrap) {
    std::vector<Position> positions{Position::first};
    if (config_.words >= 3) {
      positions.push_back(Position::middle);
    }
    if (config_.words >= 2) {
      positions.push_back(Position::last);
    }
    for (const auto position : positions) {
      rows.emplace_back(position_key(static_cast<std::uint32_t>(position)),
                        probe_victim_row(position, words));
    }
  } else if (geometry_.class_keys) {
    // One row of every class: its first row is its key row.
    const std::int64_t rem = geometry_.remainder;
    const std::int64_t w = words;
    for (const std::int64_t row :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{2}, rem - 2, rem - 1,
          rem, rem + 1, rem + 2, w - 2, w - 1}) {
      if (row < 0 || row >= w) {
        continue;
      }
      const std::uint32_t k = key_row(static_cast<std::uint32_t>(row));
      if (std::find(rows.begin(), rows.end(), std::make_pair(k, k)) ==
          rows.end()) {
        rows.emplace_back(k, k);
      }
    }
    std::sort(rows.begin(), rows.end());
  } else {
    rows.emplace_back(key.second, key.second);
  }
  std::vector<Target> targets;
  for (const auto& [row_key, victim_row] : rows) {
    for (std::uint32_t bit = 0; bit < config_.bits; ++bit) {
      targets.push_back({{bit, row_key}, victim_row});
    }
  }
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    std::erase_if(targets, [&](const Target& target) {
      return cell_cache_.find(target.key) != cell_cache_.end();
    });
  }

  // Canonical candidate lists (shared with per_candidate, so slot order and
  // fault coordinates are identical by construction) + dictionary
  // skeletons the packed replays fill in.
  const std::uint32_t limbs = universe_.limbs();
  std::vector<std::vector<CandidateSpec>> specs(targets.size());
  std::vector<CellDictionary> dictionaries(targets.size());
  for (std::size_t t = 0; t < targets.size(); ++t) {
    specs[t] = cell_candidates(targets[t].victim_row, targets[t].key.first);
    auto& dictionary = dictionaries[t];
    dictionary.limbs = limbs;
    dictionary.signatures.reserve(specs[t].size());
    for (const auto& spec : specs[t]) {
      dictionary.signatures.push_back(
          {spec.fault.kind, spec.placement, spec.aggressor_bit});
    }
    dictionary.masks.assign(specs[t].size() * limbs, 0);
  }

  // ---- packing plan -------------------------------------------------------
  // Candidates at disjoint cells cannot interact (every fault model is
  // keyed on its own victim and aggressor cells), so a round — one packed
  // probe lane — may hold any candidate set with mutually disjoint
  // victim/aggressor cells, plus one extra rule: a stuck-open victim reads
  // through the per-column sense latch, whose history is the previous read
  // of its column, so an SOF candidate must be the only victim in its
  // column.  The plan below is deterministic and near-optimal:
  //   (0, kind)              one round per non-SOF cell kind: that kind at
  //                          every victim row x every column.
  //   (1, victim_row)        one round per victim row for SOF: one SOF per
  //                          column, nothing else (sense-latch rule).
  //   (2, kind, pair_round)  same-word couplings: a round-robin tournament
  //                          over columns pairs victim and aggressor bits
  //                          so each column plays one role per round; every
  //                          victim row rides the same round (rows differ).
  //   (3, kind, layer, s)    distinct-row couplings: victims span a full
  //                          row, aggressors the partner row shifted by s
  //                          (a Latin-square walk covers all bit pairs in
  //                          `bits` rounds); (victim row, aggressor row)
  //                          groups with disjoint rows merge into layers.
  using RoundId = std::tuple<int, std::uint32_t, std::uint32_t, std::uint32_t>;
  struct PackedRef {
    std::uint32_t target = 0;
    std::uint32_t slot = 0;
  };

  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> layer_of;
  std::vector<std::vector<std::uint32_t>> layer_rows;
  const auto layer_for = [&](std::uint32_t victim_row,
                             std::uint32_t aggressor_row) {
    const auto group = std::make_pair(victim_row, aggressor_row);
    const auto known = layer_of.find(group);
    if (known != layer_of.end()) {
      return known->second;
    }
    for (std::uint32_t layer = 0; layer < layer_rows.size(); ++layer) {
      auto& rows = layer_rows[layer];
      if (std::find(rows.begin(), rows.end(), victim_row) == rows.end() &&
          std::find(rows.begin(), rows.end(), aggressor_row) == rows.end()) {
        rows.push_back(victim_row);
        rows.push_back(aggressor_row);
        layer_of.emplace(group, layer);
        return layer;
      }
    }
    layer_rows.push_back({victim_row, aggressor_row});
    const auto layer = static_cast<std::uint32_t>(layer_rows.size() - 1);
    layer_of.emplace(group, layer);
    return layer;
  };

  const std::uint32_t bits = config_.bits;
  const auto pair_schedule = same_word_schedule(bits);
  std::map<RoundId, std::vector<PackedRef>> rounds;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    for (std::size_t s = 0; s < specs[t].size(); ++s) {
      const auto& fault = specs[t][s].fault;
      RoundId id;
      if (!faults::needs_aggressor(fault.kind)) {
        id = fault.kind == FaultKind::sof
                 ? RoundId{1, fault.victim.row, 0, 0}
                 : RoundId{0, kind_index(kCellKinds, fault.kind), 0, 0};
      } else if (fault.aggressor.row == fault.victim.row) {
        id = RoundId{2, kind_index(kCouplingKinds, fault.kind),
                     pair_schedule[static_cast<std::size_t>(fault.victim.bit) *
                                       bits +
                                   fault.aggressor.bit],
                     0};
      } else {
        id = RoundId{3, kind_index(kCouplingKinds, fault.kind),
                     layer_for(fault.victim.row, fault.aggressor.row),
                     (fault.aggressor.bit + bits - fault.victim.bit) % bits};
      }
      rounds[id].push_back({static_cast<std::uint32_t>(t),
                            static_cast<std::uint32_t>(s)});
    }
  }

  // ---- replay the plan ----------------------------------------------------
  // Every round becomes one lane of a faults::OverlaySlab.  A lane behaves
  // exactly like a FaultSet memory holding the round's candidates, and the
  // plan keeps those from interacting, so every dictionary equals the
  // per_candidate one.  Lanes replay one 64-lane chunk at a time and each
  // lane's failing reads fold straight into its candidates' masks, so no
  // transient replay result ever outlives one chunk.
  auto probe_config = config_;
  probe_config.name = "probe";
  probe_config.words = words;
  probe_config.spare_rows = 0;
  probe_config.spare_cols = 0;
  const march::MarchRunner runner(options_.clock);
  std::vector<const std::vector<PackedRef>*> plan;
  plan.reserve(rounds.size());
  for (const auto& [id, packed] : rounds) {
    plan.push_back(&packed);
  }
  // Victim cell -> its candidate's mask, set for one lane at a time (a
  // lane's victims sit at distinct cells).
  std::vector<std::uint64_t*> mask_of(static_cast<std::size_t>(words) * bits,
                                      nullptr);
  const auto cell_id = [&](const PackedRef& ref) {
    const auto& victim = specs[ref.target][ref.slot].fault.victim;
    return static_cast<std::size_t>(victim.row) * bits + victim.bit;
  };
  std::vector<std::vector<faults::FaultInstance>> lanes;
  for (std::size_t first = 0; first < plan.size(); first += 64) {
    lanes.resize(std::min<std::size_t>(64, plan.size() - first));
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      lanes[k].clear();
      for (const auto& ref : *plan[first + k]) {
        lanes[k].push_back(specs[ref.target][ref.slot].fault);
      }
    }
    runner.run_group_chunk(
        probe_config, lanes, test_, geometry_.sweep,
        [&](std::size_t k, std::span<const march::LaneRead> reads) {
          const auto& packed = *plan[first + k];
          for (const auto& ref : packed) {
            mask_of[cell_id(ref)] =
                dictionaries[ref.target].masks.data() + ref.slot * limbs;
          }
          for (const auto& read : reads) {
            if (auto* mask = mask_of[read.cell_id]) {
              set_read(to_read_key(read.event), mask);
            }
          }
          for (const auto& ref : packed) {
            mask_of[cell_id(ref)] = nullptr;
          }
        });
  }
  const double elapsed = seconds_since(start);

  const std::lock_guard<std::mutex> lock(cache_mutex_);
  for (std::size_t t = 0; t < targets.size(); ++t) {
    stats_.dictionary_bytes += cell_dictionary_bytes(dictionaries[t]);
    cell_cache_.emplace(targets[t].key, std::move(dictionaries[t]));
  }
  stats_.dictionary_keys += targets.size();
  stats_.slab_batches += (rounds.size() + 63) / 64;
  stats_.slab_lanes += rounds.size();
  stats_.build_seconds += elapsed;
  const auto built = cell_cache_.find(key);
  ensure(built != cell_cache_.end(),
         "FaultClassifier: sliced batch missed the requested key");
  return built->second;
}

const std::vector<FaultClassifier::RowSignature>&
FaultClassifier::row_dictionary(std::uint32_t row) const {
  const bool wrap = geometry_.wrap;
  const std::uint32_t words = geometry_.words;
  const std::uint32_t sweep = geometry_.sweep;
  // Without wrap the build below probes every anchor/pair, so its content
  // does not depend on the observed row (classify_row filters by position
  // per entry) — one shared cache slot covers all rows.  Under wrap the
  // build probes the observed row's key row.
  const std::uint32_t key = wrap ? key_row(row) : position_key(0);
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    const auto cached = row_cache_.find(key);
    if (cached != row_cache_.end()) {
      return cached->second;
    }
  }

  const auto start = std::chrono::steady_clock::now();
  std::size_t probes = 0;
  std::vector<RowSignature> dictionary;
  const auto add = [&](const FaultInstance& fault) {
    ++probes;
    auto by_cell = probe_signature(fault, words, sweep);
    // Every probe row that failed yields one signature: the observed site
    // can be either involved row of a wrong-row / extra-row fault.
    std::map<std::uint32_t, std::vector<std::pair<ReadKey, std::uint32_t>>>
        by_row;
    for (const auto& [cell, reads] : by_cell) {
      for (const auto& read : reads) {
        by_row[cell.row].push_back({read, cell.bit});
      }
    }
    for (auto& [probe_row, reads] : by_row) {
      std::sort(reads.begin(), reads.end());
      dictionary.push_back({fault.kind, position_of(probe_row, words),
                            std::move(reads)});
    }
  };

  // The address pairs to probe.  Without wrap the probe spans few words, so
  // every ordered (A, B) pair is cheap and covers each edge-role combination;
  // under wrap the observed row R plays either role against representative
  // partners on both sides of the partial-wrap boundary.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  std::vector<std::uint32_t> anchors;
  if (!wrap) {
    for (std::uint32_t a = 0; a < words; ++a) {
      anchors.push_back(a);
      add(faults::make_address_fault(FaultKind::af_no_access, a));
    }
    for (const auto a : anchors) {
      for (std::uint32_t b = 0; b < words; ++b) {
        if (a != b) {
          pairs.push_back({a, b});
        }
      }
    }
  } else {
    const std::uint32_t remainder = geometry_.remainder;
    add(faults::make_address_fault(FaultKind::af_no_access, key));
    std::vector<std::uint32_t> partners;
    const auto push = [&](std::int64_t partner) {
      if (partner < 0 || partner >= static_cast<std::int64_t>(words) ||
          partner == static_cast<std::int64_t>(key)) {
        return;
      }
      const auto value = static_cast<std::uint32_t>(partner);
      if (std::find(partners.begin(), partners.end(), value) ==
          partners.end()) {
        partners.push_back(value);
      }
    };
    push(static_cast<std::int64_t>(key) - 1);
    push(static_cast<std::int64_t>(key) + 1);
    push(0);
    push(static_cast<std::int64_t>(words) - 1);
    if (remainder != 0) {
      push(static_cast<std::int64_t>(remainder) - 1);
      push(remainder);
    }
    for (const auto partner : partners) {
      pairs.push_back({key, partner});
      pairs.push_back({partner, key});
    }
  }
  for (const auto& [a, b] : pairs) {
    add(faults::make_address_fault(FaultKind::af_wrong_row, a, b));
    add(faults::make_address_fault(FaultKind::af_extra_row, a, b));
  }
  const double elapsed = seconds_since(start);

  const std::lock_guard<std::mutex> lock(cache_mutex_);
  stats_.dictionary_keys += 1;
  stats_.probe_replays += probes;
  stats_.build_seconds += elapsed;
  stats_.dictionary_bytes += row_dictionary_bytes(dictionary);
  return row_cache_.emplace(key, std::move(dictionary)).first->second;
}

SiteClassification FaultClassifier::classify_cell(
    const CellSyndrome& syndrome) const {
  SiteClassification out;
  out.site = SiteClassification::Site::cell;
  out.cell = syndrome.cell;
  out.failing_bits = 1;

  const auto& dictionary = cell_dictionary(syndrome.cell);
  const auto observed = observe(universe_, syndrome.failed_reads);

  // Exact matches first; coupling kinds aggregate their consistent
  // aggressor bits into one hypothesis per (kind, placement).
  for (std::size_t slot = 0; slot < dictionary.signatures.size(); ++slot) {
    const auto& signature = dictionary.signatures[slot];
    const auto mask = dictionary.mask(slot);
    if (observed.extra != 0 || mask_empty(mask) ||
        !std::equal(mask.begin(), mask.end(), observed.mask.begin())) {
      continue;
    }
    const bool coupling = faults::needs_aggressor(signature.kind);
    auto existing = std::find_if(
        out.hypotheses.begin(), out.hypotheses.end(),
        [&](const Hypothesis& h) {
          return h.kind == signature.kind &&
                 h.aggressor.placement == signature.placement;
        });
    if (existing != out.hypotheses.end()) {
      // Several representative aggressor rows can probe the same bit.
      auto& bits = existing->aggressor.candidate_bits;
      if (coupling && std::find(bits.begin(), bits.end(),
                                signature.aggressor_bit) == bits.end()) {
        bits.push_back(signature.aggressor_bit);
      }
      continue;
    }
    Hypothesis hypothesis;
    hypothesis.kind = signature.kind;
    hypothesis.confidence = 1.0;
    if (coupling) {
      hypothesis.aggressor.placement = signature.placement;
      hypothesis.aggressor.candidate_bits = {signature.aggressor_bit};
    }
    out.hypotheses.push_back(std::move(hypothesis));
  }

  if (out.hypotheses.empty()) {
    // No exact match (multi-fault overlap, or a kind outside the
    // dictionary): fall back to the best partial overlaps.
    std::map<std::pair<FaultKind, AggressorPlacement>,
             std::pair<double, std::vector<std::uint32_t>>>
        best;
    for (std::size_t i = 0; i < dictionary.signatures.size(); ++i) {
      const auto& signature = dictionary.signatures[i];
      const auto mask = dictionary.mask(i);
      if (mask_empty(mask)) {
        continue;
      }
      const double score = mask_jaccard(mask, observed);
      if (score < options_.min_confidence) {
        continue;
      }
      auto& slot = best[{signature.kind, signature.placement}];
      if (score > slot.first) {
        slot = {score, {signature.aggressor_bit}};
      } else if (score == slot.first &&
                 faults::needs_aggressor(signature.kind) &&
                 std::find(slot.second.begin(), slot.second.end(),
                           signature.aggressor_bit) == slot.second.end()) {
        // Several representative aggressor rows can probe the same bit.
        slot.second.push_back(signature.aggressor_bit);
      }
    }
    for (auto& [key, value] : best) {
      Hypothesis hypothesis;
      hypothesis.kind = key.first;
      hypothesis.confidence = value.first;
      if (faults::needs_aggressor(key.first)) {
        hypothesis.aggressor.placement = key.second;
        hypothesis.aggressor.candidate_bits = std::move(value.second);
      }
      out.hypotheses.push_back(std::move(hypothesis));
    }
  }

  sort_hypotheses(out.hypotheses);
  return out;
}

std::optional<SiteClassification> FaultClassifier::classify_row(
    std::uint32_t row, const std::vector<const CellSyndrome*>& cells) const {
  if (config_.bits < 2) {
    return std::nullopt;
  }
  std::vector<std::pair<ReadKey, std::uint32_t>> observed;
  for (const auto* syndrome : cells) {
    for (const auto& read : syndrome->failed_reads) {
      observed.push_back({read, syndrome->cell.bit});
    }
  }
  std::sort(observed.begin(), observed.end());

  SiteClassification out;
  out.site = SiteClassification::Site::row;
  out.row = row;
  out.failing_bits = cells.size();
  const auto position = position_of(row, config_.words);
  for (const auto& signature : row_dictionary(row)) {
    if (signature.position != position) {
      continue;
    }
    const double score = signature.reads == observed
                             ? 1.0
                             : jaccard(signature.reads, observed);
    if (score < options_.min_confidence) {
      continue;
    }
    auto existing = std::find_if(
        out.hypotheses.begin(), out.hypotheses.end(),
        [&](const Hypothesis& h) { return h.kind == signature.kind; });
    if (existing != out.hypotheses.end()) {
      existing->confidence = std::max(existing->confidence, score);
      continue;
    }
    Hypothesis hypothesis;
    hypothesis.kind = signature.kind;
    hypothesis.confidence = score;
    out.hypotheses.push_back(hypothesis);
  }
  if (out.hypotheses.empty()) {
    return std::nullopt;
  }
  sort_hypotheses(out.hypotheses);
  return out;
}

MemoryClassification FaultClassifier::classify(
    const MemorySyndrome& syndrome) const {
  MemoryClassification out;
  out.memory_index = syndrome.memory_index;

  // Row-granular pass: rows where every IO bit failed carry the
  // address-decoder signature and are classified as one site.
  std::map<std::uint32_t, std::vector<const CellSyndrome*>> by_row;
  for (const auto& cell : syndrome.cells) {
    by_row[cell.cell.row].push_back(&cell);
  }
  std::vector<const CellSyndrome*> leftover;
  for (const auto& [row, cells] : by_row) {
    if (cells.size() == config_.bits) {
      if (auto site = classify_row(row, cells)) {
        out.sites.push_back(std::move(*site));
        continue;
      }
    }
    leftover.insert(leftover.end(), cells.begin(), cells.end());
  }

  for (const auto* cell : leftover) {
    out.sites.push_back(classify_cell(*cell));
  }

  std::sort(out.sites.begin(), out.sites.end(),
            [](const SiteClassification& a, const SiteClassification& b) {
              const std::uint32_t row_a =
                  a.site == SiteClassification::Site::row ? a.row
                                                          : a.cell.row;
              const std::uint32_t row_b =
                  b.site == SiteClassification::Site::row ? b.row
                                                          : b.cell.row;
              if (row_a != row_b) {
                return row_a < row_b;
              }
              if (a.site != b.site) {
                return a.site == SiteClassification::Site::row;
              }
              return a.cell.bit < b.cell.bit;
            });
  return out;
}

ClassifierCache::Key ClassifierCache::make_key(
    const sram::SramConfig& config, const march::MarchTest& test,
    const ClassifierOptions& options) {
  return Key{test.to_string(),      config.words,
             config.bits,           config.retention_ns,
             options.clock.period_ns, options.global_words,
             options.probe_words,   options.min_confidence,
             static_cast<int>(options.build_mode)};
}

void ClassifierCache::enforce_bound_locked() {
  while (max_entries_ != 0 && cache_.size() > max_entries_) {
    auto victim = cache_.begin();
    for (auto it = std::next(cache_.begin()); it != cache_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    // Fold the evictee's build counters so stats() never goes backwards;
    // callers still holding the shared_ptr keep the classifier alive.
    retired_.merge(victim->second.classifier->dictionary_stats());
    ++evictions_;
    cache_.erase(victim);
  }
}

std::shared_ptr<const FaultClassifier> ClassifierCache::get(
    const sram::SramConfig& config, const march::MarchTest& test,
    const ClassifierOptions& options) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = cache_[make_key(config, test, options)];
  slot.last_used = ++tick_;
  if (!slot.classifier) {
    ++misses_;
    slot.classifier = std::make_shared<FaultClassifier>(config, test, options);
    const std::shared_ptr<const FaultClassifier> result = slot.classifier;
    enforce_bound_locked();  // never evicts the newest entry (just touched)
    return result;
  }
  ++hits_;
  return slot.classifier;
}

void ClassifierCache::insert(std::shared_ptr<FaultClassifier> classifier) {
  require(classifier != nullptr,
          "ClassifierCache::insert: classifier must not be null");
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = cache_[make_key(classifier->config(), classifier->test(),
                               classifier->options())];
  if (slot.classifier) {
    retired_.merge(slot.classifier->dictionary_stats());
    ++evictions_;
  }
  slot.classifier = std::move(classifier);
  slot.last_used = ++tick_;
  enforce_bound_locked();
}

std::vector<std::shared_ptr<const FaultClassifier>> ClassifierCache::entries()
    const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<const FaultClassifier>> out;
  out.reserve(cache_.size());
  for (const auto& [key, slot] : cache_) {
    out.push_back(slot.classifier);
  }
  return out;
}

std::size_t ClassifierCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

CacheStats ClassifierCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  CacheStats out;
  out.hits = hits_;
  out.misses = misses_;
  out.evictions = evictions_;
  out.merge(retired_);
  for (const auto& [key, slot] : cache_) {
    out.merge(slot.classifier->dictionary_stats());
  }
  return out;
}

SocClassification classify_soc(const bisd::SocUnderTest& soc,
                               const std::vector<MemorySyndrome>& syndromes,
                               const march::MarchTest& test,
                               ClassifierOptions options,
                               ClassifierCache* cache) {
  ClassifierCache local;
  if (cache == nullptr) {
    cache = &local;
  }
  options.global_words = soc.max_words();

  SocClassification out;
  out.memories.reserve(soc.memory_count());
  for (std::size_t i = 0; i < soc.memory_count(); ++i) {
    const auto& config = soc.config(i);
    const auto classifier = cache->get(config, test, options);
    out.memories.push_back(classifier->classify(syndromes[i]));
    out.confusion.merge(
        score_classification(soc.truth(i), out.memories.back(), config));
  }
  return out;
}

faults::ConfusionMatrix score_classification(
    const std::vector<faults::FaultInstance>& truth,
    const MemoryClassification& classification,
    const sram::SramConfig& config) {
  faults::ConfusionMatrix matrix;
  std::vector<bool> used(classification.sites.size(), false);

  const auto find_site = [&](const FaultInstance& fault) -> std::ptrdiff_t {
    // Row sites covering an involved row take precedence; then the victim
    // cell itself; then any cell of the fault's footprint.
    const bool address = faults::is_address_fault(fault.kind);
    for (std::size_t i = 0; i < classification.sites.size(); ++i) {
      const auto& site = classification.sites[i];
      if (site.site != SiteClassification::Site::row) {
        continue;
      }
      const bool has_other = fault.kind == FaultKind::af_wrong_row ||
                             fault.kind == FaultKind::af_extra_row;
      if (address
              ? (site.row == fault.addr ||
                 (has_other && site.row == fault.other_row))
              : site.row == fault.victim.row) {
        return static_cast<std::ptrdiff_t>(i);
      }
    }
    if (!address) {
      for (std::size_t i = 0; i < classification.sites.size(); ++i) {
        const auto& site = classification.sites[i];
        if (site.site == SiteClassification::Site::cell &&
            site.cell == fault.victim) {
          return static_cast<std::ptrdiff_t>(i);
        }
      }
    }
    const auto footprint = fault.footprint(config);
    for (std::size_t i = 0; i < classification.sites.size(); ++i) {
      const auto& site = classification.sites[i];
      if (site.site != SiteClassification::Site::cell) {
        continue;
      }
      if (std::find(footprint.begin(), footprint.end(), site.cell) !=
          footprint.end()) {
        return static_cast<std::ptrdiff_t>(i);
      }
    }
    return -1;
  };

  for (const auto& fault : truth) {
    const auto index = find_site(fault);
    if (index < 0) {
      matrix.add(fault.kind, std::nullopt, false);
      continue;
    }
    const auto& site = classification.sites[static_cast<std::size_t>(index)];
    used[static_cast<std::size_t>(index)] = true;
    if (!site.classified()) {
      matrix.add(fault.kind, std::nullopt, false);
      continue;
    }
    bool among_top = false;
    for (const auto& hypothesis : site.hypotheses) {
      if (hypothesis.confidence < site.top_confidence()) {
        break;
      }
      if (hypothesis.kind != fault.kind) {
        continue;
      }
      among_top = !faults::needs_aggressor(fault.kind) ||
                  hypothesis.aggressor.admits(fault);
      if (among_top) {
        break;
      }
    }
    // Hypotheses are confidence-sorted, so front() is the top prediction.
    matrix.add(fault.kind, site.hypotheses.front().kind, among_top);
  }

  for (std::size_t i = 0; i < classification.sites.size(); ++i) {
    const auto& site = classification.sites[i];
    if (!used[i] && site.classified()) {
      matrix.add_spurious(site.hypotheses.front().kind);
    }
  }
  return matrix;
}

}  // namespace fastdiag::diagnosis
