#include "service/serialize.h"

#include <bit>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "faults/fault_kind.h"
#include "march/element.h"
#include "march/op.h"
#include "util/bitvec.h"

namespace fastdiag::service {

namespace {

using core::make_unexpected;

/// Highest FaultKind value; decode rejects anything above it.
constexpr std::uint8_t kMaxFaultKind =
    static_cast<std::uint8_t>(faults::FaultKind::drf1);

/// Reads an enum byte, rejecting values outside [0, max].
template <typename Enum>
bool read_enum(ByteReader& reader, Enum& out, std::uint8_t max) {
  const std::uint8_t value = reader.u8();
  if (!reader.ok() || value > max) {
    reader.fail();
    return false;
  }
  out = static_cast<Enum>(value);
  return true;
}

void encode_bitvec(ByteWriter& writer, const BitVector& vector) {
  writer.u64(vector.width());
  const std::size_t words = vector.word_count();
  for (std::size_t i = 0; i < words; ++i) {
    writer.u64(vector.word_data()[i]);
  }
}

/// Decodes one BitVector into @p vector, staging its limbs in @p limbs;
/// both keep their storage, so a caller decoding many vectors through the
/// same pair allocates only when the width grows.
bool decode_bitvec(ByteReader& reader, BitVector& vector,
                   std::vector<std::uint64_t>& limbs) {
  const std::uint64_t width = reader.u64();
  // Bound width before any word-count arithmetic: a width in
  // [2^64-63, 2^64-1] wraps (width + 63) to a zero word count, which
  // would bypass the payload and canonical-mask checks below and build
  // a BitVector whose width outruns its limbs.
  if (!reader.ok() || width / 8 > reader.remaining()) {
    reader.fail();
    return false;
  }
  const std::size_t words =
      static_cast<std::size_t>(width / 64 + (width % 64 != 0 ? 1 : 0));
  if (words > reader.remaining() / 8) {
    reader.fail();
    return false;
  }
  limbs.resize(words);
  for (auto& limb : limbs) {
    limb = reader.u64();
  }
  if (!reader.ok()) {
    return false;
  }
  // Canonical encodings keep bits above width zero; reject others so a
  // decoded vector always re-encodes to the same bytes.
  if (width % 64 != 0 && words != 0 &&
      (limbs.back() >> (width % 64)) != 0) {
    reader.fail();
    return false;
  }
  vector.assign_words(limbs.data(), static_cast<std::size_t>(width));
  return true;
}

void encode_metric_fold(ByteWriter& writer, const core::MetricFold& fold) {
  writer.f64(fold.min);
  writer.f64(fold.max);
  writer.u64(fold.sum);
  writer.u64(fold.count);
}

bool decode_metric_fold(ByteReader& reader, core::MetricFold& fold) {
  fold.min = reader.f64();
  fold.max = reader.f64();
  fold.sum = reader.u64();
  fold.count = reader.u64();
  return reader.ok();
}

void encode_kind_counts(
    ByteWriter& writer,
    const std::vector<std::pair<faults::FaultKind, std::uint64_t>>& counts) {
  writer.u64(counts.size());
  for (const auto& [kind, count] : counts) {
    writer.u8(static_cast<std::uint8_t>(kind));
    writer.u64(count);
  }
}

bool decode_kind_counts(
    ByteReader& reader,
    std::vector<std::pair<faults::FaultKind, std::uint64_t>>& counts) {
  const std::size_t size = reader.count(9);
  counts.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    faults::FaultKind kind{};
    // Kinds ascend strictly, as the encoder's map order writes them.
    if (!read_enum(reader, kind, kMaxFaultKind) ||
        (!counts.empty() && !(counts.back().first < kind))) {
      reader.fail();
      return false;
    }
    counts.emplace_back(kind, reader.u64());
  }
  return reader.ok();
}

void encode_confusion(ByteWriter& writer,
                      const faults::ConfusionMatrix& matrix) {
  const auto snapshot = matrix.snapshot();
  writer.u64(snapshot.counts.size());
  for (const auto& [pair, count] : snapshot.counts) {
    writer.u8(static_cast<std::uint8_t>(pair.first));
    writer.u8(static_cast<std::uint8_t>(pair.second));
    writer.u64(count);
  }
  encode_kind_counts(writer, snapshot.truth_totals);
  encode_kind_counts(writer, snapshot.lenient_correct);
  encode_kind_counts(writer, snapshot.spurious_by_kind);
  writer.u64(snapshot.truths);
  writer.u64(snapshot.strict_correct);
  writer.u64(snapshot.lenient_total);
  writer.u64(snapshot.missed);
  writer.u64(snapshot.spurious);
}

bool decode_confusion(ByteReader& reader, faults::ConfusionMatrix& matrix) {
  faults::ConfusionMatrix::Snapshot snapshot;
  const std::size_t pairs = reader.count(10);
  snapshot.counts.reserve(pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    faults::FaultKind truth{};
    faults::FaultKind predicted{};
    if (!read_enum(reader, truth, kMaxFaultKind) ||
        !read_enum(reader, predicted, kMaxFaultKind)) {
      return false;
    }
    const auto pair = std::make_pair(truth, predicted);
    if (!snapshot.counts.empty() && !(snapshot.counts.back().first < pair)) {
      reader.fail();  // pairs ascend strictly, as the encoder writes them
      return false;
    }
    snapshot.counts.emplace_back(pair, reader.u64());
  }
  if (!decode_kind_counts(reader, snapshot.truth_totals) ||
      !decode_kind_counts(reader, snapshot.lenient_correct) ||
      !decode_kind_counts(reader, snapshot.spurious_by_kind)) {
    return false;
  }
  snapshot.truths = reader.u64();
  snapshot.strict_correct = reader.u64();
  snapshot.lenient_total = reader.u64();
  snapshot.missed = reader.u64();
  snapshot.spurious = reader.u64();
  if (!reader.ok()) {
    return false;
  }
  matrix = faults::ConfusionMatrix::from_snapshot(snapshot);
  return true;
}

void encode_read_key(ByteWriter& writer, const diagnosis::ReadKey& key) {
  writer.u64(key.phase);
  writer.u64(key.element);
  writer.u64(key.visit);
  writer.u64(key.op);
}

bool decode_read_key(ByteReader& reader, diagnosis::ReadKey& key) {
  key.phase = static_cast<std::size_t>(reader.u64());
  key.element = static_cast<std::size_t>(reader.u64());
  key.visit = static_cast<std::size_t>(reader.u64());
  key.op = static_cast<std::size_t>(reader.u64());
  return reader.ok();
}

void encode_rows(ByteWriter& writer, const std::vector<std::uint32_t>& rows) {
  writer.u64(rows.size());
  for (const std::uint32_t row : rows) {
    writer.u32(row);
  }
}

bool decode_rows(ByteReader& reader, std::vector<std::uint32_t>& rows) {
  const std::size_t size = reader.count(4);
  rows.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    rows.push_back(reader.u32());
  }
  return reader.ok();
}

}  // namespace

void encode_sram_config(ByteWriter& writer, const sram::SramConfig& config) {
  writer.str(config.name);
  writer.u32(config.words);
  writer.u32(config.bits);
  writer.boolean(config.has_idle_mode);
  writer.u32(config.spare_rows);
  writer.u32(config.spare_cols);
  writer.u64(config.retention_ns);
}

bool decode_sram_config(ByteReader& reader, sram::SramConfig& config) {
  config.name = reader.str();
  config.words = reader.u32();
  config.bits = reader.u32();
  config.has_idle_mode = reader.boolean();
  config.spare_rows = reader.u32();
  config.spare_cols = reader.u32();
  config.retention_ns = reader.u64();
  if (!reader.ok()) {
    return false;
  }
  if (config.words == 0 || config.bits == 0) {
    reader.fail();  // an unusable config would throw far from the decode
    return false;
  }
  return true;
}

namespace {

void encode_classifier_options(ByteWriter& writer,
                               const diagnosis::ClassifierOptions& options) {
  writer.u64(options.clock.period_ns);
  writer.u32(options.global_words);
  writer.u8(static_cast<std::uint8_t>(options.build_mode));
}

bool decode_classifier_options(ByteReader& reader,
                               diagnosis::ClassifierOptions& options) {
  options.clock.period_ns = reader.u64();
  options.global_words = reader.u32();
  const std::uint8_t mode = reader.u8();
  if (!reader.ok() ||
      (mode != static_cast<std::uint8_t>(
                   diagnosis::DictionaryBuildMode::per_candidate) &&
       mode != static_cast<std::uint8_t>(
                   diagnosis::DictionaryBuildMode::instance_sliced))) {
    reader.fail();  // 1 is the retired packed-probe mode
    return false;
  }
  options.build_mode = static_cast<diagnosis::DictionaryBuildMode>(mode);
  return true;
}

void encode_dictionaries(
    ByteWriter& writer,
    const diagnosis::FaultClassifier::DictionarySnapshot& snapshot) {
  writer.u64(snapshot.cells.size());
  for (const auto& [key, dictionary] : snapshot.cells) {
    writer.u32(key.first);
    writer.u32(key.second);
    writer.u64(dictionary.signatures.size());
    for (std::size_t s = 0; s < dictionary.signatures.size(); ++s) {
      const auto& signature = dictionary.signatures[s];
      writer.u8(static_cast<std::uint8_t>(signature.kind));
      writer.u8(static_cast<std::uint8_t>(signature.placement));
      writer.u32(signature.aggressor_bit);
      for (const std::uint64_t limb : dictionary.mask(s)) {
        writer.u64(limb);
      }
    }
  }
  writer.u64(snapshot.rows.size());
  for (const auto& [row, signatures] : snapshot.rows) {
    writer.u32(row);
    writer.u64(signatures.size());
    for (const auto& signature : signatures) {
      writer.u8(static_cast<std::uint8_t>(signature.kind));
      writer.u8(static_cast<std::uint8_t>(signature.position));
      writer.u64(signature.reads.size());
      for (const auto& [read, bit] : signature.reads) {
        encode_read_key(writer, read);
        writer.u32(bit);
      }
    }
  }
}

/// Decodes the dictionaries of a classifier whose read universe is
/// @p universe_bits wide: every cell mask is that many bits, limb-padded,
/// and a bit set past the universe is corrupt (re-encoding stays exact).
bool decode_dictionaries(
    ByteReader& reader, std::uint32_t universe_bits,
    diagnosis::FaultClassifier::DictionarySnapshot& snapshot) {
  using Classifier = diagnosis::FaultClassifier;
  constexpr std::uint8_t kMaxPlacement =
      static_cast<std::uint8_t>(diagnosis::AggressorPlacement::higher_address);
  constexpr std::uint8_t kMaxPosition =
      static_cast<std::uint8_t>(Classifier::Position::last);
  const std::uint32_t limbs = (universe_bits + 63) / 64;
  const std::uint64_t tail_mask =
      universe_bits % 64 == 0 ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << (universe_bits % 64)) - 1;

  const std::size_t cell_keys = reader.count(16);
  snapshot.cells.reserve(cell_keys);
  for (std::size_t k = 0; k < cell_keys; ++k) {
    Classifier::CellKey key;
    key.first = reader.u32();
    key.second = reader.u32();
    const std::size_t signatures =
        reader.count(6 + static_cast<std::size_t>(limbs) * 8);
    Classifier::CellDictionary dictionary;
    dictionary.limbs = limbs;
    dictionary.signatures.reserve(signatures);
    dictionary.masks.reserve(signatures * limbs);
    for (std::size_t s = 0; s < signatures; ++s) {
      Classifier::CellSignature signature;
      if (!read_enum(reader, signature.kind, kMaxFaultKind) ||
          !read_enum(reader, signature.placement, kMaxPlacement)) {
        return false;
      }
      signature.aggressor_bit = reader.u32();
      for (std::uint32_t l = 0; l < limbs; ++l) {
        dictionary.masks.push_back(reader.u64());
      }
      if (limbs != 0 && (dictionary.masks.back() & ~tail_mask) != 0) {
        reader.fail();
        return false;
      }
      dictionary.signatures.push_back(signature);
    }
    snapshot.cells.emplace_back(key, std::move(dictionary));
  }

  const std::size_t row_keys = reader.count(12);
  snapshot.rows.reserve(row_keys);
  for (std::size_t k = 0; k < row_keys; ++k) {
    const std::uint32_t row = reader.u32();
    const std::size_t signatures = reader.count(10);
    std::vector<Classifier::RowSignature> slot;
    slot.reserve(signatures);
    for (std::size_t s = 0; s < signatures; ++s) {
      Classifier::RowSignature signature;
      if (!read_enum(reader, signature.kind, kMaxFaultKind) ||
          !read_enum(reader, signature.position, kMaxPosition)) {
        return false;
      }
      const std::size_t reads = reader.count(36);
      signature.reads.resize(reads);
      for (auto& [read, bit] : signature.reads) {
        if (!decode_read_key(reader, read)) {
          return false;
        }
        bit = reader.u32();
      }
      slot.push_back(std::move(signature));
    }
    snapshot.rows.emplace_back(row, std::move(slot));
  }
  return reader.ok();
}

}  // namespace

void ByteWriter::f64(double value) {
  u64(std::bit_cast<std::uint64_t>(value));
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

void encode_folded(ByteWriter& writer,
                   const core::AggregateReport::Folded& folded) {
  writer.u64(folded.count);
  encode_metric_fold(writer, folded.recall);
  encode_metric_fold(writer, folded.time_ns);
  encode_metric_fold(writer, folded.accuracy);
  encode_metric_fold(writer, folded.soft_detection);
  encode_metric_fold(writer, folded.soft_escape);
  for (const std::uint64_t bucket : folded.times.counts) {
    writer.u64(bucket);
  }
  writer.u64(folded.schemes.size());
  for (const auto& scheme : folded.schemes) {
    writer.str(scheme.scheme_name);
    encode_metric_fold(writer, scheme.recall);
    encode_metric_fold(writer, scheme.time_ns);
  }
}

bool decode_folded(ByteReader& reader,
                   core::AggregateReport::Folded& folded) {
  folded.count = reader.u64();
  if (!decode_metric_fold(reader, folded.recall) ||
      !decode_metric_fold(reader, folded.time_ns) ||
      !decode_metric_fold(reader, folded.accuracy) ||
      !decode_metric_fold(reader, folded.soft_detection) ||
      !decode_metric_fold(reader, folded.soft_escape)) {
    return false;
  }
  for (auto& bucket : folded.times.counts) {
    bucket = reader.u64();
  }
  const std::size_t schemes = reader.count(4 + 2 * 32);
  folded.schemes.reserve(schemes);
  for (std::size_t i = 0; i < schemes; ++i) {
    core::AggregateReport::Folded::SchemeFold scheme;
    scheme.scheme_name = reader.str();
    if (!decode_metric_fold(reader, scheme.recall) ||
        !decode_metric_fold(reader, scheme.time_ns)) {
      return false;
    }
    folded.schemes.push_back(std::move(scheme));
  }
  return reader.ok();
}

void encode_classification(ByteWriter& writer,
                           const core::ClassificationOutcome& outcome) {
  writer.u64(outcome.memories.size());
  for (const auto& memory : outcome.memories) {
    writer.u64(memory.memory_index);
    writer.u64(memory.sites.size());
    for (const auto& site : memory.sites) {
      writer.u8(static_cast<std::uint8_t>(site.site));
      writer.u32(site.cell.row);
      writer.u32(site.cell.bit);
      writer.u32(site.row);
      writer.u64(site.failing_bits);
      writer.u64(site.hypotheses.size());
      for (const auto& hypothesis : site.hypotheses) {
        writer.u8(static_cast<std::uint8_t>(hypothesis.kind));
        writer.f64(hypothesis.confidence);
        writer.u8(static_cast<std::uint8_t>(hypothesis.aggressor.placement));
        writer.u64(hypothesis.aggressor.candidate_bits.size());
        for (const std::uint32_t bit : hypothesis.aggressor.candidate_bits) {
          writer.u32(bit);
        }
      }
    }
  }
  encode_confusion(writer, outcome.confusion);
}

bool decode_classification(ByteReader& reader,
                           core::ClassificationOutcome& outcome) {
  constexpr std::uint8_t kMaxSite =
      static_cast<std::uint8_t>(diagnosis::SiteClassification::Site::row);
  constexpr std::uint8_t kMaxPlacement =
      static_cast<std::uint8_t>(diagnosis::AggressorPlacement::higher_address);

  const std::size_t memories = reader.count(16);
  outcome.memories.reserve(memories);
  for (std::size_t m = 0; m < memories; ++m) {
    diagnosis::MemoryClassification memory;
    memory.memory_index = static_cast<std::size_t>(reader.u64());
    const std::size_t sites = reader.count(29);
    memory.sites.reserve(sites);
    for (std::size_t s = 0; s < sites; ++s) {
      diagnosis::SiteClassification site;
      if (!read_enum(reader, site.site, kMaxSite)) {
        return false;
      }
      site.cell.row = reader.u32();
      site.cell.bit = reader.u32();
      site.row = reader.u32();
      site.failing_bits = static_cast<std::size_t>(reader.u64());
      const std::size_t hypotheses = reader.count(18);
      site.hypotheses.reserve(hypotheses);
      for (std::size_t h = 0; h < hypotheses; ++h) {
        diagnosis::Hypothesis hypothesis;
        if (!read_enum(reader, hypothesis.kind, kMaxFaultKind)) {
          return false;
        }
        hypothesis.confidence = reader.f64();
        if (!read_enum(reader, hypothesis.aggressor.placement,
                       kMaxPlacement)) {
          return false;
        }
        const std::size_t bits = reader.count(4);
        hypothesis.aggressor.candidate_bits.reserve(bits);
        for (std::size_t b = 0; b < bits; ++b) {
          hypothesis.aggressor.candidate_bits.push_back(reader.u32());
        }
        site.hypotheses.push_back(std::move(hypothesis));
      }
      memory.sites.push_back(std::move(site));
    }
    outcome.memories.push_back(std::move(memory));
  }
  return decode_confusion(reader, outcome.confusion);
}

void encode_march_test(ByteWriter& writer, const march::MarchTest& test) {
  writer.str(test.name());
  writer.u64(test.phases().size());
  for (const auto& phase : test.phases()) {
    encode_bitvec(writer, phase.background);
    writer.u64(phase.elements.size());
    for (const auto& element : phase.elements) {
      writer.u8(static_cast<std::uint8_t>(element.order));
      writer.u64(element.ops.size());
      for (const auto& op : element.ops) {
        writer.u8(static_cast<std::uint8_t>(op.kind));
        writer.u8(static_cast<std::uint8_t>(op.polarity));
        writer.u64(op.pause_ns);
      }
    }
  }
}

bool decode_march_test(ByteReader& reader, march::MarchTest& test) {
  constexpr std::uint8_t kMaxOrder =
      static_cast<std::uint8_t>(march::AddrOrder::once);
  constexpr std::uint8_t kMaxOpKind =
      static_cast<std::uint8_t>(march::MarchOpKind::pause);
  constexpr std::uint8_t kMaxPolarity =
      static_cast<std::uint8_t>(march::Polarity::inverted);

  std::string name = reader.str();
  const std::size_t phase_count = reader.count(16);
  std::vector<march::MarchPhase> phases;
  phases.reserve(phase_count);
  std::vector<std::uint64_t> limbs;
  for (std::size_t p = 0; p < phase_count; ++p) {
    march::MarchPhase phase;
    if (!decode_bitvec(reader, phase.background, limbs)) {
      return false;
    }
    const std::size_t elements = reader.count(9);
    phase.elements.reserve(elements);
    for (std::size_t e = 0; e < elements; ++e) {
      march::MarchElement element;
      if (!read_enum(reader, element.order, kMaxOrder)) {
        return false;
      }
      const std::size_t ops = reader.count(10);
      element.ops.reserve(ops);
      for (std::size_t o = 0; o < ops; ++o) {
        march::MarchOp op;
        if (!read_enum(reader, op.kind, kMaxOpKind) ||
            !read_enum(reader, op.polarity, kMaxPolarity)) {
          return false;
        }
        op.pause_ns = reader.u64();
        element.ops.push_back(op);
      }
      phase.elements.push_back(std::move(element));
    }
    phases.push_back(std::move(phase));
  }
  if (!reader.ok()) {
    return false;
  }
  test = march::MarchTest(std::move(name), std::move(phases));
  return true;
}

namespace {

/// The log section of "FDRP" v4: the sealed tables, integers as varints.
///   backgrounds: count, then each non-empty one (id 0, the empty one, is
///                implicit) as a bitvec
///   events:      count, then phase, element, op, visit, background id,
///                serial byte, cycle base
///   words:       count of memories with words, then per memory (ascending)
///                its index, its word count and its addresses
///   entries:     count, then (word id, event id, limb, mask) in log order
void encode_log(ByteWriter& writer, const bisd::DiagnosisLog& log) {
  std::optional<bisd::DiagnosisLog> copy;
  const auto& tables = bisd::sealed_form(log, copy).tables();
  writer.varint(tables.backgrounds.size() - 1);
  for (std::size_t id = 1; id < tables.backgrounds.size(); ++id) {
    encode_bitvec(writer, tables.backgrounds[id]);
  }
  writer.varint(tables.events.size());
  for (const bisd::DiagnosisEvent& event : tables.events) {
    writer.varint(event.phase);
    writer.varint(event.element);
    writer.varint(event.op);
    writer.varint(event.visit);
    writer.varint(event.background);
    writer.u8(event.serial ? 1 : 0);
    writer.varint(event.cycle_base);
  }
  const auto& words = tables.words;
  std::size_t memories = 0;
  for (std::size_t w = 0; w < words.size(); ++w) {
    memories += w == 0 || words[w].memory != words[w - 1].memory ? 1 : 0;
  }
  writer.varint(memories);
  for (std::size_t first = 0; first < words.size();) {
    std::size_t last = first + 1;
    while (last < words.size() && words[last].memory == words[first].memory) {
      ++last;
    }
    writer.varint(words[first].memory);
    writer.varint(last - first);
    writer.varints(last - first,
                   [&](std::size_t i) { return words[first + i].addr; });
    first = last;
  }
  const auto& entries = tables.entries;
  writer.varint(entries.size());
  writer.varints(4 * entries.size(), [&](std::size_t i) -> std::uint64_t {
    const bisd::LogEntry& entry = entries[i / 4];
    switch (i % 4) {
      case 0:
        return entry.word;
      case 1:
        return entry.event;
      case 2:
        return entry.limb;
      default:
        return entry.mask;
    }
  });
}

/// Decodes encode_log's section into @p log, or names what is wrong with
/// it.  Counts are checked against the bytes left before anything is
/// sized from them, and the tables must be canonical.
std::optional<std::string> decode_log(ByteReader& reader,
                                      bisd::DiagnosisLog& log) {
  bool wide = false;
  // A field the log holds in 32 bits: a wider value is an error, never
  // truncated.
  const auto field = [&]() -> std::uint32_t {
    const std::uint64_t value = reader.varint();
    if (value > std::numeric_limits<std::uint32_t>::max()) {
      wide = true;
      reader.fail();
      return 0;
    }
    return static_cast<std::uint32_t>(value);
  };
  const auto corrupt = [&]() -> std::optional<std::string> {
    return wide ? "log field wider than 32 bits" : "corrupt log";
  };
  bisd::DiagnosisLog::Tables tables;
  // Smallest encodings: a one-limb bitvec, an event of one-byte fields, a
  // memory with one word, a word, an entry.
  const std::size_t backgrounds = reader.varint_count(16);
  tables.backgrounds.reserve(backgrounds + 1);
  std::vector<std::uint64_t> limbs;
  for (std::size_t i = 0; i < backgrounds; ++i) {
    if (!decode_bitvec(reader, tables.backgrounds.emplace_back(), limbs)) {
      return corrupt();
    }
  }
  const std::size_t events = reader.varint_count(7);
  tables.events.reserve(events);
  for (std::size_t i = 0; i < events && reader.ok(); ++i) {
    bisd::DiagnosisEvent& event = tables.events.emplace_back();
    event.phase = field();
    event.element = field();
    event.op = field();
    event.visit = field();
    event.background = field();
    event.serial = reader.boolean();
    event.cycle_base = reader.varint();
  }
  const std::size_t memories = reader.varint_count(3);
  for (std::size_t i = 0; i < memories && reader.ok(); ++i) {
    const std::uint32_t memory = field();
    const std::size_t count = reader.varint_count(1);
    if (count == 0 ||
        (!tables.words.empty() && memory <= tables.words.back().memory)) {
      reader.fail();  // an empty or out-of-order memory is not canonical
    }
    tables.words.reserve(tables.words.size() + count);
    for (std::size_t w = 0; w < count && reader.ok(); ++w) {
      tables.words.push_back({memory, field()});
    }
  }
  const std::size_t entries = reader.varint_count(4);
  tables.entries.reserve(entries);
  for (std::size_t i = 0; i < entries && reader.ok(); ++i) {
    bisd::LogEntry& entry = tables.entries.emplace_back();
    entry.word = field();
    entry.event = field();
    entry.limb = field();
    entry.mask = reader.varint();
  }
  if (!reader.ok()) {
    return corrupt();
  }
  std::string why;
  auto adopted = bisd::DiagnosisLog::from_sealed_tables(std::move(tables), why);
  if (!adopted) {
    return "non-canonical log: " + why;
  }
  log = std::move(*adopted);
  return std::nullopt;
}

}  // namespace

std::vector<std::uint8_t> encode_report(const core::Report& report) {
  ByteWriter writer;
  writer.u32(kReportMagic);
  writer.u32(kReportFormatVersion);
  writer.str(report.scheme_name);
  writer.str(report.scheme_description);
  writer.u64(report.seed);
  writer.f64(report.defect_rate);

  writer.u64(report.result.iterations);
  writer.u64(report.result.time.cycles);
  writer.u64(report.result.time.pause_ns);
  encode_log(writer, report.result.log);

  writer.u64(report.matches.size());
  for (const auto& match : report.matches) {
    writer.u64(match.truth_faults);
    writer.u64(match.diagnosed_cells);
    writer.u64(match.matched_faults);
    writer.u64(match.spurious_cells);
  }
  writer.u64(report.total_ns);
  writer.u64(report.injected_faults);

  writer.boolean(report.repair.has_value());
  if (report.repair) {
    writer.u64(report.repair->memories.size());
    for (const auto& memory : report.repair->memories) {
      encode_rows(writer, memory.rows);
      encode_rows(writer, memory.unrepaired_rows);
    }
  }
  writer.boolean(report.repair_2d.has_value());
  if (report.repair_2d) {
    writer.u64(report.repair_2d->memories.size());
    for (const auto& memory : report.repair_2d->memories) {
      encode_rows(writer, memory.rows);
      encode_rows(writer, memory.cols);
      writer.u64(memory.unrepaired.size());
      for (const auto& cell : memory.unrepaired) {
        writer.u32(cell.row);
        writer.u32(cell.bit);
      }
    }
  }
  writer.boolean(report.repair_verified_clean);

  writer.boolean(report.classification.has_value());
  if (report.classification) {
    encode_classification(writer, *report.classification);
  }

  writer.boolean(report.soft_error.has_value());
  if (report.soft_error) {
    const core::SoftErrorOutcome& soft = *report.soft_error;
    writer.u64(soft.injected_upsets);
    writer.u64(soft.transient_upsets);
    writer.u64(soft.scored_upsets);
    writer.u64(soft.detected_upsets);
    writer.u64(soft.correct_window);
    writer.u64(soft.escaped_cells);
    writer.u64(soft.ecc_corrected);
    writer.u64(soft.ecc_miscorrected);
    writer.u64(soft.ecc_uncorrectable);
    writer.u64(soft.scan_sweeps);
    writer.u64(soft.scrub_writes);
  }
  return std::move(writer).take();
}

core::Expected<core::Report, DecodeError> decode_report(
    const std::uint8_t* data, std::size_t size) {
  ByteReader reader(data, size);
  if (reader.u32() != kReportMagic) {
    return make_unexpected(DecodeError{"report: bad magic"});
  }
  if (const std::uint32_t version = reader.u32();
      version != kReportFormatVersion) {
    return make_unexpected(DecodeError{"report: unsupported version " +
                                       std::to_string(version)});
  }
  core::Report report;
  report.scheme_name = reader.str();
  report.scheme_description = reader.str();
  report.seed = reader.u64();
  report.defect_rate = reader.f64();

  report.result.iterations = reader.u64();
  report.result.time.cycles = reader.u64();
  report.result.time.pause_ns = reader.u64();
  if (auto error = decode_log(reader, report.result.log)) {
    return make_unexpected(DecodeError{"report: " + *error});
  }

  const std::size_t matches = reader.count(32);
  report.matches.reserve(matches);
  for (std::size_t i = 0; i < matches; ++i) {
    faults::MatchReport match;
    match.truth_faults = static_cast<std::size_t>(reader.u64());
    match.diagnosed_cells = static_cast<std::size_t>(reader.u64());
    match.matched_faults = static_cast<std::size_t>(reader.u64());
    match.spurious_cells = static_cast<std::size_t>(reader.u64());
    report.matches.push_back(match);
  }
  report.total_ns = reader.u64();
  report.injected_faults = static_cast<std::size_t>(reader.u64());

  if (reader.boolean()) {
    bisd::RepairPlan plan;
    const std::size_t memories = reader.count(16);
    plan.memories.reserve(memories);
    for (std::size_t i = 0; i < memories; ++i) {
      bisd::RepairPlan::MemoryPlan memory;
      if (!decode_rows(reader, memory.rows) ||
          !decode_rows(reader, memory.unrepaired_rows)) {
        return make_unexpected(DecodeError{"report: corrupt repair plan"});
      }
      plan.memories.push_back(std::move(memory));
    }
    report.repair = std::move(plan);
  }
  if (reader.boolean()) {
    bisd::RepairPlan2D plan;
    const std::size_t memories = reader.count(24);
    plan.memories.reserve(memories);
    for (std::size_t i = 0; i < memories; ++i) {
      bisd::RepairPlan2D::MemoryPlan memory;
      if (!decode_rows(reader, memory.rows) ||
          !decode_rows(reader, memory.cols)) {
        return make_unexpected(DecodeError{"report: corrupt 2-D plan"});
      }
      const std::size_t cells = reader.count(8);
      memory.unrepaired.reserve(cells);
      for (std::size_t c = 0; c < cells; ++c) {
        sram::CellCoord cell;
        cell.row = reader.u32();
        cell.bit = reader.u32();
        memory.unrepaired.push_back(cell);
      }
      plan.memories.push_back(std::move(memory));
    }
    report.repair_2d = std::move(plan);
  }
  report.repair_verified_clean = reader.boolean();

  if (reader.boolean()) {
    core::ClassificationOutcome outcome;
    if (!decode_classification(reader, outcome)) {
      return make_unexpected(DecodeError{"report: corrupt classification"});
    }
    report.classification = std::move(outcome);
  }
  if (reader.boolean()) {
    core::SoftErrorOutcome soft;
    soft.injected_upsets = reader.u64();
    soft.transient_upsets = reader.u64();
    soft.scored_upsets = reader.u64();
    soft.detected_upsets = reader.u64();
    soft.correct_window = reader.u64();
    soft.escaped_cells = reader.u64();
    soft.ecc_corrected = reader.u64();
    soft.ecc_miscorrected = reader.u64();
    soft.ecc_uncorrectable = reader.u64();
    soft.scan_sweeps = reader.u64();
    soft.scrub_writes = reader.u64();
    report.soft_error = soft;
  }
  if (!reader.finished()) {
    return make_unexpected(
        DecodeError{"report: truncated or trailing bytes"});
  }
  return report;
}

std::vector<std::uint8_t> encode_classifier_cache(
    const diagnosis::ClassifierCache& cache) {
  ByteWriter writer;
  writer.u32(kCacheMagic);
  writer.u32(kCacheFormatVersion);
  const auto entries = cache.entries();
  writer.u64(entries.size());
  for (const auto& classifier : entries) {
    encode_sram_config(writer, classifier->config());
    encode_march_test(writer, classifier->test());
    encode_classifier_options(writer, classifier->options());
    writer.u32(classifier->read_universe().size());
    encode_dictionaries(writer, classifier->export_dictionaries());
  }
  return std::move(writer).take();
}

core::Expected<std::size_t, DecodeError> decode_classifier_cache(
    const std::uint8_t* data, std::size_t size,
    diagnosis::ClassifierCache& cache) {
  ByteReader reader(data, size);
  if (reader.u32() != kCacheMagic) {
    return make_unexpected(DecodeError{"cache: bad magic"});
  }
  if (const std::uint32_t version = reader.u32();
      version != kCacheFormatVersion) {
    return make_unexpected(DecodeError{"cache: unsupported version " +
                                       std::to_string(version)});
  }
  const std::size_t count = reader.count(64);
  // Decode every entry before touching the cache: a corrupt tail must not
  // leave a half-imported cache behind.
  std::vector<std::shared_ptr<diagnosis::FaultClassifier>> classifiers;
  classifiers.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    sram::SramConfig config;
    march::MarchTest test;
    diagnosis::ClassifierOptions options;
    if (!decode_sram_config(reader, config) ||
        !decode_march_test(reader, test) ||
        !decode_classifier_options(reader, options)) {
      return make_unexpected(
          DecodeError{"cache: corrupt entry " + std::to_string(i)});
    }
    // A well-framed entry can still carry inputs the classifier rejects
    // (a memory wider than its test, retention_ns 0, ...): that is a decode
    // error, never an exception out of a daemon's connection thread.
    std::shared_ptr<diagnosis::FaultClassifier> classifier;
    try {
      classifier = std::make_shared<diagnosis::FaultClassifier>(config, test,
                                                                options);
    } catch (const std::invalid_argument&) {
      return make_unexpected(
          DecodeError{"cache: invalid entry " + std::to_string(i)});
    }
    // The mask width must be the classifier's own universe, checked before
    // any mask storage is sized from it.
    const std::uint32_t universe = classifier->read_universe().size();
    if (const std::uint32_t width = reader.u32();
        !reader.ok() || width != universe) {
      return make_unexpected(DecodeError{
          "cache: entry " + std::to_string(i) + " mask width " +
          std::to_string(width) + " does not match its read universe of " +
          std::to_string(universe) + " bits"});
    }
    diagnosis::FaultClassifier::DictionarySnapshot snapshot;
    if (!decode_dictionaries(reader, universe, snapshot)) {
      return make_unexpected(
          DecodeError{"cache: corrupt entry " + std::to_string(i)});
    }
    classifier->import_dictionaries(std::move(snapshot));
    classifiers.push_back(std::move(classifier));
  }
  if (!reader.finished()) {
    return make_unexpected(DecodeError{"cache: truncated or trailing bytes"});
  }
  for (auto& classifier : classifiers) {
    cache.insert(std::move(classifier));
  }
  return classifiers.size();
}

}  // namespace fastdiag::service
