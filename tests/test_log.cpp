// The diagnosis log's tables against a plain record vector: seeded logs
// built through both entry points (the generic add(record) and a scheme's
// add_word(memory, addr, limb, mask, event)) must read back, before and
// after sealing and through an "FDRP" round trip, exactly as the records
// they were fed, in the order record.h sets out.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "bisd/record.h"
#include "core/report.h"
#include "diagnosis/syndrome.h"
#include "service/serialize.h"
#include "util/rng.h"

namespace fastdiag::bisd {
namespace {

constexpr std::uint32_t kMax32 = std::numeric_limits<std::uint32_t>::max();

/// What a log should read back: its records, with backgrounds by content
/// (sealing renumbers background ids).
struct Reference {
  std::vector<DiagnosisRecord> records;
  std::vector<BitVector> backgrounds;  ///< per record
};

/// One appended entry as the reference sees it: the record fields but the
/// bit and cycle, the event's base and kind, and the limb and mask.
struct RefEntry {
  DiagnosisRecord fields;
  std::uint64_t base = 0;
  bool serial = false;
  std::uint32_t limb = 0;
  std::uint64_t mask = 0;
  BitVector background;
};

/// The records @p entries stand for, by record.h's rule written as a sort:
/// a maximal run of consecutive serial entries sharing a cycle base yields
/// its bits by clock (64 * limb + bit), then entry order; any other entry
/// yields its bits ascending.
Reference expand(const std::vector<RefEntry>& entries) {
  Reference out;
  for (std::size_t i = 0; i < entries.size();) {
    std::size_t j = i + 1;
    while (entries[i].serial && j < entries.size() && entries[j].serial &&
           entries[j].base == entries[i].base) {
      ++j;
    }
    std::vector<std::tuple<std::uint64_t, std::size_t, std::uint32_t>> run;
    for (std::size_t k = i; k < j; ++k) {
      for (std::uint64_t m = entries[k].mask; m != 0; m &= m - 1) {
        const auto bit = entries[k].limb * 64 +
                         static_cast<std::uint32_t>(std::countr_zero(m));
        run.emplace_back(entries[k].serial ? bit : 0, k, bit);
      }
    }
    std::stable_sort(run.begin(), run.end(), [](const auto& a, const auto& b) {
      return std::get<0>(a) < std::get<0>(b);
    });
    for (const auto& [clock, k, bit] : run) {
      DiagnosisRecord record = entries[k].fields;
      record.bit = bit;
      record.cycle = entries[k].serial ? entries[k].base + bit : entries[k].base;
      out.records.push_back(record);
      out.backgrounds.push_back(entries[k].background);
    }
    i = j;
  }
  return out;
}

/// One seeded trial's shape.
struct Shape {
  std::vector<std::uint32_t> memories;
  bool monotone_cycles = true;  ///< scheme-like non-decreasing event bases
  std::uint64_t addr_span = 80;
  std::size_t operations = 0;
  std::size_t backgrounds = 0;
};

class LogBuilder {
 public:
  LogBuilder(Rng& rng, const Shape& shape) : rng_(rng), shape_(shape) {
    // A background and an event nothing refers to: sealing drops both.
    DiagnosisEvent unused;
    unused.background = log_.intern(BitVector::from_string("111"));
    (void)log_.intern(unused);
    for (std::size_t i = 0; i < std::max<std::size_t>(shape.backgrounds, 1);
         ++i) {
      // Widths 60..69 straddle a limb boundary; width 0 is the empty one.
      const std::size_t width = i == 0 ? 0 : 60 + i % 10;
      contents_.push_back(
          width == 0 ? BitVector()
                     : BitVector::from_value(
                           width, (i * 0x9E3779B97F4A7C15ull) &
                                      ((std::uint64_t{1} << 60) - 1)));
    }
  }

  /// One record through the generic add, or one read through add_word.
  void add_one(std::uint64_t& clock) {
    if (rng_.bernoulli(0.5)) {
      add_record(clock);
    } else {
      add_read(clock);
    }
  }

  /// Logs @p count fresh non-empty backgrounds, one serial event each, on
  /// memory 0 — a log whose background table outgrows everything else.
  void add_backgrounds(std::uint64_t& clock, std::uint32_t count) {
    for (std::uint32_t b = 1; b <= count; ++b) {
      RefEntry entry;
      entry.background = BitVector::from_value(
          70 + b % 10,
          (b * 0xC2B2AE3D27D4EB4Full) & ((std::uint64_t{1} << 60) - 1));
      entry.fields.addr = b;
      entry.base = ++clock;
      entry.serial = true;
      entry.mask = 0b10;
      append(entry);
    }
  }

  DiagnosisLog& log() { return log_; }
  Reference reference() const { return expand(entries_); }

 private:
  std::uint32_t coordinate(std::uint64_t span) {
    return rng_.bernoulli(0.05) ? kMax32
                                : static_cast<std::uint32_t>(rng_.uniform(span));
  }

  std::uint32_t memory() {
    return shape_.memories[rng_.uniform(shape_.memories.size())];
  }

  std::size_t content() { return rng_.uniform(contents_.size()); }

  void fill_fields(DiagnosisRecord& fields) {
    fields.phase = static_cast<std::uint32_t>(rng_.uniform(4));
    fields.element = rng_.bernoulli(0.02)
                         ? kMax32
                         : static_cast<std::uint32_t>(rng_.uniform(6));
    fields.op = static_cast<std::uint32_t>(rng_.uniform(3));
    fields.visit = static_cast<std::uint32_t>(rng_.uniform(3));
  }

  void add_record(std::uint64_t& clock) {
    const std::size_t c = content();
    DiagnosisRecord record;
    record.memory_index = memory();
    record.addr = coordinate(shape_.addr_span);
    record.bit = coordinate(150);
    fill_fields(record);
    record.background = log_.intern(contents_[c]);
    record.cycle = next_base(clock, false);
    log_.add(record);
    RefEntry entry;
    entry.fields = record;
    entry.base = record.cycle;
    entry.limb = record.bit / 64;
    entry.mask = std::uint64_t{1} << (record.bit % 64);
    entry.background = contents_[c];
    entries_.push_back(entry);
  }

  /// One comparator read of one to three memories, each a word of one to
  /// three limbs.  A serial read shares one cycle base across the memories
  /// (each its own visit, so its own event) and appends limb-major, as the
  /// PSCs shift; a parallel read appends each memory's limbs in turn.
  void add_read(std::uint64_t& clock) {
    const bool serial = rng_.bernoulli(0.7);
    const std::uint64_t base = next_base(clock, serial);
    const std::size_t c = content();
    std::vector<RefEntry> words(1 + rng_.uniform(3));
    std::uint32_t limbs = 0;
    for (RefEntry& word : words) {
      word.fields.memory_index = memory();
      word.fields.addr = coordinate(shape_.addr_span);
      fill_fields(word.fields);
      word.base = base;
      word.serial = serial;
      word.limb = static_cast<std::uint32_t>(1 + rng_.uniform(3));  // count
      word.background = contents_[c];
      limbs = std::max(limbs, word.limb);
    }
    const auto mask = [&] {
      switch (rng_.uniform(4)) {
        case 0:
          return std::uint64_t{1} << rng_.uniform(64);
        case 1:
          return ~std::uint64_t{0} >> rng_.uniform(64);
        default:
          return rng_.next_u64() & rng_.next_u64() & rng_.next_u64();
      }
    };
    const auto emit = [&](const RefEntry& word, std::uint32_t limb) {
      RefEntry entry = word;
      entry.limb = limb;
      entry.mask = mask();
      if (entry.mask != 0) {
        append(entry);
      }
    };
    if (serial) {
      for (std::uint32_t limb = 0; limb < limbs; ++limb) {
        for (const RefEntry& word : words) {
          if (limb < word.limb) emit(word, limb);
        }
      }
    } else {
      for (const RefEntry& word : words) {
        for (std::uint32_t limb = 0; limb < word.limb; ++limb) {
          emit(word, limb);
        }
      }
    }
  }

  /// The next event base.  A serial read never reuses the base of a serial
  /// entry just before it, so every read is a run of its own.
  std::uint64_t next_base(std::uint64_t& clock, bool serial) {
    if (shape_.monotone_cycles) {
      clock += rng_.uniform(3);
    } else {
      clock = rng_.uniform(1000);
    }
    // A base near 2^64 wraps its serial cycles (cycle < bit).
    std::uint64_t base = rng_.bernoulli(0.03) ? ~std::uint64_t{0} - 70 : clock;
    if (serial && !entries_.empty() && entries_.back().serial &&
        entries_.back().base == base) {
      ++base;
    }
    return base;
  }

  void append(const RefEntry& entry) {
    DiagnosisEvent event;
    event.cycle_base = entry.base;
    event.phase = entry.fields.phase;
    event.element = entry.fields.element;
    event.op = entry.fields.op;
    event.visit = entry.fields.visit;
    event.background = log_.intern(entry.background);
    event.serial = entry.serial;
    log_.add_word(entry.fields.memory_index, entry.fields.addr, entry.limb,
                  entry.mask, log_.intern(event));
    entries_.push_back(entry);
  }

  Rng& rng_;
  const Shape& shape_;
  std::vector<BitVector> contents_;
  DiagnosisLog log_;
  std::vector<RefEntry> entries_;
};

/// Every read-side query of @p log against @p reference.
void expect_reads(const DiagnosisLog& log, const Reference& reference,
                  const Shape& shape, const std::string& where) {
  const auto& want = reference.records;
  const auto view = log.records();
  ASSERT_EQ(view.size(), want.size()) << where;
  std::size_t i = 0;
  for (const DiagnosisRecord got : view) {
    ASSERT_LT(i, want.size()) << where;
    const DiagnosisRecord& w = want[i];
    EXPECT_EQ(std::tie(got.memory_index, got.addr, got.bit, got.phase,
                       got.element, got.op, got.visit, got.cycle),
              std::tie(w.memory_index, w.addr, w.bit, w.phase, w.element,
                       w.op, w.visit, w.cycle))
        << where << ", record " << i;
    EXPECT_EQ(log.background(got), reference.backgrounds[i])
        << where << ", record " << i;
    ++i;
  }
  EXPECT_EQ(i, want.size()) << where;

  std::map<std::uint32_t, std::set<sram::CellCoord>> cells;
  std::set<std::pair<std::uint32_t, sram::CellCoord>> distinct;
  for (const DiagnosisRecord& record : want) {
    cells[record.memory_index].insert(record.cell());
    distinct.emplace(record.memory_index, record.cell());
  }
  EXPECT_EQ(log.distinct_cell_count(), distinct.size()) << where;
  std::vector<std::uint32_t> queried = shape.memories;
  queried.push_back(2);  // never logged
  for (const std::uint32_t memory : queried) {
    const auto& expected = cells[memory];
    EXPECT_EQ(log.cells(memory), std::vector<sram::CellCoord>(
                                     expected.begin(), expected.end()))
        << where << ", memory " << memory;
    std::vector<std::uint32_t> rows;
    for (const auto& cell : expected) {
      if (rows.empty() || rows.back() != cell.row) rows.push_back(cell.row);
    }
    EXPECT_EQ(log.faulty_rows(memory), rows) << where << ", memory " << memory;
    for (const auto& cell : expected) {
      EXPECT_TRUE(log.contains(memory, cell)) << where;
      // The same row one bit over, and one batch over.
      for (const std::uint32_t bit : {cell.bit ^ 1u, cell.bit ^ 64u}) {
        EXPECT_EQ(log.contains(memory, {cell.row, bit}),
                  expected.count({cell.row, bit}) != 0)
            << where;
      }
    }
  }
  EXPECT_FALSE(log.contains(2, {0, 0})) << where;
}

/// The reference syndrome fold: a map over the records, with
/// extract_syndromes' contract (exactly @p memory_count entries; cells of
/// later memories dropped).
std::vector<diagnosis::MemorySyndrome> fold_records(
    const Reference& reference, std::size_t memory_count) {
  std::map<std::pair<std::size_t, sram::CellCoord>,
           std::pair<std::set<diagnosis::ReadKey>, std::size_t>>
      folded;
  for (const DiagnosisRecord& record : reference.records) {
    auto& slot = folded[{record.memory_index, record.cell()}];
    ++slot.second;
    slot.first.insert(diagnosis::ReadKey{record.phase, record.element,
                                         record.visit, record.op});
  }
  std::vector<diagnosis::MemorySyndrome> out(memory_count);
  for (std::size_t i = 0; i < memory_count; ++i) out[i].memory_index = i;
  for (const auto& [key, value] : folded) {
    if (key.first >= memory_count) {
      continue;
    }
    diagnosis::CellSyndrome syndrome;
    syndrome.cell = key.second;
    syndrome.failed_reads.assign(value.first.begin(), value.first.end());
    syndrome.record_count = value.second;
    out[key.first].cells.push_back(std::move(syndrome));
  }
  return out;
}

void expect_syndromes(const DiagnosisLog& log, const Reference& reference,
                      const std::string& where) {
  const auto got = diagnosis::extract_syndromes(log, 8);
  const auto want = fold_records(reference, 8);
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t m = 0; m < want.size(); ++m) {
    ASSERT_EQ(got[m].cells.size(), want[m].cells.size())
        << where << ", memory " << m;
    for (std::size_t c = 0; c < want[m].cells.size(); ++c) {
      EXPECT_EQ(got[m].cells[c].to_string(), want[m].cells[c].to_string())
          << where << ", memory " << m;
      EXPECT_EQ(got[m].cells[c].record_count, want[m].cells[c].record_count)
          << where << ", memory " << m;
    }
  }
}

std::vector<std::uint8_t> encode_log(const DiagnosisLog& log) {
  core::Report report;
  report.result.log = log;
  return service::encode_report(report);
}

TEST(DiagnosisLog, TablesReadBackLikeARecordVector) {
  Rng rng(20261018);
  for (int trial = 0; trial < 36; ++trial) {
    Shape shape;
    // Odd trials add memory indices no word slot may cover, past the
    // syndrome fold's memory count too.  Trials 32 and up spread ~900
    // words over 2^16 addresses of 100 memories: their slots would need
    // ~5.9M entries, past the 2^22 budget, so some memories freeze their
    // slots and keep later words in the map.
    const bool spread = trial >= 32;
    if (spread) {
      for (std::uint32_t m = 0; m < 100; ++m) shape.memories.push_back(m);
      shape.addr_span = std::uint64_t{1} << 16;
    } else {
      shape.memories = trial % 2 == 0
                           ? std::vector<std::uint32_t>{0, 1, 7}
                           : std::vector<std::uint32_t>{0, 7, 70000, kMax32};
    }
    shape.monotone_cycles = trial % 4 < 2;
    shape.operations = trial == 0 ? 0 : spread ? 600 : rng.uniform_in(1, 600);
    shape.backgrounds = trial == 5 ? 12'000 : 1 + rng.uniform(20);
    const std::string where = "trial " + std::to_string(trial);

    LogBuilder builder(rng, shape);
    std::uint64_t clock = rng.uniform(1'000'000);
    const std::size_t split = shape.operations / 2;
    for (std::size_t i = 0; i < split; ++i) builder.add_one(clock);
    // A copy taken mid-build rebuilds its insertion index from the tables;
    // it goes on below through that one.
    DiagnosisLog copy = builder.log();
    const std::size_t copied = builder.reference().records.size();
    for (std::size_t i = split; i < shape.operations; ++i) {
      builder.add_one(clock);
    }
    if (trial == 5) {
      builder.add_backgrounds(clock, 12'000);  // each logged twice
      builder.add_backgrounds(clock, 12'000);
    }
    DiagnosisLog& log = builder.log();
    const Reference reference = builder.reference();

    expect_reads(log, reference, shape, where + " (unsealed)");
    const auto unsealed_bytes = encode_log(log);
    expect_syndromes(log, reference, where);

    log.seal();
    ASSERT_TRUE(log.sealed()) << where;
    expect_reads(log, reference, shape, where + " (sealed)");
    expect_syndromes(log, reference, where + " (sealed)");
    log.seal();  // idempotent

    // v4 round trip: byte-identical, and the decoded log is sealed.
    const auto bytes = encode_log(log);
    EXPECT_EQ(bytes, unsealed_bytes) << where;
    const auto decoded = service::decode_report(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.has_value()) << where << ": "
                                     << decoded.error().message;
    EXPECT_TRUE(decoded.value().result.log.sealed()) << where;
    EXPECT_EQ(service::encode_report(decoded.value()), bytes) << where;
    expect_reads(decoded.value().result.log, reference, shape,
                 where + " (decoded)");
    expect_syndromes(decoded.value().result.log, reference,
                     where + " (decoded)");

    // The copy takes the rest of the records through the generic add.
    for (std::size_t i = copied; i < reference.records.size(); ++i) {
      DiagnosisRecord record = reference.records[i];
      record.background = copy.intern(reference.backgrounds[i]);
      copy.add(record);
    }
    expect_reads(copy, reference, shape, where + " (copy)");
  }
}

TEST(DiagnosisLog, WordEntriesKeepSerialRunsInLimbOrder) {
  DiagnosisLog log;
  DiagnosisEvent event;
  event.cycle_base = 100;
  event.serial = true;
  const std::uint32_t serial = log.intern(event);
  event.visit = 1;
  const std::uint32_t other_visit = log.intern(event);
  event.serial = false;
  const std::uint32_t parallel = log.intern(event);
  event.cycle_base = 200;
  event.serial = true;
  const std::uint32_t later = log.intern(event);

  log.add_word(3, 5, 1, 0b100, serial);
  // The run at base 100 goes on: no lower limb, whichever event.
  EXPECT_THROW(log.add_word(2, 5, 0, 1, other_visit), std::invalid_argument);
  log.add_word(2, 5, 1, 0b101, other_visit);
  log.add_word(2, 5, 2, 1, serial);
  // A parallel entry or a new base starts afresh.
  log.add_word(2, 5, 0, 0b11, parallel);
  log.add_word(2, 5, 0, 1, later);
  EXPECT_THROW(log.add_word(2, 5, 3, 0, later), std::invalid_argument);
  EXPECT_THROW(log.add_word(2, 5, DiagnosisLog::kMaxLimbs, 1, later),
               std::invalid_argument);
  EXPECT_THROW(log.add_word(2, 5, 0, 1, 99), std::invalid_argument);

  // Clock order within the run at base 100: bit 64 (memory 2), bit 66
  // (memories 3 and 2, in entry order), then bit 128; the parallel entry
  // bits ascending; then base 200.
  std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>> got;
  for (const DiagnosisRecord record : log.records()) {
    got.emplace_back(record.memory_index, record.bit, record.cycle);
  }
  const std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>>
      want = {{2, 64, 164}, {3, 66, 166}, {2, 66, 166}, {2, 128, 228},
              {2, 0, 100},  {2, 1, 100},  {2, 0, 200}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(log.records().size(), want.size());
}

TEST(DiagnosisLog, SyndromesKeepExactlyTheMemoryCount) {
  // A log naming memory 2^32 - 1 (a decoded report can) folds into
  // memory_count syndromes, not 2^32 of them.
  DiagnosisLog log;
  DiagnosisEvent event;
  event.background = log.intern(BitVector::from_string("01"));
  const std::uint32_t id = log.intern(event);
  log.add_word(1, 2, 0, 0b10, id);
  log.add_word(kMax32, 0, 0, 0b1, id);
  for (const bool sealed : {false, true}) {
    if (sealed) log.seal();
    const auto syndromes = diagnosis::extract_syndromes(log, 3);
    ASSERT_EQ(syndromes.size(), 3u);
    for (std::size_t m = 0; m < syndromes.size(); ++m) {
      EXPECT_EQ(syndromes[m].memory_index, m);
      EXPECT_EQ(syndromes[m].cells.size(), m == 1 ? 1u : 0u)
          << "memory " << m;
    }
  }
}

TEST(DiagnosisLog, SealedLogHoldsEntriesCellsEventsAndNoIndex) {
  // The size bound stated in record.h: 24 B per entry (at most 1/8 spare),
  // 8 B per word, 32 B per event, 16 B per (word, limb) cell mask, the
  // background table, and no index.
  DiagnosisLog log;
  const std::uint32_t background =
      log.intern(BitVector::from_string("0101"));
  for (std::uint32_t read = 0; read < 2000; ++read) {
    DiagnosisEvent event;
    event.cycle_base = 100 + 140 * read;
    event.element = read;
    event.background = background;
    event.serial = true;
    const std::uint32_t id = log.intern(event);
    // A 72-bit word failing five bits, two of them past the first batch.
    const std::uint64_t low = std::uint64_t{0b111} << (read % 61);
    log.add_word(0, read % 256, 0, low, id);
    log.add_word(0, read % 256, 1, std::uint64_t{0b11} << (read % 7), id);
  }
  log.seal();
  ASSERT_TRUE(log.sealed());
  const auto& tables = log.tables();
  EXPECT_EQ(log.records().size(), 10'000u);
  EXPECT_EQ(tables.entries.size(), 4'000u);
  EXPECT_LE(tables.entries.capacity(), tables.entries.size() * 9 / 8);
  EXPECT_EQ(tables.words.size(), 256u);
  EXPECT_EQ(tables.words.capacity(), tables.words.size());
  EXPECT_EQ(tables.events.capacity(), tables.events.size());
  EXPECT_EQ(tables.events.size(), 2000u);
  EXPECT_EQ(tables.backgrounds.size(), 2u);  // the empty one and "0101"
  EXPECT_EQ(log.faulty_rows(0).size(), 256u);
}

}  // namespace
}  // namespace fastdiag::bisd
