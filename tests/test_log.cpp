// The diagnosis log's tables against a plain record vector: seeded logs
// built through both entry points (the generic add(record) and a scheme's
// add(memory, cell, event)) must read back, before and after sealing and
// through an "FDRP" round trip, exactly as the records they were fed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
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

/// One seeded trial's shape.
struct Shape {
  std::vector<std::uint32_t> memories;
  bool monotone_cycles = true;  ///< scheme-like non-decreasing event bases
  std::size_t records = 0;
  std::size_t backgrounds = 0;
};

class LogBuilder {
 public:
  LogBuilder(Rng& rng, const Shape& shape) : rng_(rng), shape_(shape) {
    // Dense slot tables for some memories: one small geometry that random
    // cells overflow (so its cells move to the map), one that holds them.
    for (const std::uint32_t memory : shape.memories) {
      if (rng_.bernoulli(0.6)) {
        const bool tight = rng_.bernoulli(0.3);
        log_.index_memory(memory, tight ? 8 : 64, tight ? 4 : 40);
      }
    }
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

  /// Appends one record through a random entry point.
  void add_one(std::uint64_t& clock) {
    const std::uint32_t memory =
        shape_.memories[rng_.uniform(shape_.memories.size())];
    const auto coordinate = [&](std::uint64_t span) {
      return rng_.bernoulli(0.05)
                 ? kMax32
                 : static_cast<std::uint32_t>(rng_.uniform(span));
    };
    const std::uint32_t addr = coordinate(80);
    const std::uint32_t bit = coordinate(48);
    const std::size_t content = rng_.uniform(contents_.size());
    const std::uint32_t background = log_.intern(contents_[content]);
    if (shape_.monotone_cycles) {
      clock += rng_.uniform(3);
    } else {
      clock = rng_.uniform(1000);
    }
    DiagnosisRecord record;
    record.memory_index = memory;
    record.addr = addr;
    record.bit = bit;
    record.phase = static_cast<std::uint32_t>(rng_.uniform(4));
    record.element = rng_.bernoulli(0.02) ? kMax32
                                          : static_cast<std::uint32_t>(
                                                rng_.uniform(6));
    record.op = static_cast<std::uint32_t>(rng_.uniform(3));
    record.visit = static_cast<std::uint32_t>(rng_.uniform(3));
    record.background = background;
    if (rng_.bernoulli(0.5)) {
      record.cycle = clock;
      log_.add(record);
    } else {
      // A scheme's event: a serial one registers bit b at base + b, and a
      // base below the bit wraps (cycle < bit in the record).
      DiagnosisEvent event;
      event.phase = record.phase;
      event.element = record.element;
      event.op = record.op;
      event.visit = record.visit;
      event.background = background;
      event.serial = rng_.bernoulli(0.7);
      event.cycle_base =
          event.serial && rng_.bernoulli(0.1) ? clock - 3 * bit : clock;
      record.cycle = event.cycle(bit);
      log_.add(memory, {addr, bit}, log_.intern(event));
    }
    reference_.records.push_back(record);
    reference_.backgrounds.push_back(contents_[content]);
  }

  /// Logs @p count fresh non-empty backgrounds, one serial event each, on
  /// memory 0 — a log whose background table outgrows everything else.
  void add_backgrounds(std::uint64_t& clock, std::uint32_t count) {
    for (std::uint32_t b = 1; b <= count; ++b) {
      const BitVector content = BitVector::from_value(
          70 + b % 10, (b * 0xC2B2AE3D27D4EB4Full) &
                           ((std::uint64_t{1} << 60) - 1));
      DiagnosisEvent event;
      event.cycle_base = ++clock;
      event.background = log_.intern(content);
      event.serial = true;
      log_.add(0, {b, 1}, log_.intern(event));
      DiagnosisRecord record;
      record.addr = b;
      record.bit = 1;
      record.cycle = clock + 1;
      reference_.records.push_back(record);
      reference_.backgrounds.push_back(content);
    }
  }

  DiagnosisLog& log() { return log_; }
  const Reference& reference() const { return reference_; }

 private:
  Rng& rng_;
  const Shape& shape_;
  std::vector<BitVector> contents_;
  DiagnosisLog log_;
  Reference reference_;
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
    const DiagnosisRecord indexed = view[i];
    EXPECT_EQ(std::tie(indexed.cycle, indexed.memory_index, indexed.addr,
                       indexed.bit, indexed.background),
              std::tie(got.cycle, got.memory_index, got.addr, got.bit,
                       got.background))
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
  for (int trial = 0; trial < 32; ++trial) {
    Shape shape;
    // Odd trials add memory indices no dense table may cover, past the
    // syndrome fold's memory count too.
    shape.memories = trial % 2 == 0
                         ? std::vector<std::uint32_t>{0, 1, 7}
                         : std::vector<std::uint32_t>{0, 7, 70000, kMax32};
    shape.monotone_cycles = trial % 4 < 2;
    shape.records = trial == 0 ? 0 : rng.uniform_in(1, 3000);
    shape.backgrounds = trial == 5 ? 12'000 : 1 + rng.uniform(20);
    const std::string where = "trial " + std::to_string(trial);

    LogBuilder builder(rng, shape);
    std::uint64_t clock = rng.uniform(1'000'000);
    const std::size_t split = shape.records / 2;
    for (std::size_t i = 0; i < split; ++i) builder.add_one(clock);
    // A copy taken mid-build carries no insertion index; it goes on below
    // through one rebuilt from its tables.
    DiagnosisLog copy = builder.log();
    for (std::size_t i = split; i < shape.records; ++i) builder.add_one(clock);
    if (trial == 5) {
      builder.add_backgrounds(clock, 12'000);  // each logged twice
      builder.add_backgrounds(clock, 12'000);
    }
    DiagnosisLog& log = builder.log();
    const Reference& reference = builder.reference();

    expect_reads(log, reference, shape, where + " (unsealed)");
    const auto unsealed_bytes = encode_log(log);
    expect_syndromes(log, reference, where);

    log.seal();
    ASSERT_TRUE(log.sealed()) << where;
    expect_reads(log, reference, shape, where + " (sealed)");
    expect_syndromes(log, reference, where + " (sealed)");
    log.seal();  // idempotent

    // v3 round trip: byte-identical, and the decoded log is sealed.
    const auto bytes = encode_log(log);
    EXPECT_EQ(bytes, unsealed_bytes) << where;
    const auto decoded = service::decode_report(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.has_value()) << where << ": "
                                     << decoded.error().message;
    EXPECT_TRUE(decoded.value().result.log.sealed()) << where;
    EXPECT_EQ(service::encode_report(decoded.value()), bytes) << where;
    expect_reads(decoded.value().result.log, reference, shape,
                 where + " (decoded)");

    // The copy takes the rest of the records through the generic add.
    for (std::size_t i = split; i < reference.records.size(); ++i) {
      DiagnosisRecord record = reference.records[i];
      record.background = copy.intern(reference.backgrounds[i]);
      copy.add(record);
    }
    expect_reads(copy, reference, shape, where + " (copy)");
  }
}

TEST(DiagnosisLog, SyndromesKeepExactlyTheMemoryCount) {
  // A log naming memory 2^32 - 1 (a decoded report can) folds into
  // memory_count syndromes, not 2^32 of them.
  DiagnosisLog log;
  DiagnosisEvent event;
  event.background = log.intern(BitVector::from_string("01"));
  const std::uint32_t id = log.intern(event);
  log.add(1, {2, 1}, id);
  log.add(kMax32, {0, 0}, id);
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
  // The size bound stated in record.h: 8 B per record (at most 1/8 spare),
  // 12 B per cell, 32 B per event, the background table, and no index.
  DiagnosisLog log;
  log.index_memory(0, 256, 32);
  const std::uint32_t background =
      log.intern(BitVector::from_string("0101"));
  for (std::uint32_t read = 0; read < 2000; ++read) {
    DiagnosisEvent event;
    event.cycle_base = 100 + 40 * read;
    event.element = read;
    event.background = background;
    event.serial = true;
    const std::uint32_t id = log.intern(event);
    for (std::uint32_t bit = 0; bit < 5; ++bit) {
      log.add(0, {read % 256, (read + bit) % 32}, id);
    }
  }
  log.seal();
  ASSERT_TRUE(log.sealed());
  const auto& tables = log.tables();
  EXPECT_EQ(tables.entries.size(), 10'000u);
  EXPECT_LE(tables.entries.capacity(), tables.entries.size() * 9 / 8);
  EXPECT_EQ(tables.cells.capacity(), tables.cells.size());
  EXPECT_EQ(tables.events.capacity(), tables.events.size());
  EXPECT_EQ(tables.events.size(), 2000u);
  EXPECT_EQ(tables.backgrounds.size(), 2u);  // the empty one and "0101"
}

}  // namespace
}  // namespace fastdiag::bisd
