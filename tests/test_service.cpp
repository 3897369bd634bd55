// Tests for the fleet service layer: binary serialization round-trips
// (byte-identical re-encode), rejection of truncated/corrupt blobs,
// classifier-cache save/reload with zero probe replays, checkpointed
// sweeps that survive a kill bit-identically, and the framed job-server
// protocol over an in-process pipe pair.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "core/fastdiag.h"
#include "service/checkpoint.h"
#include "service/protocol.h"
#include "service/serialize.h"
#include "service/server.h"

namespace fastdiag::service {
namespace {

sram::SramConfig small(const std::string& name, std::uint32_t words,
                       std::uint32_t bits, std::uint32_t spares = 8) {
  sram::SramConfig config;
  config.name = name;
  config.words = words;
  config.bits = bits;
  config.spare_rows = spares;
  return config;
}

core::SessionSpec demo_spec(std::uint64_t seed = 7, bool classify = true,
                            bool repair = true) {
  auto spec = core::SessionSpec::builder()
                  .add_sram(small("a", 48, 12))
                  .add_sram(small("b", 32, 8))
                  .defect_rate(0.02)
                  .seed(seed)
                  .classify(classify)
                  .with_repair(repair)
                  .build();
  EXPECT_TRUE(spec.has_value());
  return std::move(spec).value();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "fastdiag_" + name + "." +
         std::to_string(::getpid());
}

// Byte-at-a-time str encoding: GCC's optimizer flags ByteWriter::str's
// range-insert of short literals with a false-positive -Wstringop-overflow
// under -O3 -Werror, so these test helpers stick to push_back growth.
[[gnu::noinline]] std::vector<std::uint8_t> str_payload(
    const std::string& text) {
  ByteWriter writer;
  writer.u32(static_cast<std::uint32_t>(text.size()));
  for (const char c : text) {
    writer.u8(static_cast<std::uint8_t>(c));
  }
  return std::move(writer).take();
}

/// @p report with its @p old_bytes of log section at @p at replaced by
/// @p section.  Out of line for the same -O3 false positive as above.
[[gnu::noinline]] std::vector<std::uint8_t> splice_log(
    const std::vector<std::uint8_t>& report, std::size_t at,
    std::size_t old_bytes, const ByteWriter& section) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(report.size() + section.size());
  for (std::size_t i = 0; i < at; ++i) bytes.push_back(report[i]);
  for (const std::uint8_t byte : section.data()) bytes.push_back(byte);
  for (std::size_t i = at + old_bytes; i < report.size(); ++i) {
    bytes.push_back(report[i]);
  }
  return bytes;
}

[[gnu::noinline]] std::vector<std::uint8_t> evil_march_bytes(
    std::uint64_t width) {
  ByteWriter writer;
  writer.u32(4);  // MarchTest name: "evil"
  for (const char c : {'e', 'v', 'i', 'l'}) {
    writer.u8(static_cast<std::uint8_t>(c));
  }
  writer.u64(1);      // one phase
  writer.u64(width);  // background bitvec width
  writer.u64(0);      // one limb's worth of trailing bytes
  return std::move(writer).take();
}

// ---- primitives -----------------------------------------------------------

TEST(Bytes, PrimitivesRoundTripLittleEndian) {
  ByteWriter writer;
  writer.u8(0xAB);
  writer.u32(0x01020304);
  writer.u64(0x1122334455667788ULL);
  writer.f64(-0.125);
  writer.boolean(true);
  writer.str("hello");

  // The wire image is fixed, independent of host endianness.
  ASSERT_EQ(writer.data()[1], 0x04);  // u32 low byte first
  ASSERT_EQ(writer.data()[2], 0x03);

  ByteReader reader(writer.data().data(), writer.size());
  EXPECT_EQ(reader.u8(), 0xAB);
  EXPECT_EQ(reader.u32(), 0x01020304u);
  EXPECT_EQ(reader.u64(), 0x1122334455667788ULL);
  EXPECT_EQ(reader.f64(), -0.125);
  EXPECT_TRUE(reader.boolean());
  EXPECT_EQ(reader.str(), "hello");
  EXPECT_TRUE(reader.finished());
}

TEST(Bytes, ReaderErrorsAreStickyAndBounded) {
  ByteWriter writer;
  writer.u32(5);
  ByteReader reader(writer.data().data(), writer.size());
  (void)reader.u64();  // short read
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.u32(), 0u);  // sticky: later reads yield zero
  EXPECT_FALSE(reader.finished());
}

TEST(Bytes, HostileCountsAndBoolsAreRejectedBeforeAllocation) {
  {
    ByteWriter writer;
    writer.u64(1ULL << 60);  // count that cannot fit the remaining bytes
    ByteReader reader(writer.data().data(), writer.size());
    EXPECT_EQ(reader.count(4), 0u);
    EXPECT_FALSE(reader.ok());
  }
  {
    ByteWriter writer;
    writer.u8(2);  // non-canonical bool
    ByteReader reader(writer.data().data(), writer.size());
    (void)reader.boolean();
    EXPECT_FALSE(reader.ok());
  }
  {
    ByteWriter writer;
    writer.u32(100);  // string length past the end
    ByteReader reader(writer.data().data(), writer.size());
    EXPECT_EQ(reader.str(), "");
    EXPECT_FALSE(reader.ok());
  }
}

// ---- embedded encoders ----------------------------------------------------

TEST(Serialize, MarchTestReencodesByteIdentical) {
  const auto test = bisd::FastScheme().classification_test(12);
  ASSERT_TRUE(test.has_value());
  ByteWriter first;
  encode_march_test(first, *test);

  ByteReader reader(first.data().data(), first.size());
  march::MarchTest decoded;
  ASSERT_TRUE(decode_march_test(reader, decoded));
  ASSERT_TRUE(reader.finished());
  EXPECT_EQ(decoded.to_string(), test->to_string());

  ByteWriter second;
  encode_march_test(second, decoded);
  EXPECT_EQ(first.data(), second.data());
}

TEST(Serialize, FoldedAggregateReencodesByteIdentical) {
  core::AggregateReport aggregate;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    aggregate.fold(core::DiagnosisEngine::execute(demo_spec(seed)));
  }
  ByteWriter first;
  encode_folded(first, aggregate.folded);

  ByteReader reader(first.data().data(), first.size());
  core::AggregateReport::Folded decoded;
  ASSERT_TRUE(decode_folded(reader, decoded));
  ASSERT_TRUE(reader.finished());
  EXPECT_EQ(decoded, aggregate.folded);

  ByteWriter second;
  encode_folded(second, decoded);
  EXPECT_EQ(first.data(), second.data());
}

// ---- reports --------------------------------------------------------------

TEST(Serialize, ReportRoundTripsByteIdentical) {
  const auto report = core::DiagnosisEngine::execute(demo_spec());
  ASSERT_TRUE(report.classification.has_value());
  ASSERT_TRUE(report.repair.has_value());

  const auto blob = encode_report(report);
  auto decoded = decode_report(blob.data(), blob.size());
  ASSERT_TRUE(decoded.has_value()) << decoded.error().message;

  EXPECT_EQ(decoded.value().scheme_name, report.scheme_name);
  EXPECT_EQ(decoded.value().seed, report.seed);
  EXPECT_EQ(decoded.value().total_ns, report.total_ns);
  EXPECT_EQ(decoded.value().injected_faults, report.injected_faults);
  EXPECT_EQ(decoded.value().result.log.to_csv(), report.result.log.to_csv());
  EXPECT_EQ(decoded.value().summary(), report.summary());

  EXPECT_EQ(encode_report(decoded.value()), blob);
}

TEST(Serialize, EveryTruncationOfAReportIsRejected) {
  const auto blob = encode_report(core::DiagnosisEngine::execute(demo_spec()));
  // Every strict prefix must fail cleanly (the format consumes the blob
  // exactly).  Dense coverage near the front, sampled beyond.
  for (std::size_t len = 0; len < blob.size();
       len += (len < 512 ? 1 : 97)) {
    const auto decoded = decode_report(blob.data(), len);
    EXPECT_FALSE(decoded.has_value()) << "prefix length " << len;
  }
}

TEST(Serialize, CorruptReportBytesNeverCrashTheDecoder) {
  const auto blob = encode_report(core::DiagnosisEngine::execute(demo_spec()));
  // Deterministically flip bytes across the blob; each decode must either
  // fail with a DecodeError or produce a value — no UB either way (the
  // sanitizer job runs this same test under ASan+UBSan).
  for (std::size_t i = 0; i < 128; ++i) {
    auto corrupt = blob;
    const std::size_t at = (i * 2654435761u) % corrupt.size();
    corrupt[at] ^= 0x5A;
    const auto decoded = decode_report(corrupt.data(), corrupt.size());
    if (decoded.has_value()) {
      // The decoder accepts only canonical bytes, so whatever it accepts
      // re-encodes to exactly those bytes.
      EXPECT_EQ(encode_report(decoded.value()), corrupt) << "flip at " << at;
    }
  }
}

TEST(Serialize, WrongMagicAndVersionAreRejectedUpFront) {
  auto blob = encode_report(core::DiagnosisEngine::execute(demo_spec()));
  auto bad_magic = blob;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(decode_report(bad_magic.data(), bad_magic.size()).has_value());

  auto bad_version = blob;
  bad_version[4] = 0xEE;
  const auto decoded = decode_report(bad_version.data(), bad_version.size());
  ASSERT_FALSE(decoded.has_value());
  EXPECT_NE(decoded.error().message.find("version"), std::string::npos);
}

TEST(Serialize, OverflowingBitvecWidthIsRejectedNotWrapped) {
  // A march phase's background bitvec leads with a u64 width.  Widths in
  // [2^64-63, 2^64-1] used to wrap the word-count computation to zero,
  // bypassing the payload and canonical-mask checks and building a
  // BitVector whose width outruns its (empty) limbs — OOB on first get().
  for (const std::uint64_t width :
       {~0ULL, ~0ULL - 62, 0x8000000000000000ULL, 1ULL << 40}) {
    const auto blob = evil_march_bytes(width);
    ByteReader reader(blob.data(), blob.size());
    march::MarchTest test;
    EXPECT_FALSE(decode_march_test(reader, test)) << "width " << width;
    EXPECT_FALSE(reader.ok());
  }
}

TEST(Serialize, OverWideLogRecordFieldsAreDecodeErrors) {
  // The log holds memory, addr, limb, phase, element, op, visit and every
  // table id in 32 bits and v4 writes them as varints, so a wider value
  // must fail, never truncate.  A one-record log section is written by
  // hand between the header and the tail of an empty report's blob.
  const auto empty = encode_report(core::Report{});
  // Magic, version, two empty strings, seed, defect rate, iterations,
  // cycles and pause precede the log; an empty log is four zero counts.
  constexpr std::size_t kLog = 4 + 4 + 4 + 4 + 8 * 5;
  ASSERT_EQ(std::vector<std::uint8_t>(empty.begin() + kLog,
                                      empty.begin() + kLog + 4),
            std::vector<std::uint8_t>(4, 0));
  enum Field { kPhase, kElement, kOp, kVisit, kBackground, kMemory, kAddr,
               kWordId, kEventId, kLimb, kNone };
  const auto blob = [&](Field wide, std::uint64_t value) {
    const auto field = [&](Field f, std::uint64_t normal) {
      return f == wide ? value : normal;
    };
    ByteWriter log;
    log.varint(1);  // one non-empty background: 4 bits in one limb
    log.u64(4);
    log.u64(0b0110);
    log.varint(1);  // one event
    log.varint(field(kPhase, 0));
    log.varint(field(kElement, 0));
    log.varint(field(kOp, 0));
    log.varint(field(kVisit, 0));
    log.varint(field(kBackground, 1));
    log.u8(1);  // serial
    log.varint(100);  // cycle base
    log.varint(1);  // one memory with one word
    log.varint(field(kMemory, 5));
    log.varint(1);
    log.varint(field(kAddr, 3));
    log.varint(1);  // one entry: bit 2 of the first batch
    log.varint(field(kWordId, 0));
    log.varint(field(kEventId, 0));
    log.varint(field(kLimb, 0));
    log.varint(0b100);
    return splice_log(empty, kLog, 4, log);
  };
  const auto plain = blob(kNone, 0);
  const auto decoded = decode_report(plain.data(), plain.size());
  ASSERT_TRUE(decoded.has_value()) << decoded.error().message;
  EXPECT_EQ(encode_report(decoded.value()), plain);
  EXPECT_EQ((*decoded.value().result.log.records().begin()).cycle, 102u);

  for (int f = kPhase; f < kNone; ++f) {
    const auto field = static_cast<Field>(f);
    // Ids past their table, and a limb whose bits pass 2^32, are not
    // canonical even when they fit 32 bits.
    if (field != kBackground && field != kWordId && field != kEventId &&
        field != kLimb) {
      // The widest 32-bit value fits every coordinate and March index.
      const auto widest = blob(field, 0xFFFFFFFFull);
      const auto fits = decode_report(widest.data(), widest.size());
      ASSERT_TRUE(fits.has_value()) << "field " << f << ": "
                                    << fits.error().message;
      EXPECT_EQ(encode_report(fits.value()), widest) << "field " << f;
    }
    const auto over = blob(field, 0x100000000ull);
    const auto rejected = decode_report(over.data(), over.size());
    ASSERT_FALSE(rejected.has_value()) << "field " << f;
    EXPECT_NE(rejected.error().message.find("32 bits"), std::string::npos)
        << "field " << f << ": " << rejected.error().message;
  }
}

TEST(Serialize, NonCanonicalLogsAreDecodeErrors) {
  // Two records of one cell in one read: the canonical tables are one
  // background, one event, one word and two entries.  The repeats and the
  // overlong varint decode to the same records through different bytes, so
  // they are refused, and so are an empty mask and a serial read whose
  // limbs go backwards.
  core::Report report;
  auto& log = report.result.log;
  bisd::DiagnosisEvent event;
  event.background = log.intern(BitVector::from_string("0110"));
  event.serial = true;
  const std::uint32_t id = log.intern(event);
  log.add_word(5, 3, 0, 0b100, id);
  log.add_word(5, 3, 0, 0b100, id);
  const auto canonical = encode_report(report);
  ASSERT_TRUE(decode_report(canonical.data(), canonical.size()).has_value());

  // The canonical section: counts, one background, one event, one memory
  // with one word, two entries.
  constexpr std::size_t kLog = 4 + 4 + 4 + 4 + 8 * 5;
  constexpr std::size_t kLogBytes = 1 + 16 + 1 + 7 + 1 + 2 + 1 + 1 + 8;
  struct Variant {
    const char* what;
    int events;          ///< event rows (a repeat of the first)
    int backgrounds;     ///< background rows (a repeat of the first)
    int words;           ///< word rows (a repeat of the first)
    bool overlong;       ///< the cycle base as a two-byte zero varint
    std::uint64_t mask;  ///< the second entry's mask
    std::uint64_t limb;  ///< the first entry's limb
  };
  for (const Variant variant :
       {Variant{"canonical", 1, 1, 1, false, 0b100, 0},
        Variant{"repeated event", 2, 1, 1, false, 0b100, 0},
        Variant{"repeated background", 1, 2, 1, false, 0b100, 0},
        Variant{"repeated word", 1, 1, 2, false, 0b100, 0},
        Variant{"overlong varint", 1, 1, 1, true, 0b100, 0},
        Variant{"empty mask", 1, 1, 1, false, 0, 0},
        Variant{"limbs going backwards", 1, 1, 1, false, 0b100, 1}}) {
    ByteWriter section;
    section.varint(variant.backgrounds);
    for (int b = 0; b < variant.backgrounds; ++b) {
      section.u64(4);
      section.u64(0b0110);
    }
    section.varint(variant.events);
    for (int e = 0; e < variant.events; ++e) {
      for (const std::uint64_t field : {0, 0, 0, 0, 1}) section.varint(field);
      section.u8(1);
      if (variant.overlong) {
        section.u8(0x80);
        section.u8(0x00);
      } else {
        section.varint(0);
      }
    }
    section.varint(1);
    section.varint(5);
    section.varint(variant.words);
    for (int w = 0; w < variant.words; ++w) {
      section.varint(3);
    }
    section.varint(2);
    // The second entry names the repeated row when there is one.
    for (const std::uint64_t field : {std::uint64_t{0}, std::uint64_t{0},
                                      variant.limb, std::uint64_t{0b100}}) {
      section.varint(field);
    }
    section.varint(variant.words - 1);
    section.varint(variant.events - 1);
    section.varint(0);
    section.varint(variant.mask);
    const auto bytes = splice_log(canonical, kLog, kLogBytes, section);
    const auto decoded = decode_report(bytes.data(), bytes.size());
    if (std::string(variant.what) == "canonical") {
      EXPECT_EQ(bytes, canonical);
      EXPECT_TRUE(decoded.has_value());
    } else {
      EXPECT_FALSE(decoded.has_value()) << variant.what;
    }
  }
}

TEST(Serialize, ManyDistinctBackgroundsRoundTripByteIdentical) {
  // 10k distinct backgrounds, each logged twice: the table holds each one
  // once, so shared backgrounds stay shared and the bytes re-encode exactly.
  constexpr std::size_t kDistinct = 10'000;
  core::Report report;
  auto& log = report.result.log;
  for (std::size_t pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < kDistinct; ++i) {
      bisd::DiagnosisRecord record;
      record.memory_index = static_cast<std::uint32_t>(i % 7);
      record.addr = static_cast<std::uint32_t>(i);
      record.cycle = pass * kDistinct + i;
      // Widths 60..69 straddle a limb boundary.
      record.background = log.intern(BitVector::from_value(
          60 + i % 10, (i * 0x9E3779B97F4A7C15ull) & ((1ull << 60) - 1)));
      log.add(record);
    }
  }
  const auto blob = encode_report(report);
  const auto decoded = decode_report(blob.data(), blob.size());
  ASSERT_TRUE(decoded.has_value()) << decoded.error().message;
  EXPECT_EQ(encode_report(decoded.value()), blob);
  EXPECT_EQ(decoded.value().result.log.to_csv(), log.to_csv());
  const auto view = decoded.value().result.log.records();
  const std::vector<bisd::DiagnosisRecord> records(view.begin(), view.end());
  ASSERT_EQ(records.size(), 2 * kDistinct);
  for (std::size_t i = 0; i < kDistinct; ++i) {
    ASSERT_EQ(records[i].background, records[kDistinct + i].background) << i;
  }
  EXPECT_NE(records[0].background, records[1].background);
}

TEST(Serialize, FleetReportFitsInOneMegabyte) {
  // The paper's operating point, as perfbench's fleet_1pct runs it: 64
  // SRAMs of four depths (three wrap the 256-step sweep), 1 % defects plus
  // DRFs: ~500k records in ~38k entries over ~2.4k words.
  auto builder = core::SessionSpec::builder();
  int n = 0;
  for (const auto& [words, bits] :
       {std::pair{256u, 18u}, {128u, 40u}, {192u, 24u}, {224u, 72u}}) {
    for (int k = 0; k < 16; ++k) {
      builder.add_sram(small("fleet" + std::to_string(n++), words, bits, 2));
    }
  }
  const auto spec = builder.defect_rate(0.01)
                        .include_retention_faults(true)
                        .scheme("fast")
                        .seed(1)
                        .build();
  ASSERT_TRUE(spec.has_value());
  const auto report = core::DiagnosisEngine::execute(spec.value());
  const auto& log = report.result.log;
  ASSERT_GT(log.records().size(), 400'000u);

  // At rest the log is sealed, so it holds no insertion index: 24 B per
  // entry (at most 1/8 spare), 8 B per word, 32 B per event, and the
  // tables stay under 2.5 MB, half of what a per-bit log held.
  ASSERT_TRUE(log.sealed());
  const auto& tables = log.tables();
  EXPECT_LE(tables.entries.capacity(), tables.entries.size() * 9 / 8);
  EXPECT_EQ(tables.words.capacity(), tables.words.size());
  EXPECT_EQ(tables.events.capacity(), tables.events.size());
  std::size_t table_bytes =
      tables.entries.capacity() * sizeof(bisd::LogEntry) +
      tables.words.capacity() * sizeof(bisd::LoggedWord) +
      tables.events.capacity() * sizeof(bisd::DiagnosisEvent) +
      tables.backgrounds.capacity() * sizeof(BitVector);
  for (const BitVector& background : tables.backgrounds) {
    table_bytes += background.word_count() * sizeof(std::uint64_t);
  }
  EXPECT_LE(table_bytes, std::size_t{5} << 19);

  const auto start = std::chrono::steady_clock::now();
  const auto blob = encode_report(report);
  const auto encoded = std::chrono::steady_clock::now();
  const auto decoded = decode_report(blob.data(), blob.size());
  const auto finished = std::chrono::steady_clock::now();
  EXPECT_LE(blob.size(), std::size_t{1} << 20);
  ASSERT_TRUE(decoded.has_value()) << decoded.error().message;
  EXPECT_EQ(encode_report(decoded.value()), blob);
  // Reported, not gated: wall time depends on the host and build type.
  const auto ms = [](auto from, auto to) {
    return std::chrono::duration<double, std::milli>(to - from).count();
  };
  RecordProperty("report_bytes", std::to_string(blob.size()));
  RecordProperty("encode_ms", std::to_string(ms(start, encoded)));
  RecordProperty("decode_ms", std::to_string(ms(encoded, finished)));
}

// ---- report fuzz ----------------------------------------------------------

/// FASTDIAG_REPORT_FUZZ=1 is the long mode (CI's sanitizer job): every
/// byte of each report flipped under three masks and every truncation.
/// Its cases are named *Long, so a PASSED count shows the knob was read.
bool long_fuzz() {
  const char* env = std::getenv("FASTDIAG_REPORT_FUZZ");
  return env != nullptr && env[0] == '1';
}

/// Mixed depths and widths, three of them wrapping and one wider than a
/// 64-bit batch, under the fast scheme.
core::SessionSpec mixed_soc_spec() {
  auto spec = core::SessionSpec::builder()
                  .add_sram(small("m0", 32, 8))
                  .add_sram(small("m1", 24, 8))
                  .add_sram(small("m2", 16, 12))
                  .add_sram(small("m3", 32, 16))
                  .add_sram(small("m4", 16, 72))
                  .defect_rate(0.03)
                  .include_retention_faults(true)
                  .seed(11)
                  .build();
  EXPECT_TRUE(spec.has_value());
  return std::move(spec).value();
}

/// periodic_scan with ECC: non-serial events and check-column bits.
core::SessionSpec in_field_spec() {
  faults::SoftErrorSpec soft;
  soft.enabled = true;
  soft.mean_upset_gap_ns = 4'000;
  soft.duration_ns = 200'000;
  soft.scan_period_ns = 10'000;
  soft.intermittent_fraction = 0.2;
  soft.ecc = true;
  auto spec = core::SessionSpec::builder()
                  .add_sram(small("f0", 64, 16))
                  .add_sram(small("f1", 48, 12))
                  .scheme("periodic_scan")
                  .soft_error(soft)
                  .seed(5)
                  .build();
  EXPECT_TRUE(spec.has_value());
  return std::move(spec).value();
}

core::SessionSpec classified_spec() { return demo_spec(7, true, true); }

struct FuzzCase {
  const char* name;
  core::SessionSpec (*spec)();
};

class ReportFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(ReportFuzz, CorruptBytesDecodeCanonicallyOrFail) {
  const auto report = core::DiagnosisEngine::execute(GetParam().spec());
  ASSERT_FALSE(report.result.log.empty());
  const auto blob = encode_report(report);
  ASSERT_TRUE(decode_report(blob.data(), blob.size()).has_value());
  RecordProperty("report_bytes", std::to_string(blob.size()));
  const bool exhaustive = long_fuzz();
  // Every strict prefix fails cleanly: the format consumes the blob exactly.
  const std::size_t step =
      exhaustive ? 1 : std::max<std::size_t>(1, blob.size() / 300);
  for (std::size_t length = 0; length < blob.size(); length += step) {
    EXPECT_FALSE(decode_report(blob.data(), length).has_value())
        << "prefix length " << length;
  }
  // A flipped byte either fails or decodes to a report that re-encodes to
  // exactly the flipped bytes; never UB (the sanitizer job runs this).
  constexpr std::uint8_t kMasks[3] = {0x01, 0x5A, 0x80};
  const std::size_t flips = exhaustive ? 3 * blob.size() : 384;
  std::size_t decodable = 0;
  for (std::size_t i = 0; i < flips; ++i) {
    auto corrupt = blob;
    const std::size_t at =
        exhaustive ? i / 3 : (i * 2654435761u) % corrupt.size();
    corrupt[at] ^= kMasks[i % 3];
    const auto decoded = decode_report(corrupt.data(), corrupt.size());
    if (decoded.has_value()) {
      ++decodable;
      EXPECT_EQ(encode_report(decoded.value()), corrupt)
          << "flip " << int{kMasks[i % 3]} << " at " << at;
    }
  }
  RecordProperty("decodable_flips", std::to_string(decodable));
}

INSTANTIATE_TEST_SUITE_P(
    Reports, ReportFuzz,
    ::testing::Values(FuzzCase{"MixedSoc", mixed_soc_spec},
                      FuzzCase{"InField", in_field_spec},
                      FuzzCase{"Classified", classified_spec}),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      return std::string(info.param.name) + (long_fuzz() ? "Long" : "");
    });

// ---- classifier cache -----------------------------------------------------

TEST(CacheSerialize, ReloadedCacheServesWithZeroProbeReplays) {
  diagnosis::ClassifierCache warm;
  const auto spec = demo_spec(5, /*classify=*/true, /*repair=*/false);
  const auto original = core::DiagnosisEngine::execute(
      spec, core::SchemeRegistry::global(), &warm);
  ASSERT_GT(warm.size(), 0u);
  // The default instance_sliced mode absorbs cell-dictionary replays into
  // slab lanes; row dictionaries still replay individually.
  ASSERT_GT(warm.stats().probe_replays + warm.stats().slab_lanes, 0u);

  const auto blob = encode_classifier_cache(warm);
  diagnosis::ClassifierCache fresh;
  const auto imported = decode_classifier_cache(blob.data(), blob.size(), fresh);
  ASSERT_TRUE(imported.has_value()) << imported.error().message;
  EXPECT_EQ(imported.value(), warm.size());
  EXPECT_EQ(fresh.size(), warm.size());

  // The imported dictionaries were never rebuilt here...
  EXPECT_EQ(fresh.stats().probe_replays, 0u);
  EXPECT_EQ(fresh.stats().slab_lanes, 0u);

  // ...yet the same job classifies identically through the fresh cache,
  // still without a single replay.
  const auto replayed = core::DiagnosisEngine::execute(
      spec, core::SchemeRegistry::global(), &fresh);
  EXPECT_EQ(encode_report(replayed), encode_report(original));
  EXPECT_EQ(fresh.stats().probe_replays, 0u);
  EXPECT_EQ(fresh.stats().slab_lanes, 0u);
  EXPECT_EQ(fresh.stats().misses, 0u);

  // Re-encoding the reloaded cache reproduces the blob byte for byte.
  EXPECT_EQ(encode_classifier_cache(fresh), blob);
}

TEST(CacheSerialize, CorruptCacheBlobLeavesTheTargetUntouched) {
  diagnosis::ClassifierCache warm;
  (void)core::DiagnosisEngine::execute(
      demo_spec(5, true, false), core::SchemeRegistry::global(), &warm);
  auto blob = encode_classifier_cache(warm);

  diagnosis::ClassifierCache target;
  auto truncated = blob;
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(
      decode_classifier_cache(truncated.data(), truncated.size(), target)
          .has_value());
  EXPECT_EQ(target.size(), 0u);  // all-or-nothing import
}

/// The fields of one hand-crafted "FDCC" entry that decode validates or
/// the classifier constructor checks; the defaults make a valid entry.
struct CraftedEntry {
  std::uint32_t bits = 8;  ///< memory width; the entry's test is 8 bits wide
  std::uint64_t retention_ns = sram::SramConfig{}.retention_ns;
  std::uint8_t build_mode = 2;
  std::uint32_t version = kCacheFormatVersion;
  std::uint32_t extra_mask_bits = 0;  ///< mask width beyond the universe
  /// One cell signature's mask limbs; empty writes no cell dictionary.
  std::vector<std::uint64_t> cell_mask_limbs{};
};

/// A one-entry "FDCC" blob, framed exactly as encode_classifier_cache
/// frames it, with empty dictionaries.
std::vector<std::uint8_t> crafted_cache(const CraftedEntry& entry) {
  ByteWriter writer;
  writer.u32(kCacheMagic);
  writer.u32(entry.version);
  writer.u64(1);
  auto config = small("crafted", 16, entry.bits);
  config.retention_ns = entry.retention_ns;
  encode_sram_config(writer, config);
  const auto test = march::march_cw(8);
  encode_march_test(writer, test);
  writer.u64(10);  // clock period
  writer.u32(0);   // global_words: no wrap, one visit per address
  writer.u8(entry.build_mode);
  const std::uint32_t universe = diagnosis::ReadUniverse(test, 1).size();
  writer.u32(universe + entry.extra_mask_bits);  // mask width
  writer.u64(entry.cell_mask_limbs.empty() ? 0 : 1);  // cell dictionaries
  if (!entry.cell_mask_limbs.empty()) {
    writer.u32(0);           // victim bit
    writer.u32(0x80000000);  // first-row position key
    writer.u64(1);           // one signature
    writer.u8(static_cast<std::uint8_t>(faults::FaultKind::sa0));
    writer.u8(0);  // no aggressor placement
    writer.u32(0);
    for (const std::uint64_t limb : entry.cell_mask_limbs) {
      writer.u64(limb);
    }
  }
  writer.u64(0);  // row dictionaries
  return std::move(writer).take();
}

void write_blob(const std::string& path,
                const std::vector<std::uint8_t>& blob) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  EXPECT_EQ(std::fwrite(blob.data(), 1, blob.size(), file), blob.size());
  std::fclose(file);
}

TEST(CacheSerialize, InvalidEntriesAreDecodeErrorsNotExceptions) {
  diagnosis::ClassifierCache target;
  const auto valid = crafted_cache({});
  ASSERT_TRUE(decode_classifier_cache(valid.data(), valid.size(), target)
                  .has_value());
  ASSERT_EQ(target.size(), 1u);

  const std::string path = temp_path("invalid_cache");
  const struct {
    const char* what;
    CraftedEntry entry;
  } cases[] = {
      {"memory wider than its test", {.bits = 9}},
      {"retention_ns 0", {.retention_ns = 0}},
  };
  for (const auto& c : cases) {
    const auto blob = crafted_cache(c.entry);
    const auto decoded =
        decode_classifier_cache(blob.data(), blob.size(), target);
    ASSERT_FALSE(decoded.has_value()) << c.what;
    EXPECT_EQ(decoded.error().message, "cache: invalid entry 0") << c.what;
    EXPECT_EQ(target.size(), 1u) << c.what;

    write_blob(path, blob);
    JobServer server;
    EXPECT_EQ(server.load_cache_file(path), -1) << c.what;
    EXPECT_EQ(server.cache().size(), 0u) << c.what;
  }
  std::remove(path.c_str());
}

TEST(CacheSerialize, RetiredBuildModeIsRejected) {
  // The build mode is one byte: per_candidate (0) and the default
  // instance_sliced (2) decode, the retired value 1 does not.
  for (const std::uint8_t mode : {0, 1, 2}) {
    diagnosis::ClassifierCache target;
    CraftedEntry entry;
    entry.build_mode = mode;
    const auto blob = crafted_cache(entry);
    const auto decoded =
        decode_classifier_cache(blob.data(), blob.size(), target);
    EXPECT_EQ(decoded.has_value(), mode != 1) << int{mode};
    EXPECT_EQ(target.size(), mode != 1 ? 1u : 0u) << int{mode};
  }
}

TEST(CacheSerialize, VersionsTwoAndThreeAreRejectedAndTheServerStartsCold) {
  // "FDCC" carries its own version: v2 blobs (ReadKey-vector signatures,
  // exact-row wrapped keys) and v3 blobs (options carrying the confidence
  // floor and the probe span) are a DecodeError naming the version, and a
  // server loading one keeps an empty cache.  "FDRP" is at 4 and "FDCK"
  // at 2.
  EXPECT_EQ(kCacheFormatVersion, 4u);
  EXPECT_EQ(kReportFormatVersion, 4u);
  EXPECT_EQ(kFormatVersion, 2u);
  for (const std::uint32_t version : {2u, 3u}) {
    CraftedEntry entry;
    entry.version = version;
    const auto blob = crafted_cache(entry);
    diagnosis::ClassifierCache target;
    const auto decoded =
        decode_classifier_cache(blob.data(), blob.size(), target);
    ASSERT_FALSE(decoded.has_value()) << version;
    EXPECT_EQ(decoded.error().message,
              "cache: unsupported version " + std::to_string(version));
    EXPECT_EQ(target.size(), 0u) << version;

    const std::string path = temp_path("old_cache");
    write_blob(path, blob);
    JobServer server;
    long imported = 0;
    EXPECT_NO_THROW(imported = server.load_cache_file(path)) << version;
    EXPECT_EQ(imported, -1) << version;
    EXPECT_EQ(server.cache().size(), 0u) << version;
    std::remove(path.c_str());
  }
}

TEST(CacheSerialize, MaskWiderThanItsUniverseIsADecodeError) {
  const std::uint32_t universe =
      diagnosis::ReadUniverse(march::march_cw(8), 1).size();
  const std::uint32_t limbs = (universe + 63) / 64;
  ASSERT_NE(universe % 64, 0u);  // the last limb has unused high bits

  // A one-signature cell dictionary at exactly the universe width decodes.
  CraftedEntry entry;
  entry.cell_mask_limbs.assign(limbs, 0);
  entry.cell_mask_limbs[0] = 0b101;
  auto blob = crafted_cache(entry);
  diagnosis::ClassifierCache target;
  ASSERT_TRUE(
      decode_classifier_cache(blob.data(), blob.size(), target).has_value());
  EXPECT_EQ(encode_classifier_cache(target), blob);

  // A wider mask width is rejected before any mask is read; a huge one
  // must not size an allocation either.
  for (const std::uint32_t extra : {1u, 64u, 0x7FFFFFFFu}) {
    entry.extra_mask_bits = extra;
    blob = crafted_cache(entry);
    diagnosis::ClassifierCache wide;
    const auto decoded =
        decode_classifier_cache(blob.data(), blob.size(), wide);
    ASSERT_FALSE(decoded.has_value()) << extra;
    EXPECT_EQ(decoded.error().message,
              "cache: entry 0 mask width " + std::to_string(universe + extra) +
                  " does not match its read universe of " +
                  std::to_string(universe) + " bits")
        << extra;
    EXPECT_EQ(wide.size(), 0u) << extra;
  }

  // A bit set past the universe inside the last limb is corrupt too.
  entry.extra_mask_bits = 0;
  entry.cell_mask_limbs.back() |= std::uint64_t{1} << 63;
  blob = crafted_cache(entry);
  diagnosis::ClassifierCache stray;
  const auto decoded =
      decode_classifier_cache(blob.data(), blob.size(), stray);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.error().message, "cache: corrupt entry 0");
  EXPECT_EQ(stray.size(), 0u);
}

// ---- checkpoint / resume --------------------------------------------------

core::SweepSpec demo_sweep() {
  core::SweepSpec sweep;
  sweep.base = core::SessionSpec::builder().add_sram(small("a", 32, 8));
  sweep.schemes = {"fast", "baseline"};
  sweep.defect_rates = {0.01, 0.03};
  sweep.seeds = {1, 2, 3};
  return sweep;
}

TEST(Checkpoint, EncodeDecodeRoundTripsByteIdentical) {
  core::AggregateReport aggregate;
  aggregate.fold(core::DiagnosisEngine::execute(demo_spec()));
  SweepCheckpoint checkpoint;
  checkpoint.fingerprint = sweep_fingerprint(demo_sweep());
  checkpoint.position = 1;
  checkpoint.folded = aggregate.folded;

  const auto blob = encode_checkpoint(checkpoint);
  const auto decoded = decode_checkpoint(blob.data(), blob.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded.value(), checkpoint);
  EXPECT_EQ(encode_checkpoint(decoded.value()), blob);

  // position != folded.count is an inconsistent image, not a valid resume.
  auto skewed = checkpoint;
  skewed.position = 2;
  const auto bad = encode_checkpoint(skewed);
  EXPECT_FALSE(decode_checkpoint(bad.data(), bad.size()).has_value());
}

TEST(Checkpoint, KilledAndResumedSweepIsBitIdenticalToUninterrupted) {
  const core::DiagnosisEngine engine({.workers = 2});
  const auto sweep = demo_sweep();
  const std::string path = temp_path("ckpt");

  CheckpointedSweepOptions uninterrupted;  // no path: no checkpointing
  const auto whole = run_sweep_with_checkpoints(engine, sweep, uninterrupted);
  ASSERT_TRUE(whole.has_value());
  ASSERT_TRUE(whole.value().finished);

  // "Kill" after 5 of 12 runs: stop_after caps the pull source the same
  // way a SIGKILL between chunks would.
  CheckpointedSweepOptions first;
  first.path = path;
  first.interval = 2;
  first.stop_after = 5;
  const auto killed = run_sweep_with_checkpoints(engine, sweep, first);
  ASSERT_TRUE(killed.has_value());
  EXPECT_FALSE(killed.value().finished);
  EXPECT_FALSE(killed.value().resumed);
  EXPECT_EQ(killed.value().completed, 5u);

  CheckpointedSweepOptions second;
  second.path = path;
  second.interval = 2;
  const auto resumed = run_sweep_with_checkpoints(engine, sweep, second);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_TRUE(resumed.value().resumed);
  EXPECT_TRUE(resumed.value().finished);
  EXPECT_EQ(resumed.value().completed, sweep.cardinality());

  // The acceptance bar: the resumed aggregate is bit-identical to the
  // uninterrupted one — same folded image, same encoded bytes.
  EXPECT_EQ(resumed.value().aggregate.folded, whole.value().aggregate.folded);
  ByteWriter a;
  encode_folded(a, resumed.value().aggregate.folded);
  ByteWriter b;
  encode_folded(b, whole.value().aggregate.folded);
  EXPECT_EQ(a.data(), b.data());
  std::remove(path.c_str());
}

TEST(Checkpoint, MismatchedOrCorruptCheckpointDegradesToFreshStart) {
  const core::DiagnosisEngine engine({.workers = 1});
  const std::string path = temp_path("ckpt_bad");

  // A checkpoint of a *different* sweep must not seed this one.
  auto other = demo_sweep();
  other.seeds = {9, 10};
  SweepCheckpoint foreign;
  foreign.fingerprint = sweep_fingerprint(other);
  ASSERT_TRUE(save_checkpoint_file(path, foreign));

  CheckpointedSweepOptions options;
  options.path = path;
  auto sweep = demo_sweep();
  sweep.schemes = {"fast"};
  sweep.seeds = {1};
  const auto result = run_sweep_with_checkpoints(engine, sweep, options);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result.value().resumed);
  EXPECT_TRUE(result.value().finished);

  // Corrupt file on disk: load fails soft, run starts fresh.
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  std::fputs("not a checkpoint", file);
  std::fclose(file);
  EXPECT_FALSE(load_checkpoint_file(path).has_value());
  const auto again = run_sweep_with_checkpoints(engine, sweep, options);
  ASSERT_TRUE(again.has_value());
  EXPECT_FALSE(again.value().resumed);
  std::remove(path.c_str());
}

// ---- merge associativity --------------------------------------------------

TEST(Folded, MergeIsAssociativeAndOrderInsensitive) {
  std::vector<core::Report> reports;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    reports.push_back(
        core::DiagnosisEngine::execute(demo_spec(seed, seed % 2 == 0)));
  }
  core::AggregateReport::Folded sequential;
  for (const auto& report : reports) {
    sequential.fold(report);
  }

  // (A + B) + C == A + (B + C) for an arbitrary split.
  core::AggregateReport::Folded a, b, c;
  a.fold(reports[0]);
  a.fold(reports[1]);
  b.fold(reports[2]);
  c.fold(reports[3]);
  c.fold(reports[4]);

  auto left = a;
  left.merge(b);
  left.merge(c);
  auto bc = b;
  bc.merge(c);
  auto right = a;
  right.merge(bc);
  EXPECT_EQ(left, right);
  EXPECT_EQ(left, sequential);
}

// ---- job server over a pipe pair ------------------------------------------

TEST(JobServer, ServesFramesOverPipesAndDrainsOnShutdown) {
  int to_server[2];
  int from_server[2];
  ASSERT_EQ(pipe(to_server), 0);
  ASSERT_EQ(pipe(from_server), 0);

  JobServer server;
  bool drained = false;
  std::thread worker([&] {
    drained = server.serve_connection(to_server[0], from_server[1]);
  });
  const int out = to_server[1];
  const int in = from_server[0];

  Frame response;
  ASSERT_TRUE(write_frame(out, MessageType::ping, std::string()));
  ASSERT_TRUE(read_frame(in, response));
  EXPECT_EQ(response.type, MessageType::ok);

  // A malformed job (no memories) is an error response, not a dead server.
  ASSERT_TRUE(write_frame(out, MessageType::submit_job,
                          encode_job_request(JobRequest{})));
  ASSERT_TRUE(read_frame(in, response));
  EXPECT_EQ(response.type, MessageType::error);

  JobRequest request;
  request.configs = {small("pipe", 32, 8)};
  request.classify = true;
  request.seed = 11;
  ASSERT_TRUE(write_frame(out, MessageType::submit_job,
                          encode_job_request(request)));
  ASSERT_TRUE(read_frame(in, response));
  ASSERT_EQ(response.type, MessageType::job_report);
  const auto report =
      decode_report(response.payload.data(), response.payload.size());
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report.value().seed, 11u);

  // The report a local execute produces is byte-identical to the served one.
  auto local_spec = request.to_spec();
  ASSERT_TRUE(local_spec.has_value());
  diagnosis::ClassifierCache cache;
  const auto local = core::DiagnosisEngine::execute(
      local_spec.value(), core::SchemeRegistry::global(), &cache);
  EXPECT_EQ(encode_report(local), response.payload);

  ASSERT_TRUE(write_frame(out, MessageType::get_stats, std::string()));
  ASSERT_TRUE(read_frame(in, response));
  EXPECT_EQ(response.type, MessageType::stats_json);
  const std::string stats(response.payload.begin(), response.payload.end());
  EXPECT_NE(stats.find("\"jobs_ok\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"jobs_failed\":1"), std::string::npos) << stats;

  ASSERT_TRUE(write_frame(out, MessageType::shutdown, std::string()));
  ASSERT_TRUE(read_frame(in, response));
  EXPECT_EQ(response.type, MessageType::ok);
  worker.join();
  EXPECT_TRUE(drained);
  EXPECT_TRUE(server.draining());

  for (int fd : {to_server[0], to_server[1], from_server[0], from_server[1]}) {
    close(fd);
  }
}

TEST(JobServer, ClientCachePathsAreConfinedToTheCacheDir) {
  ServerOptions options;
  options.cache_dir = ::testing::TempDir();
  JobServer server(options);
  int to_server[2];
  int from_server[2];
  ASSERT_EQ(pipe(to_server), 0);
  ASSERT_EQ(pipe(from_server), 0);
  std::thread worker(
      [&] { server.serve_connection(to_server[0], from_server[1]); });
  const int out = to_server[1];
  const int in = from_server[0];

  const auto request = [&](MessageType type, const std::string& name) {
    Frame response;
    EXPECT_TRUE(write_frame(out, type, str_payload(name)));
    EXPECT_TRUE(read_frame(in, response));
    return response.type;
  };

  // Traversal and absolute paths are refused before touching the fs.
  EXPECT_EQ(request(MessageType::save_cache, "../evil"), MessageType::error);
  EXPECT_EQ(request(MessageType::save_cache, "/tmp/evil"),
            MessageType::error);
  EXPECT_EQ(request(MessageType::load_cache, ".."), MessageType::error);
  // A well-framed file whose entry the classifier rejects is an error
  // frame; the connection keeps serving the requests below.
  const std::string invalid =
      "invalid." + std::to_string(::getpid()) + ".fdcc";
  CraftedEntry entry;
  entry.retention_ns = 0;
  write_blob(options.cache_dir + "/" + invalid, crafted_cache(entry));
  EXPECT_EQ(request(MessageType::load_cache, invalid), MessageType::error);
  std::remove((options.cache_dir + "/" + invalid).c_str());
  // A bare name lands inside the configured directory.
  const std::string name = "confined." + std::to_string(::getpid()) + ".fdcc";
  EXPECT_EQ(request(MessageType::save_cache, name), MessageType::ok);
  EXPECT_EQ(request(MessageType::load_cache, name), MessageType::stats_json);
  std::remove((options.cache_dir + "/" + name).c_str());

  Frame response;
  ASSERT_TRUE(write_frame(out, MessageType::shutdown, std::string()));
  ASSERT_TRUE(read_frame(in, response));
  worker.join();
  for (int fd : {to_server[0], to_server[1], from_server[0], from_server[1]}) {
    close(fd);
  }
}

TEST(JobServer, ClientCacheRequestsAreRefusedWithoutACacheDir) {
  // A default-constructed server has no cache dir: protocol-level cache
  // persistence is off entirely (the operator-facing *_file API remains).
  JobServer server;
  int to_server[2];
  int from_server[2];
  ASSERT_EQ(pipe(to_server), 0);
  ASSERT_EQ(pipe(from_server), 0);
  std::thread worker(
      [&] { server.serve_connection(to_server[0], from_server[1]); });
  Frame response;
  ASSERT_TRUE(write_frame(to_server[1], MessageType::save_cache,
                          str_payload("innocent.fdcc")));
  ASSERT_TRUE(read_frame(from_server[0], response));
  EXPECT_EQ(response.type, MessageType::error);
  ASSERT_TRUE(write_frame(to_server[1], MessageType::shutdown,
                          std::string()));
  ASSERT_TRUE(read_frame(from_server[0], response));
  worker.join();
  for (int fd : {to_server[0], to_server[1], from_server[0], from_server[1]}) {
    close(fd);
  }
}

TEST(JobServer, CacheFilesRoundTripThroughTheServer) {
  const std::string path = temp_path("server_cache");
  JobRequest request;
  request.configs = {small("svc", 32, 8)};
  request.classify = true;

  {
    JobServer server;
    auto spec = request.to_spec();
    ASSERT_TRUE(spec.has_value());
    // Warm the server cache directly through its public surface: one
    // served job via the pipe path would do the same.
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    int back[2];
    ASSERT_EQ(pipe(back), 0);
    std::thread worker([&] { server.serve_connection(fds[0], back[1]); });
    Frame response;
    ASSERT_TRUE(write_frame(fds[1], MessageType::submit_job,
                            encode_job_request(request)));
    ASSERT_TRUE(read_frame(back[0], response));
    ASSERT_EQ(response.type, MessageType::job_report);
    // get_stats reports the signature storage the job's builds produced.
    const auto bytes = server.cache().stats().dictionary_bytes;
    EXPECT_GT(bytes, 0u);
    EXPECT_NE(server.stats_json().find("\"dictionary_bytes\":" +
                                       std::to_string(bytes)),
              std::string::npos);
    ASSERT_TRUE(server.save_cache_file(path));
    ASSERT_TRUE(write_frame(fds[1], MessageType::shutdown, std::string()));
    ASSERT_TRUE(read_frame(back[0], response));
    worker.join();
    for (int fd : {fds[0], fds[1], back[0], back[1]}) {
      close(fd);
    }
  }

  JobServer reloaded;
  EXPECT_GT(reloaded.load_cache_file(path), 0);
  EXPECT_EQ(reloaded.cache().stats().probe_replays, 0u);
  EXPECT_EQ(reloaded.load_cache_file(path + ".missing"), -1);
  std::remove(path.c_str());
}

TEST(Protocol, MalformedFramesAreRejected) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  // Bad magic.
  ByteWriter writer;
  writer.u32(0xDEADBEEF);
  writer.u8(0);
  writer.u32(0);
  ASSERT_EQ(write(fds[1], writer.data().data(), writer.size()),
            static_cast<ssize_t>(writer.size()));
  Frame frame;
  EXPECT_FALSE(read_frame(fds[0], frame));
  close(fds[0]);
  close(fds[1]);

  // Oversized payload length.
  ASSERT_EQ(pipe(fds), 0);
  ByteWriter big;
  big.u32(kFrameMagic);
  big.u8(static_cast<std::uint8_t>(MessageType::ping));
  big.u32(kMaxFramePayload + 1);
  ASSERT_EQ(write(fds[1], big.data().data(), big.size()),
            static_cast<ssize_t>(big.size()));
  EXPECT_FALSE(read_frame(fds[0], frame));
  close(fds[0]);
  close(fds[1]);

  JobRequest request;
  request.configs = {small("x", 16, 4)};
  auto payload = encode_job_request(request);
  payload.resize(payload.size() - 1);  // truncated request payload
  EXPECT_FALSE(decode_job_request(payload.data(), payload.size()).has_value());
}

}  // namespace
}  // namespace fastdiag::service
