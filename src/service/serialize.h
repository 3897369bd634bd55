// Compact binary serialization of fastdiag's result and cache types.
//
// The fleet workflow ships three artifact kinds between machines: per-run
// Reports (and their ClassificationOutcome), warmed ClassifierCache
// contents (so a fresh diagd serves classification jobs with zero probe
// replays), and streaming-sweep checkpoints (see service/checkpoint.h).
// All three share one wire discipline:
//
//   - little-endian fixed-width integers or LEB128 varints, doubles as
//     IEEE-754 bit images (std::bit_cast through uint64), so files are
//     byte-identical across hosts of either endianness;
//   - every variable-length field is length-prefixed, every container
//     count is checked against the bytes actually remaining before any
//     allocation — truncated or corrupt input fails with a DecodeError,
//     never with UB or an attacker-sized reserve;
//   - a 4-byte magic plus a format version lead every top-level blob, so
//     mismatched artifacts are rejected up front;
//   - encoders are canonical (map-ordered containers, masked BitVector
//     limbs): decode(encode(x)) re-encodes to the exact same bytes, which
//     is what the round-trip tests pin down.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "core/expected.h"
#include "core/report.h"
#include "diagnosis/classifier.h"

namespace fastdiag::service {

struct DecodeError {
  std::string message;
};

/// Little-endian append-only buffer the encoders write through.  Each
/// fixed-width field is one store of its little-endian image.
class ByteWriter {
 public:
  /// Pre-sizes the buffer for @p bytes more, so a caller that knows its
  /// encoded size appends without reallocating.
  void reserve(std::size_t bytes) { buffer_.reserve(buffer_.size() + bytes); }

  void u8(std::uint8_t value) { buffer_.push_back(value); }

  void u32(std::uint32_t value) { store(little_endian(value)); }

  void u64(std::uint64_t value) { store(little_endian(value)); }

  void f64(double value);  ///< IEEE-754 bit image via uint64

  void boolean(bool value) { u8(value ? 1 : 0); }

  /// u32 byte length + raw bytes.
  void str(std::string_view value) {
    u32(static_cast<std::uint32_t>(value.size()));
    buffer_.insert(buffer_.end(), value.begin(), value.end());
  }

  /// LEB128: seven bits per byte, low groups first, high bit set on every
  /// byte but the last; 1 byte below 2^7, at most 10.
  void varint(std::uint64_t value) {
    varints(1, [value](std::size_t) { return value; });
  }

  /// Appends the varints value(0) .. value(count - 1): one pass sizes them,
  /// one grows the buffer once, one stores them.  Long runs (a log's
  /// entries) go through here.
  template <typename Value>
  void varints(std::size_t count, Value&& value) {
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < count; ++i) {
      bytes += varint_size(value(i));
    }
    const std::size_t at = buffer_.size();
    buffer_.resize(at + bytes);
    std::uint8_t* out = buffer_.data() + at;
    for (std::size_t i = 0; i < count; ++i) {
      out = put_varint(out, value(i));
    }
  }

  [[nodiscard]] static std::size_t varint_size(std::uint64_t value) {
    return value == 0 ? 1
                      : static_cast<std::size_t>(std::bit_width(value) + 6) / 7;
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const {
    return buffer_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() && {
    return std::move(buffer_);
  }
  [[nodiscard]] std::size_t size() const { return buffer_.size(); }

 private:
  template <typename T>
  static T little_endian(T value) {
    if constexpr (std::endian::native == std::endian::big) {
      T swapped = 0;
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        swapped = static_cast<T>(swapped << 8 | ((value >> (8 * i)) & 0xFF));
      }
      return swapped;
    }
    return value;
  }

  static std::uint8_t* put_varint(std::uint8_t* out, std::uint64_t value) {
    for (; value >= 0x80; value >>= 7) {
      *out++ = static_cast<std::uint8_t>(value | 0x80);
    }
    *out++ = static_cast<std::uint8_t>(value);
    return out;
  }

  template <typename T>
  void store(T value) {
    const std::size_t at = buffer_.size();
    buffer_.resize(at + sizeof(T));
    std::memcpy(buffer_.data() + at, &value, sizeof(T));
  }

  std::vector<std::uint8_t> buffer_;
};

/// Bounds-checked reader over an untrusted byte span.  Errors are sticky:
/// the first short or invalid read latches ok() == false and every later
/// read returns a zero value, so decoders can run straight-line and check
/// once.  No read ever touches memory past the span.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  /// ok() and every byte consumed — trailing garbage is a decode error.
  [[nodiscard]] bool finished() const { return ok_ && pos_ == size_; }

  void fail() { ok_ = false; }

  std::uint8_t u8() {
    std::uint8_t value = 0;
    take(&value, 1);
    return value;
  }

  std::uint32_t u32() {
    std::uint8_t raw[4] = {};
    take(raw, 4);
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<std::uint32_t>(raw[i]) << (8 * i);
    }
    return value;
  }

  std::uint64_t u64() {
    std::uint8_t raw[8] = {};
    take(raw, 8);
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<std::uint64_t>(raw[i]) << (8 * i);
    }
    return value;
  }

  double f64();

  bool boolean() {
    const std::uint8_t value = u8();
    if (value > 1) {
      ok_ = false;  // non-canonical bool: reject, round-trips stay exact
    }
    return value == 1;
  }

  std::string str() {
    const std::uint32_t length = u32();
    if (length > remaining()) {
      ok_ = false;
      return {};
    }
    std::string value(reinterpret_cast<const char*>(data_ + pos_), length);
    pos_ += length;
    return value;
  }

  /// Reads a varint.  Only the shortest encoding of a value is accepted
  /// (no zero final byte after the first, nothing past 64 bits), so every
  /// accepted value re-encodes to the bytes it came from.
  std::uint64_t varint() {
    const std::size_t limit = ok_ ? std::min<std::size_t>(10, remaining()) : 0;
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < limit; ++i) {
      const std::uint8_t byte = data_[pos_ + i];
      if (i == 9 && byte > 1) {
        break;
      }
      value |= static_cast<std::uint64_t>(byte & 0x7F) << (7 * i);
      if ((byte & 0x80) == 0) {
        if (byte == 0 && i != 0) {
          break;
        }
        pos_ += i + 1;
        return value;
      }
    }
    ok_ = false;
    return 0;
  }

  /// count() for a varint count.
  std::size_t varint_count(std::size_t min_element_bytes) {
    const std::uint64_t value = varint();
    if (value != 0 && value > remaining() / min_element_bytes) {
      ok_ = false;
      return 0;
    }
    return static_cast<std::size_t>(value);
  }

  /// Reads a u64 element count and rejects it unless count *
  /// @p min_element_bytes fits in the remaining bytes — a corrupt count
  /// fails here instead of driving a huge reserve() downstream.
  std::size_t count(std::size_t min_element_bytes) {
    const std::uint64_t value = u64();
    if (min_element_bytes == 0 ||
        value > remaining() / min_element_bytes) {
      if (value != 0) {
        ok_ = false;
        return 0;
      }
    }
    return static_cast<std::size_t>(value);
  }

 private:
  bool take(void* out, std::size_t bytes) {
    if (!ok_ || bytes > remaining()) {
      ok_ = false;
      return false;
    }
    std::memcpy(out, data_ + pos_, bytes);
    pos_ += bytes;
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---- format identities -----------------------------------------------------

inline constexpr std::uint32_t kReportMagic = 0x50524446;      // "FDRP"
inline constexpr std::uint32_t kCacheMagic = 0x43434446;       // "FDCC"
inline constexpr std::uint32_t kCheckpointMagic = 0x4B434446;  // "FDCK"
/// "FDCK" version 2: folded aggregates carry the two soft-error metric
/// folds.  Readers reject other versions outright — blobs are cache and
/// transport artifacts regenerated per build, not long-lived archives.
inline constexpr std::uint32_t kFormatVersion = 2;
/// "FDRP" version 4: the diagnosis log travels as its sealed tables —
/// backgrounds, events, per-memory words — then (word id, event id, limb,
/// mask) entries, one per failing read and 64-bit batch of a word, all
/// integers but the background limbs as varints.  Readers reject other
/// versions, as for "FDCK".
inline constexpr std::uint32_t kReportFormatVersion = 4;
/// "FDCC" version 4: cell signatures are read masks over the classifier's
/// read universe, wrapped dictionaries key by row class, and an entry's
/// options are its clock period, global words and build mode.  Older
/// caches are rejected, so a server loading one starts cold.
inline constexpr std::uint32_t kCacheFormatVersion = 4;

// ---- embedded encoders (no magic; exposed for composition and tests) -------

void encode_folded(ByteWriter& writer,
                   const core::AggregateReport::Folded& folded);
[[nodiscard]] bool decode_folded(ByteReader& reader,
                                 core::AggregateReport::Folded& folded);

void encode_classification(ByteWriter& writer,
                           const core::ClassificationOutcome& outcome);
[[nodiscard]] bool decode_classification(ByteReader& reader,
                                         core::ClassificationOutcome& outcome);

void encode_march_test(ByteWriter& writer, const march::MarchTest& test);
[[nodiscard]] bool decode_march_test(ByteReader& reader,
                                     march::MarchTest& test);

void encode_sram_config(ByteWriter& writer, const sram::SramConfig& config);
[[nodiscard]] bool decode_sram_config(ByteReader& reader,
                                      sram::SramConfig& config);

// ---- top-level blobs -------------------------------------------------------

/// "FDRP" v4: one per-run Report, classification included when present.
/// decode_report accepts only the canonical encoding: the log section must
/// be exactly what encode_report writes for its sealed form (see
/// DiagnosisLog::from_sealed_tables: words ascending, non-zero masks, every
/// row used once), varints must be shortest, and a field the log holds in
/// 32 bits must fit them.  So a decoded report re-encodes to the same
/// bytes, and its log is sealed.
[[nodiscard]] std::vector<std::uint8_t> encode_report(
    const core::Report& report);
[[nodiscard]] core::Expected<core::Report, DecodeError> decode_report(
    const std::uint8_t* data, std::size_t size);

/// "FDCC" v4: every resident classifier of @p cache — its construction
/// inputs (config, test, options), its read-universe width, then the
/// signature dictionaries built so far (cell signatures as fixed-width
/// masks).  Importing into a fresh cache reconstructs classifiers that
/// serve the same jobs with zero probe replays.
[[nodiscard]] std::vector<std::uint8_t> encode_classifier_cache(
    const diagnosis::ClassifierCache& cache);

/// Decodes a "FDCC" blob into @p cache (entries insert() one by one,
/// honouring the cache's eviction bound).  Returns the classifier count on
/// success.  A corrupt entry, one FaultClassifier's constructor rejects, or
/// one whose mask width differs from its classifier's read universe
/// (checked before any mask is allocated) is a DecodeError, and nothing is
/// imported.
[[nodiscard]] core::Expected<std::size_t, DecodeError>
decode_classifier_cache(const std::uint8_t* data, std::size_t size,
                        diagnosis::ClassifierCache& cache);

}  // namespace fastdiag::service
