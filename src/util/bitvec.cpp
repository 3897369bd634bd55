#include "util/bitvec.h"

#include <algorithm>
#include <bit>

#include "util/require.h"
#include "util/simd.h"

namespace fastdiag {

BitVector::BitVector(std::size_t width, bool fill_value) : width_(width) {
  words_.assign(word_count(), fill_value ? ~std::uint64_t{0} : 0);
  trim();
}

BitVector BitVector::from_string(const std::string& bits) {
  BitVector result(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const char c = bits[i];
    require(c == '0' || c == '1', [&] {
      return "BitVector::from_string: invalid character in '" + bits + "'";
    });
    // Leftmost character is the MSB.
    result.set(bits.size() - 1 - i, c == '1');
  }
  return result;
}

BitVector BitVector::from_value(std::size_t width, std::uint64_t value) {
  // Bits of value at positions >= min(width, 64) are dropped; widths beyond
  // 64 zero-fill the upper bits.
  BitVector result(width);
  if (width > 0) {
    result.words_[0] = value;
    result.trim();
  }
  return result;
}

void BitVector::check_index(std::size_t index) const {
  require_in_range(index < width_, [&] {
    return "BitVector: bit index " + std::to_string(index) +
           " out of range for width " + std::to_string(width_);
  });
}

bool BitVector::get(std::size_t index) const {
  check_index(index);
  return ((words_[index / kBitsPerWord] >> (index % kBitsPerWord)) & 1u) != 0;
}

void BitVector::set(std::size_t index, bool value) {
  check_index(index);
  const std::uint64_t mask = std::uint64_t{1} << (index % kBitsPerWord);
  if (value) {
    words_[index / kBitsPerWord] |= mask;
  } else {
    words_[index / kBitsPerWord] &= ~mask;
  }
}

void BitVector::fill(bool value) {
  for (auto& w : words_) {
    w = value ? ~std::uint64_t{0} : 0;
  }
  trim();
}

void BitVector::flip(std::size_t index) { set(index, !get(index)); }

BitVector BitVector::inverted() const {
  BitVector result = *this;
  for (auto& w : result.words_) {
    w = ~w;
  }
  result.trim();
  return result;
}

std::size_t BitVector::popcount() const {
  std::size_t total = 0;
  for (const auto w : words_) {
    total += static_cast<std::size_t>(std::popcount(w));
  }
  return total;
}

void BitVector::resize(std::size_t width) {
  width_ = width;
  words_.resize(word_count(), 0);
  trim();
}

void BitVector::reset(std::size_t width) {
  width_ = width;
  words_.assign(word_count(), 0);
}

BitVector BitVector::low_bits(std::size_t count) const {
  require(count <= width_, "BitVector::low_bits: count exceeds width");
  BitVector result = *this;
  result.resize(count);
  return result;
}

std::uint64_t BitVector::to_value() const {
  require(width_ <= kBitsPerWord, "BitVector::to_value: width exceeds 64");
  return words_.empty() ? 0 : words_[0];
}

std::string BitVector::to_string() const {
  std::string out;
  out.reserve(width_);
  for (std::size_t i = width_; i-- > 0;) {
    out.push_back(get(i) ? '1' : '0');
  }
  return out;
}

void BitVector::assign_words(const std::uint64_t* words, std::size_t width) {
  width_ = width;
  words_.assign(words, words + word_count());
  trim();
}

void BitVector::assign_low_bits_of(const BitVector& source) {
  require(source.width_ >= width_,
          "BitVector::assign_low_bits_of: source narrower than target");
  std::copy_n(source.words_.data(), word_count(), words_.data());
  trim();
}

std::uint64_t BitVector::word_at(std::size_t offset, std::size_t count) const {
  require(count <= kBitsPerWord, "BitVector::word_at: count exceeds 64");
  std::uint64_t out = 0;
  if (offset >= width_ || count == 0) {
    return out;
  }
  const std::size_t word = offset / kBitsPerWord;
  const std::size_t shift = offset % kBitsPerWord;
  out = words_[word] >> shift;
  if (shift != 0 && word + 1 < words_.size()) {
    out |= words_[word + 1] << (kBitsPerWord - shift);
  }
  if (count < kBitsPerWord) {
    out &= (std::uint64_t{1} << count) - 1;
  }
  return out;  // bits past width() are zero by the trim() invariant
}

void BitVector::xor_with(const BitVector& other) {
  require(width_ == other.width_, "BitVector::xor_with: width mismatch");
  simd::xor_limbs(words_.data(), other.words_.data(), words_.size());
}

std::ptrdiff_t BitVector::first_mismatch(const BitVector& other) const {
  require(width_ == other.width_, "BitVector::first_mismatch: width mismatch");
  for (std::size_t i = 0; i < words_.size(); ++i) {
    const std::uint64_t diff = words_[i] ^ other.words_[i];
    if (diff != 0) {
      return static_cast<std::ptrdiff_t>(i * kBitsPerWord +
                                         std::countr_zero(diff));
    }
  }
  return -1;
}

std::ptrdiff_t BitVector::last_mismatch(const BitVector& other) const {
  require(width_ == other.width_, "BitVector::last_mismatch: width mismatch");
  for (std::size_t i = words_.size(); i-- > 0;) {
    const std::uint64_t diff = words_[i] ^ other.words_[i];
    if (diff != 0) {
      return static_cast<std::ptrdiff_t>(
          i * kBitsPerWord + (kBitsPerWord - 1 -
                              static_cast<std::size_t>(std::countl_zero(diff))));
    }
  }
  return -1;
}

void BitVector::blend(const BitVector& mask, const BitVector& fallback) {
  require(width_ == mask.width_ && width_ == fallback.width_,
          "BitVector::blend: width mismatch");
  simd::blend_limbs(words_.data(), mask.words_.data(), fallback.words_.data(),
                    words_.size());
  trim();
}

bool BitVector::shift_up_one(bool in) {
  require(width_ > 0, "BitVector::shift_up_one: empty vector");
  const std::size_t top_word = (width_ - 1) / kBitsPerWord;
  const std::size_t top_bit = (width_ - 1) % kBitsPerWord;
  const bool out = ((words_[top_word] >> top_bit) & 1u) != 0;
  std::uint64_t carry = in ? 1u : 0u;
  for (std::size_t i = 0; i <= top_word; ++i) {
    const std::uint64_t next_carry = words_[i] >> (kBitsPerWord - 1);
    words_[i] = (words_[i] << 1) | carry;
    carry = next_carry;
  }
  trim();
  return out;
}

bool BitVector::shift_down_one(bool in) {
  require(width_ > 0, "BitVector::shift_down_one: empty vector");
  const bool out = (words_[0] & 1u) != 0;
  const std::size_t top_word = (width_ - 1) / kBitsPerWord;
  for (std::size_t i = 0; i < top_word; ++i) {
    words_[i] = (words_[i] >> 1) | (words_[i + 1] << (kBitsPerWord - 1));
  }
  words_[top_word] >>= 1;
  if (in) {
    const std::size_t top_bit = (width_ - 1) % kBitsPerWord;
    words_[top_word] |= std::uint64_t{1} << top_bit;
  }
  return out;
}

void BitVector::trim() {
  const std::size_t used = width_ % kBitsPerWord;
  if (used != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << used) - 1;
  }
}

bool operator==(const BitVector& a, const BitVector& b) {
  // Same width implies the same limb count, and bits above width() are zero
  // (trim), so a limb-wise diff is an exact equality test.
  return a.width_ == b.width_ &&
         simd::diff_or(a.words_.data(), b.words_.data(), a.words_.size()) == 0;
}

BitVector BitVector::operator^(const BitVector& other) const {
  require(width_ == other.width_, "BitVector::operator^: width mismatch");
  BitVector result = *this;
  result.xor_with(other);
  return result;
}

BitVector BitVector::operator&(const BitVector& other) const {
  require(width_ == other.width_, "BitVector::operator&: width mismatch");
  BitVector result = *this;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    result.words_[i] &= other.words_[i];
  }
  return result;
}

BitVector BitVector::operator|(const BitVector& other) const {
  require(width_ == other.width_, "BitVector::operator|: width mismatch");
  BitVector result = *this;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    result.words_[i] |= other.words_[i];
  }
  return result;
}

}  // namespace fastdiag
