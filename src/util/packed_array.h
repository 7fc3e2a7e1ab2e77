// Fixed-width unsigned fields packed into 64-bit words.
//
// The trusted control layer keeps several per-block and per-slot tables
// whose values need far fewer bits than a machine word: a partition
// index and a slot code, a live bit, a shard-local id, a hier level and
// slot. packed_array stores n entries of `bits` bits each back to back
// (entry i occupies bits [i·bits, (i+1)·bits) of the word stream), so a
// table costs ⌈n·bits / 64⌉ words. An entry may straddle two words;
// get() and set() then touch both. It is the one bit-packer of the
// library: the tables that hold packed fields (the partitioned
// permutation list, pools and live bits, hier's succinct index, the
// tree backends' residency bits, the engine's local ids) all store
// their words here.
#ifndef HORAM_UTIL_PACKED_ARRAY_H
#define HORAM_UTIL_PACKED_ARRAY_H

#include <cstdint>
#include <vector>

#include "util/contracts.h"

namespace horam::util {

class packed_array {
 public:
  packed_array() = default;

  /// `size` entries of `bits` (1..64) bits each, every one set to
  /// `fill`.
  packed_array(std::uint64_t size, unsigned bits, std::uint64_t fill = 0)
      : size_(size), bits_(bits), mask_(field_mask(bits)) {
    expects(bits >= 1 && bits <= 64, "packed fields need 1..64 bits");
    expects(fill <= mask_, "fill value wider than the field");
    const std::uint64_t words = (size * bits + 63) / 64;
    if (fill == mask_) {
      // All ones: whole words (bits past the last entry are never read).
      words_.assign(words, ~std::uint64_t{0});
      return;
    }
    words_.assign(words, 0);
    if (fill != 0) {
      for (std::uint64_t i = 0; i < size; ++i) {
        set(i, fill);
      }
    }
  }

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] unsigned bits() const noexcept { return bits_; }
  /// Largest value an entry can hold (all `bits` ones).
  [[nodiscard]] std::uint64_t max_value() const noexcept { return mask_; }
  /// Bytes of the word stream.
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    return words_.size() * sizeof(std::uint64_t);
  }

  [[nodiscard]] std::uint64_t get(std::uint64_t i) const {
    expects(i < size_, "packed index out of range");
    const std::uint64_t bit = i * bits_;
    const std::uint64_t word = bit >> 6;
    const unsigned shift = static_cast<unsigned>(bit & 63);
    std::uint64_t value = words_[word] >> shift;
    if (shift + bits_ > 64) {
      value |= words_[word + 1] << (64 - shift);
    }
    return value & mask_;
  }

  void set(std::uint64_t i, std::uint64_t value) {
    expects(i < size_, "packed index out of range");
    expects(value <= mask_, "value wider than the packed field");
    const std::uint64_t bit = i * bits_;
    const std::uint64_t word = bit >> 6;
    const unsigned shift = static_cast<unsigned>(bit & 63);
    words_[word] = (words_[word] & ~(mask_ << shift)) | (value << shift);
    if (shift + bits_ > 64) {
      const unsigned spill = 64 - shift;
      words_[word + 1] =
          (words_[word + 1] & ~(mask_ >> spill)) | (value >> spill);
    }
  }

 private:
  [[nodiscard]] static constexpr std::uint64_t field_mask(
      unsigned bits) noexcept {
    return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  }

  std::uint64_t size_ = 0;
  unsigned bits_ = 0;
  std::uint64_t mask_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace horam::util

#endif  // HORAM_UTIL_PACKED_ARRAY_H
