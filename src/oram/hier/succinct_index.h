// Trusted-memory succinct position index of the hier backend.
//
// One packed bit-entry per block id: a level tag (0 = the block left
// storage and is cached upstream; 1..L = resident level) followed by the
// level-local slot. Because the index is trusted and consulted before
// any device traffic, an online access knows every probe address up
// front — the property that lets the hier backend ship all per-level
// probes as one batched exchange (a single round trip), where a
// recursive position map costs one dependent trip per map level.
//
// The entry width is ceil(log2(L + 1)) + ceil(log2(max slots per
// level)) bits — a few bytes per hundred blocks — held in a
// util::packed_array, so lookups and updates are O(1) word arithmetic.
#ifndef HORAM_ORAM_HIER_SUCCINCT_INDEX_H
#define HORAM_ORAM_HIER_SUCCINCT_INDEX_H

#include <cstdint>

#include "oram/common/types.h"
#include "util/contracts.h"
#include "util/packed_array.h"

namespace horam::oram {

/// Packed id -> (level, slot) map; level 0 is the cached sentinel.
class succinct_index {
 public:
  succinct_index() = default;

  succinct_index(std::uint64_t universe, unsigned level_bits,
                 unsigned slot_bits)
      : level_bits_(level_bits), slot_bits_(slot_bits) {
    expects(universe > 0, "index universe must be non-empty");
    expects(level_bits >= 1 && slot_bits >= 1, "index fields need bits");
    expects(level_bits + slot_bits <= 64,
            "index entries are packed into 64-bit words");
    entries_ = util::packed_array(universe, level_bits + slot_bits);
  }

  [[nodiscard]] std::uint64_t universe() const noexcept {
    return entries_.size();
  }
  [[nodiscard]] unsigned entry_bits() const noexcept {
    return entries_.bits();
  }
  [[nodiscard]] std::uint64_t bytes() const noexcept {
    return entries_.memory_bytes();
  }

  /// Resident level of `id`; 0 means cached (not on storage).
  [[nodiscard]] std::uint32_t level_of(block_id id) const {
    return static_cast<std::uint32_t>(raw(id) >> slot_bits_);
  }

  /// Level-local slot of `id`; meaningful only while level_of(id) != 0.
  [[nodiscard]] std::uint64_t slot_of(block_id id) const {
    return raw(id) & field_mask(slot_bits_);
  }

  /// Records `id` at (level, slot); level is 1-based.
  void place(block_id id, std::uint32_t level, std::uint64_t slot) {
    expects(level >= 1 && level <= field_mask(level_bits_),
            "index level tag out of range");
    expects(slot <= field_mask(slot_bits_), "index slot out of range");
    set_raw(id, (static_cast<std::uint64_t>(level) << slot_bits_) | slot);
  }

  /// Marks `id` cached (not on storage).
  void clear(block_id id) { set_raw(id, 0); }

 private:
  [[nodiscard]] static constexpr std::uint64_t field_mask(
      unsigned bits) noexcept {
    return bits >= 64 ? ~std::uint64_t{0}
                      : (std::uint64_t{1} << bits) - 1;
  }

  [[nodiscard]] std::uint64_t raw(block_id id) const {
    expects(id < entries_.size(), "block id outside the index universe");
    return entries_.get(id);
  }

  void set_raw(block_id id, std::uint64_t value) {
    expects(id < entries_.size(), "block id outside the index universe");
    entries_.set(id, value);
  }

  unsigned level_bits_ = 0;
  unsigned slot_bits_ = 0;
  util::packed_array entries_;
};

}  // namespace horam::oram

#endif  // HORAM_ORAM_HIER_SUCCINCT_INDEX_H
