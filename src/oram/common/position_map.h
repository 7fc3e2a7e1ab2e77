// Position map: block id -> Path ORAM leaf. Lives in the trusted
// control layer (the paper's "secure shelter"); lookups are charged as
// control-layer bookkeeping by the callers.
//
// Two representations, chosen by the tree that owns the map from its
// own geometry:
//   * dense — one leaf per id of the universe. Right for a tree that
//     holds (nearly) its whole universe: a standalone tree.
//   * resident-only — an open-addressing table keyed by the ids the
//     tree actually holds. Right for the controller's cache tree, whose
//     real-slot capacity is a small fraction of the id universe: it
//     never holds more than a period's loads plus its stash, so a
//     dense map would spend most of its bytes on absent entries.
// Both store leaves at the width the tree needs: 16 bits when it has
// fewer than 65,535 leaves, 32 bits otherwise.
#ifndef HORAM_ORAM_COMMON_POSITION_MAP_H
#define HORAM_ORAM_COMMON_POSITION_MAP_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "oram/common/types.h"
#include "util/contracts.h"

namespace horam::oram {

/// Map over a fixed id universe [0, universe). Absent entries are
/// explicit, so the same structure doubles as the "is the block cached
/// in memory?" bit H-ORAM's permutation list consults.
///
/// Dense: one leaf slot per id; the width's all-ones value marks an
/// absent entry. Resident-only: a power-of-two table of (32-bit id,
/// leaf) entries under linear probing, kept at load ≤ ½ by doubling
/// when an insert would pass it (it never shrinks); removals shift the
/// probe run back, so there are no tombstones.
class position_map {
 public:
  position_map(std::uint64_t universe, std::uint64_t leaf_count,
               bool resident_only = false)
      : universe_(universe),
        resident_only_(resident_only),
        wide_(leaf_count >= narrow_absent),
        absent_(wide_ ? wide_absent : narrow_absent) {
    expects(leaf_count < wide_absent, "leaf count exceeds 32-bit leaves");
    if (resident_only_) {
      expects(universe < empty_key,
              "a resident-only map needs ids below 2^32 - 1");
      resize_table(initial_capacity);
    } else {
      resize_leaves(universe);
    }
  }

  [[nodiscard]] bool contains(block_id id) const {
    expects(id < universe_, "block id outside the universe");
    return slot_of(id) != npos;
  }

  [[nodiscard]] leaf_id leaf_of(block_id id) const {
    expects(id < universe_, "block id outside the universe");
    const std::uint64_t slot = slot_of(id);
    expects(slot != npos, "block has no assigned leaf");
    return load(slot);
  }

  void assign(block_id id, leaf_id leaf) {
    expects(id < universe_, "block id outside the universe");
    expects(leaf < absent_, "leaf outside the map's width");
    if (!resident_only_) {
      store(id, leaf);
      return;
    }
    std::uint64_t slot = probe(id);
    if (keys_[slot] == empty_key) {
      if (2 * (count_ + 1) > keys_.size()) {
        resize_table(2 * keys_.size());
        slot = probe(id);
      }
      keys_[slot] = static_cast<std::uint32_t>(id);
      ++count_;
    }
    store(slot, leaf);
  }

  void remove(block_id id) {
    expects(id < universe_, "block id outside the universe");
    if (!resident_only_) {
      store(id, absent_);
      return;
    }
    std::uint64_t hole = probe(id);
    if (keys_[hole] == empty_key) {
      return;
    }
    // Backward-shift deletion: pull every later entry of the probe run
    // whose home does not lie cyclically in (hole, entry] into the hole.
    const std::uint64_t mask = keys_.size() - 1;
    for (std::uint64_t next = (hole + 1) & mask; keys_[next] != empty_key;
         next = (next + 1) & mask) {
      const std::uint64_t home = home_of(keys_[next]);
      if (((next - home) & mask) >= ((next - hole) & mask)) {
        keys_[hole] = keys_[next];
        store(hole, load(next));
        hole = next;
      }
    }
    keys_[hole] = empty_key;
    --count_;
  }

  void clear() {
    if (resident_only_) {
      std::fill(keys_.begin(), keys_.end(), empty_key);
      count_ = 0;
      return;
    }
    std::fill(narrow_leaves_.begin(), narrow_leaves_.end(), narrow_absent);
    std::fill(wide_leaves_.begin(), wide_leaves_.end(), wide_absent);
  }

  /// Number of present entries (dense: linear scan; test/diagnostic
  /// use).
  [[nodiscard]] std::uint64_t size() const {
    if (resident_only_) {
      return count_;
    }
    std::uint64_t present = 0;
    for (block_id id = 0; id < universe_; ++id) {
      present += load(id) != absent_ ? 1 : 0;
    }
    return present;
  }

  /// Bytes of trusted memory this map occupies (reporting; the paper's
  /// Figure 4-1 annotates its flat 8-byte map as "Position map (4MB)").
  /// A resident-only map is priced at its table's capacity.
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    return keys_.size() * sizeof(std::uint32_t) +
           narrow_leaves_.size() * sizeof(std::uint16_t) +
           wide_leaves_.size() * sizeof(std::uint32_t);
  }

 private:
  static constexpr std::uint64_t narrow_absent =
      std::numeric_limits<std::uint16_t>::max();
  static constexpr std::uint64_t wide_absent =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint32_t empty_key =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint64_t npos = ~std::uint64_t{0};
  static constexpr std::uint64_t initial_capacity = 16;

  /// Home slot of `id` in the resident-only table (Fibonacci hashing
  /// into the table's power-of-two size).
  [[nodiscard]] std::uint64_t home_of(block_id id) const noexcept {
    return (id * 0x9e3779b97f4a7c15ULL) >> shift_;
  }
  /// The slot holding `id`, or the empty slot ending its probe run.
  [[nodiscard]] std::uint64_t probe(block_id id) const noexcept {
    const std::uint64_t mask = keys_.size() - 1;
    std::uint64_t slot = home_of(id);
    while (keys_[slot] != empty_key && keys_[slot] != id) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }
  /// The leaf slot of a present `id`, or npos.
  [[nodiscard]] std::uint64_t slot_of(block_id id) const noexcept {
    if (!resident_only_) {
      return load(id) != absent_ ? id : npos;
    }
    const std::uint64_t slot = probe(id);
    return keys_[slot] == empty_key ? npos : slot;
  }

  void resize_leaves(std::uint64_t size) {
    if (wide_) {
      wide_leaves_.assign(size, wide_absent);
    } else {
      narrow_leaves_.assign(size, narrow_absent);
    }
  }
  /// Rehashes the resident-only table into `capacity` (a power of two)
  /// slots.
  void resize_table(std::uint64_t capacity) {
    const std::vector<std::uint32_t> old_keys = std::move(keys_);
    std::vector<std::uint64_t> old_leaves;
    old_leaves.reserve(count_);
    for (std::uint64_t slot = 0; slot < old_keys.size(); ++slot) {
      if (old_keys[slot] != empty_key) {
        old_leaves.push_back(load(slot));
      }
    }
    keys_.assign(capacity, empty_key);
    resize_leaves(capacity);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    std::size_t next = 0;
    for (const std::uint32_t id : old_keys) {
      if (id != empty_key) {
        const std::uint64_t slot = probe(id);
        keys_[slot] = id;
        store(slot, old_leaves[next++]);
      }
    }
  }

  [[nodiscard]] std::uint64_t load(std::uint64_t slot) const {
    return wide_ ? wide_leaves_[slot] : narrow_leaves_[slot];
  }
  void store(std::uint64_t slot, std::uint64_t value) {
    if (wide_) {
      wide_leaves_[slot] = static_cast<std::uint32_t>(value);
    } else {
      narrow_leaves_[slot] = static_cast<std::uint16_t>(value);
    }
  }

  std::uint64_t universe_;
  bool resident_only_;
  bool wide_;
  std::uint64_t absent_;
  /// Resident-only: the table's ids (empty_key = free slot), the number
  /// present and the hash shift (64 − log₂ capacity).
  std::vector<std::uint32_t> keys_;
  std::uint64_t count_ = 0;
  unsigned shift_ = 64;
  /// Exactly one of the two holds the leaves: per id (dense) or per
  /// table slot (resident-only).
  std::vector<std::uint16_t> narrow_leaves_;
  std::vector<std::uint32_t> wide_leaves_;
};

}  // namespace horam::oram

#endif  // HORAM_ORAM_COMMON_POSITION_MAP_H
