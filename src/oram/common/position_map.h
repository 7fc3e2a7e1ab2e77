// Position map: block id -> Path ORAM leaf. Lives in the trusted
// control layer (the paper's "secure shelter"); lookups are charged as
// control-layer bookkeeping by the callers.
#ifndef HORAM_ORAM_COMMON_POSITION_MAP_H
#define HORAM_ORAM_COMMON_POSITION_MAP_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "oram/common/types.h"
#include "util/contracts.h"

namespace horam::oram {

/// Dense map over a fixed id universe [0, universe). Absent entries are
/// explicit, so the same structure doubles as the "is the block cached
/// in memory?" bit H-ORAM's permutation list consults.
///
/// Leaves are stored at the width the tree needs: 16 bits when it has
/// fewer than 65,535 leaves, 32 bits otherwise. The width's all-ones
/// value marks an absent entry.
class position_map {
 public:
  position_map(std::uint64_t universe, std::uint64_t leaf_count)
      : wide_(leaf_count >= narrow_absent),
        absent_(wide_ ? wide_absent : narrow_absent) {
    expects(leaf_count < wide_absent, "leaf count exceeds 32-bit leaves");
    if (wide_) {
      wide_leaves_.assign(universe, wide_absent);
    } else {
      narrow_leaves_.assign(universe, narrow_absent);
    }
  }

  [[nodiscard]] std::uint64_t universe() const noexcept {
    return wide_ ? wide_leaves_.size() : narrow_leaves_.size();
  }

  [[nodiscard]] bool contains(block_id id) const {
    expects(id < universe(), "block id outside the universe");
    return load(id) != absent_;
  }

  [[nodiscard]] leaf_id leaf_of(block_id id) const {
    expects(contains(id), "block has no assigned leaf");
    return load(id);
  }

  void assign(block_id id, leaf_id leaf) {
    expects(id < universe(), "block id outside the universe");
    expects(leaf < absent_, "leaf outside the map's width");
    store(id, leaf);
  }

  void remove(block_id id) {
    expects(id < universe(), "block id outside the universe");
    store(id, absent_);
  }

  void clear() {
    std::fill(narrow_leaves_.begin(), narrow_leaves_.end(), narrow_absent);
    std::fill(wide_leaves_.begin(), wide_leaves_.end(), wide_absent);
  }

  /// Number of present entries (linear scan; test/diagnostic use).
  [[nodiscard]] std::uint64_t size() const {
    std::uint64_t count = 0;
    for (block_id id = 0; id < universe(); ++id) {
      count += load(id) != absent_ ? 1 : 0;
    }
    return count;
  }

  /// Bytes of trusted memory this map occupies (reporting; the paper's
  /// Figure 4-1 annotates its flat 8-byte map as "Position map (4MB)").
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    return narrow_leaves_.size() * sizeof(std::uint16_t) +
           wide_leaves_.size() * sizeof(std::uint32_t);
  }

 private:
  static constexpr std::uint64_t narrow_absent =
      std::numeric_limits<std::uint16_t>::max();
  static constexpr std::uint64_t wide_absent =
      std::numeric_limits<std::uint32_t>::max();

  [[nodiscard]] std::uint64_t load(block_id id) const {
    return wide_ ? wide_leaves_[id] : narrow_leaves_[id];
  }
  void store(block_id id, std::uint64_t value) {
    if (wide_) {
      wide_leaves_[id] = static_cast<std::uint32_t>(value);
    } else {
      narrow_leaves_[id] = static_cast<std::uint16_t>(value);
    }
  }

  bool wide_;
  std::uint64_t absent_;
  /// Exactly one of the two holds the entries.
  std::vector<std::uint16_t> narrow_leaves_;
  std::vector<std::uint32_t> wide_leaves_;
};

}  // namespace horam::oram

#endif  // HORAM_ORAM_COMMON_POSITION_MAP_H
