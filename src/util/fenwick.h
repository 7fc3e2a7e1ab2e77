// Fenwick (binary indexed) tree over non-negative integer weights.
//
// The H-ORAM storage layer keeps one weight per partition (its count of
// not-yet-accessed slots) and must repeatedly draw a partition with
// probability proportional to that count; the Fenwick tree gives
// O(log P) update and weighted sampling instead of an O(P) scan per
// dummy load.
#ifndef HORAM_UTIL_FENWICK_H
#define HORAM_UTIL_FENWICK_H

#include <cstdint>
#include <vector>

#include "util/contracts.h"

namespace horam::util {

/// Prefix-sum tree over fixed-size array of non-negative weights.
class fenwick_tree {
 public:
  explicit fenwick_tree(std::size_t size) : tree_(size + 1, 0) {}

  [[nodiscard]] std::size_t size() const noexcept {
    return tree_.size() - 1;
  }

  /// Adds `delta` (may be negative) to the weight at `index`.
  void add(std::size_t index, std::int64_t delta) {
    expects(index < size(), "fenwick index out of range");
    for (std::size_t i = index + 1; i < tree_.size(); i += i & (~i + 1)) {
      tree_[i] += delta;
    }
  }

  /// Sum of weights in [0, index).
  [[nodiscard]] std::int64_t prefix_sum(std::size_t index) const {
    expects(index <= size(), "fenwick prefix out of range");
    std::int64_t sum = 0;
    for (std::size_t i = index; i > 0; i -= i & (~i + 1)) {
      sum += tree_[i];
    }
    return sum;
  }

  /// Total weight.
  [[nodiscard]] std::int64_t total() const { return prefix_sum(size()); }

  /// Weight at `index`.
  [[nodiscard]] std::int64_t value(std::size_t index) const {
    expects(index < size(), "fenwick index out of range");
    return prefix_sum(index + 1) - prefix_sum(index);
  }

  /// Bytes of the tree's weights (trusted-memory reporting).
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    return tree_.size() * sizeof(tree_[0]);
  }

  /// Smallest index such that prefix_sum(index + 1) > target, i.e. the
  /// element that covers offset `target` when the weights are laid out
  /// consecutively. target must be < total().
  [[nodiscard]] std::size_t find_by_offset(std::int64_t target) const {
    expects(target >= 0 && target < total(),
            "weighted-sample offset out of range");
    std::size_t position = 0;
    std::size_t mask = 1;
    while (mask * 2 <= size()) {
      mask *= 2;
    }
    for (; mask > 0; mask /= 2) {
      const std::size_t next = position + mask;
      if (next < tree_.size() && tree_[next] <= target) {
        position = next;
        target -= tree_[next];
      }
    }
    return position;  // 0-based element index
  }

 private:
  std::vector<std::int64_t> tree_;
};

}  // namespace horam::util

#endif  // HORAM_UTIL_FENWICK_H
