// ROB (re-order buffer) table: the control-layer queue the scheduler
// scans (Figure 4-1 item "ROB Table", §4.2). Requests enter in program
// order; the scheduler may service them out of order (hits overtake
// misses), which is exactly what a re-order buffer permits. A request
// leaves the table in the cycle that serves it — a miss in its own
// load's cycle, from the fill — so no entry is ever in flight between
// cycles and the table holds plain request indices.
#ifndef HORAM_CORE_ROB_TABLE_H
#define HORAM_CORE_ROB_TABLE_H

#include <cstdint>
#include <deque>

#include "util/contracts.h"

namespace horam {

/// FIFO of outstanding request indices.
class rob_table {
 public:
  void push(std::uint64_t request_index) {
    entries_.push_back(request_index);
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return entries_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  /// The request index at `position`; position 0 = oldest outstanding
  /// request.
  [[nodiscard]] std::uint64_t at(std::size_t position) const {
    expects(position < entries_.size(), "ROB position out of range");
    return entries_[position];
  }

  /// Removes the entry at `position` (after servicing).
  void remove(std::size_t position) {
    expects(position < entries_.size(), "ROB position out of range");
    entries_.erase(entries_.begin() +
                   static_cast<std::ptrdiff_t>(position));
  }

 private:
  std::deque<std::uint64_t> entries_;
};

}  // namespace horam

#endif  // HORAM_CORE_ROB_TABLE_H
