// Shared vocabulary of the ORAM layers.
#ifndef HORAM_ORAM_COMMON_TYPES_H
#define HORAM_ORAM_COMMON_TYPES_H

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "sim/time.h"

namespace horam::oram {

/// Logical block identifier (application address space, 0-based).
using block_id = std::uint64_t;

/// Identifier value reserved for dummy blocks.
inline constexpr block_id dummy_block_id =
    std::numeric_limits<block_id>::max();

/// Leaf label of a Path ORAM tree (0-based, < leaf_count).
using leaf_id = std::uint64_t;

/// Operation kind of a request.
enum class op_kind : std::uint8_t { read, write };

/// A real block and a view of its payload (bucket composition and
/// write-back selection).
struct block_ref {
  block_id id = dummy_block_id;
  std::span<const std::uint8_t> payload;
};

/// One real block leaving a cache layer with its current payload
/// (output of path_oram::evict_all, input of oram_backend shuffles).
struct evicted_block {
  block_id id = dummy_block_id;
  std::vector<std::uint8_t> payload;
};

/// Virtual-time cost of an operation, split by the resource that pays
/// it. The scheduler overlaps io with (memory + cpu); serial baselines
/// simply sum all three.
struct cost_split {
  sim::sim_time memory = 0;  // in-memory ORAM tree traffic
  sim::sim_time io = 0;      // storage-device traffic
  sim::sim_time cpu = 0;     // control-layer crypto + bookkeeping

  [[nodiscard]] sim::sim_time total() const noexcept {
    return memory + io + cpu;
  }
  cost_split& operator+=(const cost_split& other) noexcept {
    memory += other.memory;
    io += other.io;
    cpu += other.cpu;
    return *this;
  }
};

inline cost_split operator+(cost_split lhs, const cost_split& rhs) noexcept {
  lhs += rhs;
  return lhs;
}

}  // namespace horam::oram

#endif  // HORAM_ORAM_COMMON_TYPES_H
