// Partitioned block store: the storage-layer layout used by H-ORAM's
// group-and-partition shuffle.
//
// The store is divided into `partition_count` partitions. Each partition
// owns a fixed main region of `main_capacity` slots plus an append region
// of `append_capacity` slots ("the evicted data keep concatenating on the
// top of each partition", §5.3.1). Main + append regions of one partition
// are physically contiguous, so a whole partition — including its pending
// appends — can be shuffled with one streaming read and one streaming
// write.
#ifndef HORAM_STORAGE_PARTITIONED_STORE_H
#define HORAM_STORAGE_PARTITIONED_STORE_H

#include <cstdint>
#include <span>
#include <vector>

#include "storage/block_store.h"

namespace horam::storage {

/// Geometry of a partitioned store.
struct partition_geometry {
  std::uint64_t partition_count = 0;
  std::uint64_t main_capacity = 0;
  std::uint64_t append_capacity = 0;

  [[nodiscard]] std::uint64_t slots_per_partition() const noexcept {
    return main_capacity + append_capacity;
  }
  [[nodiscard]] std::uint64_t total_slots() const noexcept {
    return partition_count * slots_per_partition();
  }
};

/// Fixed-size records organised into partitions with append extents.
class partitioned_store {
 public:
  partitioned_store(sim::block_device& device, std::uint64_t base_offset,
                    partition_geometry geometry, std::size_t record_bytes,
                    std::uint64_t logical_block_bytes);

  [[nodiscard]] const partition_geometry& geometry() const noexcept {
    return geometry_;
  }
  [[nodiscard]] std::size_t record_bytes() const noexcept {
    return store_.record_bytes();
  }

  /// Random access to one slot of a partition's main region.
  sim::sim_time read_slot(std::uint64_t partition, std::uint64_t index,
                          std::span<std::uint8_t> out);

  /// Random access to one slot of a partition's append region
  /// (index < appended_count(partition)).
  sim::sim_time read_append_slot(std::uint64_t partition, std::uint64_t index,
                                 std::span<std::uint8_t> out);

  /// Appends `records` (a multiple of record_bytes) to the partition's
  /// append region as one sequential write. Throws if the region is full.
  sim::sim_time append(std::uint64_t partition,
                       std::span<const std::uint8_t> records);

  /// Number of records currently in a partition's append region.
  [[nodiscard]] std::uint64_t appended_count(std::uint64_t partition) const;

  /// Streaming read of a partition's main region and its used append
  /// region, into `out`. Returns the device cost; sets `records_read`
  /// to the number of records delivered.
  sim::sim_time read_partition(std::uint64_t partition,
                               std::vector<std::uint8_t>& out,
                               std::uint64_t& records_read);

  /// Streaming write of a full main region (main_capacity records) and
  /// reset of the partition's append region.
  sim::sim_time write_partition(std::uint64_t partition,
                                std::span<const std::uint8_t> records);

  /// The underlying record array, main and append regions alike (for
  /// audits and tests; reading it through peek() charges nothing).
  [[nodiscard]] const block_store& records() const noexcept {
    return store_;
  }

 private:
  [[nodiscard]] std::uint64_t main_base(std::uint64_t partition) const
      noexcept {
    return partition * geometry_.slots_per_partition();
  }
  [[nodiscard]] std::uint64_t append_base(std::uint64_t partition) const
      noexcept {
    return main_base(partition) + geometry_.main_capacity;
  }

  partition_geometry geometry_;
  block_store store_;
  std::vector<std::uint64_t> append_counts_;
};

}  // namespace horam::storage

#endif  // HORAM_STORAGE_PARTITIONED_STORE_H
