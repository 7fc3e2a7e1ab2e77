#include "storage/partitioned_store.h"

#include "util/contracts.h"

namespace horam::storage {

partitioned_store::partitioned_store(sim::block_device& device,
                                     std::uint64_t base_offset,
                                     partition_geometry geometry,
                                     std::size_t record_bytes,
                                     std::uint64_t logical_block_bytes)
    : geometry_(geometry),
      store_(device, base_offset, geometry.total_slots(), record_bytes,
             logical_block_bytes),
      append_counts_(geometry.partition_count, 0) {
  expects(geometry.partition_count > 0, "need at least one partition");
  expects(geometry.main_capacity > 0, "partitions need capacity");
}

sim::sim_time partitioned_store::read_slot(std::uint64_t partition,
                                           std::uint64_t index,
                                           std::span<std::uint8_t> out) {
  expects(partition < geometry_.partition_count, "partition out of range");
  expects(index < geometry_.main_capacity, "slot index out of range");
  return store_.read(main_base(partition) + index, out);
}

sim::sim_time partitioned_store::read_append_slot(
    std::uint64_t partition, std::uint64_t index,
    std::span<std::uint8_t> out) {
  expects(partition < geometry_.partition_count, "partition out of range");
  expects(index < append_counts_[partition],
          "append slot index beyond used region");
  return store_.read(append_base(partition) + index, out);
}

sim::sim_time partitioned_store::append(
    std::uint64_t partition, std::span<const std::uint8_t> records) {
  expects(partition < geometry_.partition_count, "partition out of range");
  const std::size_t record_size = store_.record_bytes();
  expects(records.size() % record_size == 0,
          "append size must be a whole number of records");
  const std::uint64_t count = records.size() / record_size;
  expects(append_counts_[partition] + count <= geometry_.append_capacity,
          "append region overflow");
  const sim::sim_time cost = store_.write_range(
      append_base(partition) + append_counts_[partition], count, records);
  append_counts_[partition] += count;
  return cost;
}

std::uint64_t partitioned_store::appended_count(
    std::uint64_t partition) const {
  expects(partition < geometry_.partition_count, "partition out of range");
  return append_counts_[partition];
}

sim::sim_time partitioned_store::read_partition(
    std::uint64_t partition, std::vector<std::uint8_t>& out,
    std::uint64_t& records_read) {
  expects(partition < geometry_.partition_count, "partition out of range");
  const std::uint64_t count =
      geometry_.main_capacity + append_counts_[partition];
  out.resize(count * store_.record_bytes());
  records_read = count;
  return store_.read_range(main_base(partition), count, out);
}

sim::sim_time partitioned_store::write_partition(
    std::uint64_t partition, std::span<const std::uint8_t> records) {
  expects(partition < geometry_.partition_count, "partition out of range");
  expects(records.size() ==
              geometry_.main_capacity * store_.record_bytes(),
          "partition write must cover the whole main region");
  const sim::sim_time cost = store_.write_range(
      main_base(partition), geometry_.main_capacity, records);
  append_counts_[partition] = 0;
  return cost;
}

}  // namespace horam::storage
