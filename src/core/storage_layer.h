// H-ORAM storage layer (§4.1.3) plus its control-layer bookkeeping.
//
// The flat dataset lives in ~sqrt(N) partitions on the storage device.
// The control layer keeps the paper's "permutation list": per block, its
// residence (cached in memory, a main slot or, under partial shuffling,
// a slot in a pending append segment) and, on storage, its partition
// and local slot code. Every trusted table is stored at the bits its
// values need, in util::packed_array:
//   * the permutation list: residence (2 bits) ‖ partition
//     (⌈log₂ P⌉ bits) ‖ slot code (⌈log₂ slots per partition⌉ bits);
//   * one live bit per slot: set iff the slot holds the live copy of
//     the block the permutation list places there. Which block that is
//     is never stored per slot — reading the slot yields its id, and
//     the permutation list must agree (a live slot that decodes to a
//     block located elsewhere is a contract_error);
//   * the unaccessed-slot pools and their position index, at
//     ⌈log₂(slots per partition + 1)⌉ bits (the all-ones value marks a
//     slot outside its pool);
//   * the Fenwick weights over the pools (one 64-bit count per
//     partition, which is also each pool's size).
//
// Per access period every observable storage read touches a distinct,
// uniformly distributed not-yet-accessed slot: real misses consume the
// target block's slot (uniform because the layout is a fresh random
// permutation); dummy loads draw a uniform unaccessed slot directly —
// and opportunistically cache any live block found there. The per-
// partition pools of unaccessed slots are Fenwick-indexed so dummy
// draws are O(log P).
//
// The shuffle period (§4.3.2) merges evicted hot blocks into the
// partitions: every due partition is streamed in, re-permuted in
// trusted memory together with its share of hot data, and streamed
// back out at a fixed physical size (dummy padding hides occupancy).
// With partial shuffling (§5.3.1) only 1/k of the partitions are due
// each period; the others receive a fixed-size append segment, and
// misses to a partition with s pending segments issue s extra masking
// reads ("the less we shuffle, the more redundant accesses"), each a
// uniform draw among the partition's dead unaccessed slots.
//
// config.layout (storage/page_layout.h) is neutral here by design: the
// scheme's foreground accesses are single-slot draws from a random
// permutation — there is no path to pack into a page — and its shuffle
// already streams whole partitions as maximal sequential sweeps, which
// is exactly what the page layout would degenerate to. The knob only
// changes the tree-resident lane of the path backend.
#ifndef HORAM_CORE_STORAGE_LAYER_H
#define HORAM_CORE_STORAGE_LAYER_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/config.h"
#include "core/oram_backend.h"
#include "oram/common/access_trace.h"
#include "oram/common/block_codec.h"
#include "oram/common/types.h"
#include "sim/cpu_model.h"
#include "sim/device.h"
#include "storage/partitioned_store.h"
#include "util/fenwick.h"
#include "util/packed_array.h"
#include "util/rng.h"

namespace horam {

/// Counters of the storage layer (the shared backend counter set).
using storage_layer_stats = backend_stats;

class storage_layer final : public oram_backend {
 public:
  /// Builds the initial permuted layout holding every block in
  /// [0, config.block_count); `filler` provides initial payloads (null =
  /// zero-filled). Device statistics are reset afterwards so
  /// initialisation is not measured.
  storage_layer(const horam_config& config, sim::block_device& device,
                const sim::cpu_model& cpu, util::random_source& rng,
                oram::access_trace* trace,
                const std::function<void(oram::block_id,
                                         std::span<std::uint8_t>)>* filler);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "partitioned";
  }

  /// True iff the live copy of `id` is on storage (not cached).
  [[nodiscard]] bool in_storage(oram::block_id id) const override;

  /// Loads the live copy of `id` (must be in storage); marks it cached.
  /// Issues the partial-shuffle masking reads for its partition.
  load_result load_block(oram::block_id id) override;

  /// Loads a uniformly random unaccessed slot; any live block found
  /// becomes cached (prefetch).
  load_result dummy_load() override;

  /// Shuffle period as a job: the hot set (plus any reinjected
  /// overflow) is assigned to partitions up front, then each step()
  /// processes whole partitions — a due partition's stream-in/merge/
  /// re-permute/stream-out, or a pending partition's append segment —
  /// until the slice budget is spent. Partition order and per-partition
  /// work are workload-independent by construction (fixed physical
  /// sizes, left-to-right sweep). Blocks that cannot be placed are
  /// handed back by finish() (control-layer shelter).
  [[nodiscard]] std::unique_ptr<shuffle_job> begin_shuffle(
      std::vector<oram::evicted_block> evicted,
      std::uint64_t period_index) override;

  [[nodiscard]] const storage_layer_stats& stats() const noexcept override {
    return stats_;
  }
  [[nodiscard]] const storage::partition_geometry& geometry() const noexcept {
    return store_->geometry();
  }
  /// Physical bytes the storage layout occupies (reporting).
  [[nodiscard]] std::uint64_t physical_bytes() const override;
  /// Permutation list, live bits, unaccessed-slot pools and their
  /// Fenwick weights (Figure 4-1 report).
  [[nodiscard]] std::uint64_t control_memory_bytes() const override;
  [[nodiscard]] std::uint64_t pending_segments(std::uint64_t partition) const;
  [[nodiscard]] std::uint64_t unaccessed_slot_count() const;

  /// Deep consistency audit of the control-layer state: every
  /// storage-resident block's location is a distinct live slot and
  /// every live slot is some block's location, pools and the Fenwick
  /// index agree with each other.
  /// Throws contract_error on the first inconsistency (tests call this
  /// after stress runs; O(N + slots)).
  void check_consistency() const override;

 private:
  friend class partitioned_shuffle_job;
  friend struct storage_layer_test_access;

  enum class residence : std::uint8_t { memory, main_slot, append_slot };
  /// One permutation-list entry, decoded. `code` is the local slot code:
  /// [0, main_capacity) = main region, [main_capacity, ...) = append
  /// region.
  struct location {
    residence where = residence::memory;
    std::uint32_t partition = 0;
    std::uint32_t code = 0;
  };

  /// Planned period: the hot set's ids dealt to their target
  /// partitions, plus the ids no partition could take.
  struct shuffle_plan {
    std::vector<std::vector<oram::block_id>> hot;
    std::vector<oram::block_id> overflow;
  };

  /// Assigns `evicted` across partitions (uniform with rejection, then
  /// a deterministic fallback): the job's planning phase.
  shuffle_plan plan_shuffle(const std::vector<oram::evicted_block>& evicted,
                            std::uint64_t period_index);
  /// Processes partition `p` of period `period_index` with its hot
  /// share `hot`: due partitions merge + re-permute, pending ones take
  /// their append segment. Excess blocks go to `overflow_out`.
  shuffle_cost shuffle_partition_step(
      std::uint64_t p, std::uint64_t period_index,
      std::span<const oram::evicted_block> hot,
      std::vector<oram::evicted_block>& overflow_out);

  [[nodiscard]] location location_of(oram::block_id id) const;
  void set_location(oram::block_id id, const location& loc);
  /// Index of a partition's local slot in the per-slot tables.
  [[nodiscard]] std::uint64_t slot_index(std::uint64_t partition,
                                         std::uint32_t code) const {
    return partition * slots_per_partition_ + code;
  }
  [[nodiscard]] bool live(std::uint64_t partition, std::uint32_t code) const {
    return live_.get(slot_index(partition, code)) != 0;
  }
  /// Live slots of `partition` (main and append region).
  [[nodiscard]] std::uint64_t live_count(std::uint64_t partition) const;
  /// Checks that the live slot (partition, code) decoded as `id` is
  /// where the permutation list places `id`.
  void check_live_slot(std::uint64_t partition, std::uint32_t code,
                       oram::block_id id) const;
  /// Unaccessed slots of `partition` (its pool's size).
  [[nodiscard]] std::uint64_t pool_size(std::uint64_t partition) const {
    return static_cast<std::uint64_t>(pool_weight_.value(partition));
  }
  [[nodiscard]] std::uint32_t pool_at(std::uint64_t partition,
                                      std::uint64_t position) const {
    return static_cast<std::uint32_t>(
        pool_.get(slot_index(partition, 0) + position));
  }
  [[nodiscard]] bool in_pool(std::uint64_t partition,
                             std::uint32_t code) const {
    return pool_position_.get(slot_index(partition, code)) !=
           pool_position_.max_value();
  }
  /// Partial-shuffle masking: one extra dead-slot read per pending
  /// segment of `partition`, issued for real and dummy loads alike so
  /// the per-load read count depends only on the partition touched.
  /// Each mask is a uniform draw among the partition's dead unaccessed
  /// slots.
  oram::cost_split masking_reads(std::uint64_t partition);
  void pool_insert(std::uint64_t partition, std::uint32_t code);
  void pool_remove(std::uint64_t partition, std::uint32_t code);
  /// Reads + decodes the slot with local `code`; marks it accessed.
  oram::cost_split consume_slot(std::uint64_t partition, std::uint32_t code,
                                oram::block_id& decoded_out);
  /// Places `id` as cached-in-memory after a load.
  void mark_cached(oram::block_id id);

  horam_config config_;
  oram::block_codec codec_;
  const sim::cpu_model& cpu_;
  util::random_source& rng_;
  oram::access_trace* trace_;

  std::unique_ptr<storage::partitioned_store> store_;
  std::uint64_t segment_capacity_ = 0;

  /// Main plus append slots of one partition (the per-slot tables
  /// hold partition p's slots at [p · this, (p + 1) · this)).
  std::uint64_t slots_per_partition_ = 0;
  /// Width of a permutation-list entry's partition field, between its
  /// 2 residence bits and the slot code.
  unsigned partition_bits_ = 0;
  /// Permutation list, one packed location per block.
  util::packed_array locations_;
  /// One bit per slot: it holds the live copy of a storage-resident
  /// block.
  util::packed_array live_;
  /// Unaccessed-slot pools: partition p's pool is its first
  /// pool_size(p) entries, and pool_position_ maps each pooled slot to
  /// its place there (swap-remove keeps removal O(1)).
  util::packed_array pool_;
  util::packed_array pool_position_;
  util::fenwick_tree pool_weight_;
  std::vector<std::uint32_t> pending_segments_;

  storage_layer_stats stats_;
  std::vector<std::uint8_t> record_scratch_;
  std::vector<std::uint8_t> payload_scratch_;
  /// Partition-image scratch reused across shuffle_partition_step
  /// calls (MB-scale at bench geometry; one allocation per layer, not
  /// per partition or per slice).
  std::vector<std::uint8_t> shuffle_image_scratch_;
  /// The records a step composes and writes: a due partition's
  /// re-permuted main region, or a pending partition's append segment.
  std::vector<std::uint8_t> shuffle_out_scratch_;
  /// Record lists of the batched seals and opens, and the opened ids.
  std::vector<std::span<std::uint8_t>> seal_spans_;
  std::vector<std::span<const std::uint8_t>> open_spans_;
  std::vector<oram::block_id> ids_scratch_;
};

}  // namespace horam

#endif  // HORAM_CORE_STORAGE_LAYER_H
