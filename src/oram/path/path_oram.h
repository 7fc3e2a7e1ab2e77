// Path ORAM (Stefanov et al.), with a configurable memory/storage level
// split.
//
// Three roles in this repository:
//   * split_level == level_count: the whole tree lives in memory — this
//     is H-ORAM's in-memory cache tree (§4.1.2);
//   * split_level < level_count: top levels in memory, deeper levels on
//     the storage device — the "tree-top cache" baseline the paper
//     evaluates against (Figure 3-1 a, ZeroTrace-style);
//   * split_level == 0: the whole tree on storage — the `path`
//     oram_backend (oram/common/tree_backend.h), driven through
//     extract/install instead of plain accesses.
//
// Every access reads one root-to-leaf path bucket by bucket, remaps the
// requested block to a fresh uniform leaf, and greedily writes the path
// back from the stash. Dummy accesses (random path, write-back
// unchanged) are indistinguishable from real ones on the bus.
//
// The bucket is the sealed unit (oram/common/bucket_codec.h): one
// nonce, one keystream and one MAC per bucket, payloads first and the
// id header after them. Opening a path bucket checks its MAC, decrypts
// the id header and then only the payloads of real slots — most slots
// of a tree path are dummies. Every write-back re-seals each path
// bucket whole under a fresh nonce, the re-encryption Path ORAM
// requires. A sealed bucket fits in the Z records the store reserves
// for it, so store geometry, device traffic and the modelled crypto
// charges (per record) are those of per-slot records.
#ifndef HORAM_ORAM_PATH_PATH_ORAM_H
#define HORAM_ORAM_PATH_PATH_ORAM_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "oram/common/access_trace.h"
#include "oram/common/bucket_codec.h"
#include "oram/common/position_map.h"
#include "oram/common/stash.h"
#include "oram/common/types.h"
#include "sim/cpu_model.h"
#include "sim/device.h"
#include "storage/block_store.h"
#include "storage/page_layout.h"
#include "util/rng.h"

namespace horam::oram {

/// Static parameters of a Path ORAM instance.
struct path_oram_config {
  /// Number of leaves; must be a power of two. The tree then has
  /// log2(leaf_count) + 1 levels and (2 * leaf_count - 1) buckets.
  std::uint64_t leaf_count = 0;
  /// Blocks per bucket (the paper's Z; default 4 as in §5.1).
  std::uint32_t bucket_size = 4;
  /// Application payload bytes per block.
  std::size_t payload_bytes = 0;
  /// Logical block size for device timing (0 = record size).
  std::uint64_t logical_block_bytes = 0;
  /// Block ids the position map covers (the application address space).
  std::uint64_t id_universe = 0;
  /// Number of tree levels resident in memory, counted from the root;
  /// deeper levels go to the storage device. Use level_count (or any
  /// larger value) for a fully in-memory tree.
  std::uint32_t memory_levels = std::numeric_limits<std::uint32_t>::max();
  /// Seal buckets with real crypto (tests) or plaintext (large benches;
  /// modelled crypto time is charged either way).
  bool seal = true;
  std::uint64_t key_seed = 0x70617468;  // "path"
  /// Device-side layout of the storage-resident levels
  /// (storage/page_layout.h). `flat` = one range op per bucket, heap
  /// order (the historical machine, bit for bit); `page` = page-sized
  /// subtree segments, one op per path segment, valid-bit skipping.
  /// The in-memory levels always use the flat layout.
  storage::storage_layout layout = storage::storage_layout::flat;
  /// Target device page size for storage_layout::page.
  std::uint64_t page_bytes = 16384;
};

/// Counters of a Path ORAM instance.
struct path_oram_stats {
  std::uint64_t real_accesses = 0;
  std::uint64_t dummy_accesses = 0;
  std::uint64_t installs = 0;
  std::uint64_t evictions = 0;
};

class path_oram {
 public:
  /// `io_device` may be null when every level fits in memory.
  path_oram(const path_oram_config& config, sim::block_device& memory_device,
            sim::block_device* io_device, const sim::cpu_model& cpu,
            util::random_source& rng, access_trace* trace);

  [[nodiscard]] std::uint32_t level_count() const noexcept {
    return level_count_;
  }
  [[nodiscard]] std::uint32_t memory_level_count() const noexcept {
    return memory_levels_;
  }
  [[nodiscard]] std::uint64_t bucket_count() const noexcept {
    return bucket_count_;
  }
  /// Total block slots in the tree (real + dummy capacity).
  [[nodiscard]] std::uint64_t capacity_blocks() const noexcept {
    return bucket_count_ * config_.bucket_size;
  }
  [[nodiscard]] const path_oram_config& config() const noexcept {
    return config_;
  }
  /// Store record size (payload + id + sealing overhead); a bucket
  /// spans bucket_size of them.
  [[nodiscard]] std::size_t record_bytes() const noexcept {
    return codec_.record_bytes();
  }
  [[nodiscard]] const path_oram_stats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const stash& stash_ref() const noexcept { return stash_; }
  /// Effective storage layout (`flat` when no level is
  /// storage-resident, whatever the config asked for).
  [[nodiscard]] storage::storage_layout layout() const noexcept {
    return page_ ? storage::storage_layout::page
                 : storage::storage_layout::flat;
  }
  /// Segment geometry under storage_layout::page (null otherwise).
  [[nodiscard]] const storage::page_layout* page_geometry() const noexcept {
    return page_.get();
  }
  /// Storage buckets marked valid (written since the last reset) under
  /// storage_layout::page; 0 under flat. Audits assert this occupancy
  /// is workload-independent.
  [[nodiscard]] std::uint64_t valid_bucket_count() const noexcept {
    return valid_ ? valid_->valid_count() : 0;
  }

  /// True iff the block currently lives in this tree (or its stash).
  [[nodiscard]] bool contains(block_id id) const;

  /// Number of real blocks currently held (tree + stash).
  [[nodiscard]] std::uint64_t resident_blocks() const noexcept {
    return resident_;
  }

  /// Performs one ORAM access. For reads, the payload lands in
  /// `read_out` (payload_bytes long); absent blocks read as zeros and
  /// become resident. For writes, `write_data` replaces the payload.
  cost_split access(op_kind op, block_id id,
                    std::span<const std::uint8_t> write_data,
                    std::span<std::uint8_t> read_out);

  /// One-access read-modify-write: `updater` edits the payload while
  /// the block passes through the stash (packed-entry updates, e.g. the
  /// recursive position map, use this instead of a read + write pair).
  cost_split access_rmw(
      block_id id,
      const std::function<void(std::span<std::uint8_t>)>& updater);

  /// A dummy access: random path read + write-back. Indistinguishable
  /// from access() on the bus; drains the stash as a side effect.
  cost_split dummy_access();

  /// Installs a block arriving from the storage layer into the stash
  /// with a fresh uniform leaf (H-ORAM's I/O load path). Control-layer
  /// cost only; the block reaches the tree via later write-backs.
  cost_split install(block_id id, std::span<const std::uint8_t> payload);

  /// install() with a caller-chosen leaf, so an external position map
  /// (e.g. a recursive_position_map kept by tree_backend) can record
  /// the same assignment the tree uses.
  cost_split install(block_id id, std::span<const std::uint8_t> payload,
                     leaf_id leaf);

  /// One path access that removes `id` from the tree: reads the block's
  /// path, copies the payload into `read_out` (payload_bytes long) and
  /// writes the path back without the block — the live copy moves to
  /// the caller's cache layer (H-ORAM's load path, the inverse of
  /// install). The block must be resident.
  cost_split extract(block_id id, std::span<std::uint8_t> read_out);

  /// Current leaf of a resident block (control-layer knowledge; audits
  /// compare it against an external position map).
  [[nodiscard]] leaf_id leaf_of(block_id id) const {
    return positions_.leaf_of(id);
  }

  /// Visits every resident block — tree buckets first, then the stash —
  /// without charging device time (audits and peeks only).
  void for_each_resident(
      const std::function<void(block_id, leaf_id,
                               std::span<const std::uint8_t>)>& visit)
      const;

  /// Deep audit of the tree invariants: every stored block lies on the
  /// path to its position-map leaf, no block appears twice, the stash
  /// agrees with the map, and the resident count matches. Throws
  /// util::contract_error on the first inconsistency.
  void check_consistency() const;

  /// Oblivious tree evict (§4.3.1): sequentially reads the whole tree,
  /// obliviously shuffles the buffer (K-oblivious cache-shuffle cost
  /// model), drops dummies and returns every resident real block
  /// (including stash contents). The tree itself is left untouched;
  /// call reset() to reinitialise it.
  cost_split evict_all(std::vector<evicted_block>& out);

  /// Rewrites the whole tree with dummy records and clears the position
  /// map and stash ("initialize a new Path ORAM tree", §4.1.3).
  cost_split reset();

  /// Bulk-builds the tree with every id in [0, count) using `filler` to
  /// produce payloads (baseline initialisation). Blocks are placed
  /// bottom-up along their leaf paths; overflow lands in the stash.
  /// When `leaves_out` is non-null it receives the leaf assigned to
  /// each id (index = id), so callers can seed an external position map
  /// with the same assignments.
  cost_split initialize_full(
      std::uint64_t count,
      const std::function<void(block_id, std::span<std::uint8_t>)>& filler,
      std::vector<leaf_id>* leaves_out = nullptr);

 private:
  /// Heap index of the bucket at `level` on the path to `leaf`.
  [[nodiscard]] std::uint64_t bucket_on_path(leaf_id leaf,
                                             std::uint32_t level) const;
  /// True if the bucket at `level` on path-to-`a` is also on
  /// path-to-`b` (greedy write-back test).
  [[nodiscard]] bool paths_share_bucket(leaf_id a, leaf_id b,
                                        std::uint32_t level) const;

  [[nodiscard]] bool bucket_in_memory(std::uint64_t bucket) const noexcept;
  /// Slot of the bucket's first record in its lane's store (heap order
  /// on the memory lane and under flat, segment order under page).
  [[nodiscard]] std::uint64_t bucket_first_slot(std::uint64_t bucket) const;
  /// The bucket's records in its store: a host view (no device time)
  /// and a mutable one for composing a build in place.
  [[nodiscard]] std::span<const std::uint8_t> peek_bucket(
      std::uint64_t bucket) const;
  [[nodiscard]] std::span<std::uint8_t> stage_bucket(std::uint64_t bucket);
  /// Payload of slot k of the last bucket decoded into bucket_payloads_.
  [[nodiscard]] std::span<const std::uint8_t> slot_payload(
      std::uint32_t k) const;
  /// Reads bucket records into `out`; returns cost on the right lane.
  cost_split read_bucket(std::uint64_t bucket, std::span<std::uint8_t> out);
  cost_split write_bucket(std::uint64_t bucket,
                          std::span<const std::uint8_t> records);

  /// The path window: level `level`'s bucket records of the access in
  /// flight (level_count_ buckets of Z records each).
  [[nodiscard]] std::span<std::uint8_t> window_bucket(std::uint32_t level);
  /// Fills the path window for the path to `leaf` (device reads; under
  /// `page`, one transfer per segment with valid-bit skipping).
  cost_split load_path(leaf_id leaf);
  /// Writes the path window back along the path to `leaf`, leaf to
  /// root (under `page`, sibling bytes of each segment are rewritten
  /// unchanged from the buffer load_path filled).
  cost_split store_path(leaf_id leaf);

  /// True iff any bucket of the segment has been written since reset.
  [[nodiscard]] bool segment_valid(storage::segment_ref segment) const;
  /// Marks every bucket the segment covers valid (a segment write
  /// rewrites them all).
  void mark_segment_valid(storage::segment_ref segment);

  cost_split path_access(
      leaf_id leaf, block_id requested, op_kind op,
      std::span<const std::uint8_t> write_data,
      std::span<std::uint8_t> read_out,
      const std::function<void(std::span<std::uint8_t>)>* updater =
          nullptr,
      bool extract_requested = false);

  path_oram_config config_;
  std::uint32_t level_count_;
  std::uint32_t memory_levels_;
  std::uint64_t bucket_count_;
  std::uint64_t memory_bucket_count_;

  bucket_codec codec_;
  sim::block_device& memory_device_;
  std::uint64_t logical_bytes_ = 0;
  /// Null when memory_levels == 0 (fully storage-resident tree).
  std::unique_ptr<storage::block_store> memory_store_;
  std::unique_ptr<storage::block_store> io_store_;
  const sim::cpu_model& cpu_;
  util::random_source& rng_;
  access_trace* trace_;

  position_map positions_;
  stash stash_;
  std::uint64_t resident_ = 0;
  path_oram_stats stats_;

  /// Page geometry + valid bits; null under storage_layout::flat (and
  /// when no level is storage-resident).
  std::unique_ptr<storage::page_layout> page_;
  std::unique_ptr<storage::valid_bit_tree> valid_;

  // Reused per-access scratch: one decoded bucket, and the stash
  // blocks picked for the bucket being written back.
  std::vector<block_id> bucket_ids_;
  std::vector<std::uint8_t> bucket_payloads_;
  std::vector<bucket_codec::entry> bucket_reals_;
  /// One path's bucket records (level_count_ * Z records).
  std::vector<std::uint8_t> path_window_;
  /// Per-group segment bytes of the access in flight (page layout).
  std::vector<std::vector<std::uint8_t>> segment_buffers_;

  /// Fault-injection tests reach a real bucket's records through this.
  friend struct path_oram_test_access;
};

}  // namespace horam::oram

#endif  // HORAM_ORAM_PATH_PATH_ORAM_H
