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
// Every access reads one root-to-leaf path, remaps the requested block
// to a fresh uniform leaf, and greedily writes the path back from the
// stash. Dummy accesses (random path, write-back unchanged) are
// indistinguishable from real ones on the bus. One routine,
// access_batch(), serves a list of k accesses at once: it draws their k
// leaves in list order and runs tree_core's union pass over them,
// serving every request from the stash in list order between the read
// and the write-back, so the top levels are opened and re-sealed once
// per batch instead of k times. access(), extract() and dummy_access()
// are its k = 1 case, whose union is the path itself.
// The client state and the algorithms Path ORAM shares with Ring ORAM
// — tree geometry, position map, stash, installs, the bulk-build
// placement and the union pass — live in tree_core
// (oram/common/tree_core.h); this class adds the bucket format and
// sealing, the memory/storage level split, the page layout and
// evict_all.
//
// The bucket is the sealed unit, a Z-slot unit of the one codec
// (oram/common/block_codec.h): one nonce, one keystream and one MAC per
// bucket, payloads first and the id header after them. An access opens
// its whole window (the path, or a batch's path union) in one batch
// (block_codec::decode_many): every
// bucket's MAC is checked before any plaintext of the window is
// written, so a tampered bucket anywhere in it fails the access with
// crypto::crypto_error and nothing reaches the stash. Then the id
// headers (id ‖ leaf words) are decrypted, then only the payloads of
// real slots — most slots of a tree path are dummies. Every write-back
// re-seals each window bucket whole under a fresh nonce, the
// re-encryption Path ORAM requires: the buckets are composed in
// plaintext and sealed deepest level first in one batch
// (block_codec::seal_many), the nonce order of sealing them one by
// one. The whole-tree sweeps (reset, evict_all, initialize_full) seal
// and open in batches of a path's size. A sealed bucket fits in the Z
// records the store reserves for it, so store geometry, device traffic
// and the modelled crypto charges (per record) are those of per-slot
// records.
#ifndef HORAM_ORAM_PATH_PATH_ORAM_H
#define HORAM_ORAM_PATH_PATH_ORAM_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "oram/common/access_trace.h"
#include "oram/common/block_codec.h"
#include "oram/common/tree_core.h"
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
  /// Block ids the tree may hold (the application address space, below
  /// 2^32 - 1).
  std::uint64_t id_universe = 0;
  /// Number of tree levels resident in memory, counted from the root;
  /// deeper levels go to the storage device. Use level_count (or any
  /// larger value) for a fully in-memory tree.
  std::uint32_t memory_levels = std::numeric_limits<std::uint32_t>::max();
  /// Seal buckets with real crypto (tests) or plaintext (large benches;
  /// modelled crypto time is charged either way).
  bool seal = true;
  /// Sealing keys (crypto::key_schedule names each store's).
  crypto::seal_keys keys{};
  /// Device-side layout of the storage-resident levels
  /// (storage/page_layout.h). `flat` = one range op per bucket, heap
  /// order (the historical machine, bit for bit); `page` = page-sized
  /// subtree segments, one op per path segment, valid-bit skipping.
  /// The in-memory levels always use the flat layout.
  storage::storage_layout layout = storage::storage_layout::flat;
  /// Target device page size for storage_layout::page.
  std::uint64_t page_bytes = 16384;
};

class path_oram : public tree_core {
 public:
  /// `io_device` may be null when every level fits in memory. A keyed
  /// tree never extracts; a backend tree's real requests carry the
  /// caller's leaves.
  path_oram(const path_oram_config& config, sim::block_device& memory_device,
            sim::block_device* io_device, const sim::cpu_model& cpu,
            util::random_source& rng, access_trace* trace,
            tree_role role = tree_role::keyed);

  [[nodiscard]] std::uint32_t memory_level_count() const noexcept {
    return memory_levels_;
  }
  [[nodiscard]] const path_oram_config& config() const noexcept {
    return config_;
  }
  /// Store record size (payload + id + sealing overhead); a bucket
  /// spans bucket_size of them.
  [[nodiscard]] std::size_t record_bytes() const noexcept {
    return codec_.record_bytes();
  }
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

  /// One access of a batch (access_batch()).
  struct request {
    /// The block to access; dummy_block_id makes a dummy access (a
    /// uniform path read and write-back that serves nothing).
    block_id id = dummy_block_id;
    op_kind op = op_kind::read;
    /// Replaces the payload on writes (at most payload_bytes long).
    std::span<const std::uint8_t> write_data;
    /// When non-empty (payload_bytes long), receives the payload as
    /// this access finds it, before its own write: a write with a
    /// read_out also returns the old payload.
    std::span<std::uint8_t> read_out;
    /// Edits the payload in place after the read and the write.
    const std::function<void(std::span<std::uint8_t>)>* updater = nullptr;
    /// Backend trees only: removes the block from the tree instead of
    /// remapping it, its live copy moving to the caller's cache layer.
    bool extract = false;
    /// Backend trees only: the leaf the caller's map holds the block
    /// under, which its record or stash entry must confirm, and the
    /// fresh leaf the access moves it to (unused by an extract).
    leaf_id leaf = 0;
    leaf_id next_leaf = 0;
  };

  /// Serves `batch` with one read and one write-back of its path union.
  /// Leaves are drawn in list order, exactly as one access after
  /// another would draw them: the block's current leaf (and its fresh
  /// one) for a real access, a uniform leaf for a dummy. The bus sees
  /// one memory_path_access per request, then the union's buckets read
  /// root level first and written deepest level first (ascending heap
  /// order within a level), all of it a function of the k leaves. Every
  /// request is served from the stash in list order, so a later request
  /// for the same block sees the earlier one's write. Each union bucket
  /// costs one device read and one write plus the crypto of 2 * Z
  /// records. On a keyed tree, absent blocks read as zeros and become
  /// resident; a backend tree refuses, before any block changes hands,
  /// a real request whose block (once per batch) it does not hold under
  /// `leaf`. Under
  /// storage_layout::page the batch holds one request.
  cost_split access_batch(std::span<const request> batch);

  /// One ORAM access (access_batch() of one request). For reads, the
  /// payload lands in `read_out` (payload_bytes long); for writes,
  /// `write_data` replaces the payload.
  cost_split access(op_kind op, block_id id,
                    std::span<const std::uint8_t> write_data,
                    std::span<std::uint8_t> read_out);

  /// A dummy access: random path read + write-back. Indistinguishable
  /// from access() on the bus; drains the stash as a side effect.
  cost_split dummy_access();

  /// One path access that removes `id`, resident under `leaf`, from
  /// the tree: reads that path, copies the payload into `read_out`
  /// (payload_bytes long) and writes the path back without the block —
  /// the live copy moves to the caller's cache layer (H-ORAM's load
  /// path, the inverse of install). Backend trees only.
  cost_split extract(block_id id, leaf_id leaf,
                     std::span<std::uint8_t> read_out);

  /// Visits every resident block and its leaf — tree buckets first, then
  /// the stash — without charging device time (audits and peeks only).
  void for_each_resident(
      const std::function<void(block_id, leaf_id,
                               std::span<const std::uint8_t>)>& visit)
      const;

  /// Deep audit of the tree invariants: every stored block lies on the
  /// path to its record's leaf, no block appears twice, a keyed tree's
  /// map agrees with every record and the stash, and the resident count
  /// matches. Throws util::contract_error on the first inconsistency.
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
  cost_split initialize_full(std::uint64_t count, const filler_fn& filler,
                             std::vector<leaf_id>* leaves_out = nullptr);

 private:
  [[nodiscard]] bool bucket_in_memory(std::uint64_t bucket) const noexcept;
  /// Slot of the bucket's first record in its lane's store (heap order
  /// on the memory lane and under flat, segment order under page).
  [[nodiscard]] std::uint64_t bucket_first_slot(std::uint64_t bucket) const;
  /// The bucket's records in its store: a host view (no device time)
  /// and a mutable one for composing a build in place.
  [[nodiscard]] std::span<const std::uint8_t> peek_bucket(
      std::uint64_t bucket) const;
  [[nodiscard]] std::span<std::uint8_t> stage_bucket(std::uint64_t bucket);
  /// Payload of window slot `slot` (bucket slot / Z, slot % Z) of the
  /// last window decoded into path_payloads_.
  [[nodiscard]] std::span<const std::uint8_t> slot_payload(
      std::size_t slot) const;
  /// Composes every bucket of `image` (whole buckets in heap order) as
  /// all-dummy and seals them in window-sized batches, in order.
  void seal_in_windows(std::span<std::uint8_t> image);
  /// Opens `buckets` (whole buckets back to back) in window-sized
  /// batches and appends their real blocks to `out`, bucket then slot
  /// order.
  void take_reals(std::span<const std::uint8_t> buckets,
                  std::vector<evicted_block>& out);
  /// Reads bucket records into `out`; returns cost on the right lane.
  cost_split read_bucket(std::uint64_t bucket, std::span<std::uint8_t> out);
  cost_split write_bucket(std::uint64_t bucket,
                          std::span<const std::uint8_t> records);

  /// The window: the records of the batch's i-th union bucket (root
  /// level first; on a single path, i is the level).
  [[nodiscard]] std::span<std::uint8_t> window_bucket(std::size_t i);
  /// Sizes the window for the planned union.
  void size_window();
  /// Fills the window from the union's buckets (device reads; under
  /// `page`, one transfer per segment of the single path with
  /// valid-bit skipping).
  cost_split load_union();
  /// Writes the window back, deepest level first (under `page`,
  /// sibling bytes of each segment are rewritten unchanged from the
  /// buffer load_union filled).
  cost_split store_union();

  /// Visits the heap index of every bucket the segment covers, its
  /// subtree in breadth-first order.
  void for_each_segment_bucket(
      storage::segment_ref segment,
      const std::function<void(std::uint64_t bucket)>& visit) const;
  /// True iff any bucket of the segment has been written since reset.
  [[nodiscard]] bool segment_valid(storage::segment_ref segment) const;
  /// Marks every bucket the segment covers valid (a segment write
  /// rewrites them all).
  void mark_segment_valid(storage::segment_ref segment);

  /// Counts a real access of `id` and assigns it a fresh uniform leaf
  /// ahead of its path read; returns the leaf to read (the old one, or
  /// a uniform draw on first touch, which makes the block resident).
  leaf_id remap(block_id id);

  path_oram_config config_;
  std::uint32_t memory_levels_;
  std::uint64_t memory_bucket_count_;

  block_codec codec_;
  sim::block_device& memory_device_;
  std::uint64_t logical_bytes_ = 0;
  /// Null when memory_levels == 0 (fully storage-resident tree).
  std::unique_ptr<storage::block_store> memory_store_;
  std::unique_ptr<storage::block_store> io_store_;
  access_trace* trace_;

  /// Page geometry + valid bits; null under storage_layout::flat (and
  /// when no level is storage-resident).
  std::unique_ptr<storage::page_layout> page_;
  std::unique_ptr<storage::valid_bit_tree> valid_;

  // Per-batch scratch, sized for the largest union seen (a batch of one
  // needs one path): the leaves drawn, the union's bucket records, the
  // decoded window (slot ids and payloads) and its real blocks.
  std::vector<leaf_id> batch_leaves_;
  std::vector<std::uint8_t> path_window_;
  std::vector<block_id> path_ids_;
  std::vector<std::uint8_t> path_payloads_;
  std::vector<block_ref> window_reals_;
  /// The window's buckets root level first (the read's order) and
  /// deepest level first (the write-back's nonce order).
  std::vector<std::span<const std::uint8_t>> root_first_;
  std::vector<std::span<std::uint8_t>> leaf_first_;
  /// The payload a block has on its first touch.
  std::vector<std::uint8_t> zero_payload_;
  /// Per-group segment bytes of the access in flight (page layout).
  std::vector<std::vector<std::uint8_t>> segment_buffers_;

  /// Fault-injection tests reach a real bucket's records through this.
  friend struct path_oram_test_access;
};

}  // namespace horam::oram

#endif  // HORAM_ORAM_PATH_PATH_ORAM_H
