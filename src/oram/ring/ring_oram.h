// Ring ORAM (Ren et al.), storage-resident tree for the `ring`
// oram_backend.
//
// Buckets hold Z real slots plus S spare (dummy) slots; every bucket
// rewrite places its real blocks at uniformly random distinct slots
// (the per-bucket secret permutation) and fills the rest with
// deterministic dummy pads. An online access reads exactly ONE slot per
// bucket on the path — the real slot when the block lives there, a
// uniformly chosen unread dummy otherwise — so online bandwidth is one
// block per level instead of Path ORAM's Z per level. Under
// `xor_reads`, the storage side folds the chosen slots into a single
// combined block (block_store::read_xor) and the client unXORs the
// known dummy pads, collapsing the whole online path read to one
// device transfer.
//
// Writes are decoupled from reads. Evictions follow one deterministic
// reverse-lexicographic order of paths, and every eviction runs
// tree_core's union pass over the next `count` paths: each bucket of
// their union is range-read once and rewritten once. The online
// eviction every `eviction_rate` accesses is the count = 1 case, whose
// union is its one path; a shuffle drain evicts its whole budget as one
// union (force_evict). Any bucket whose unread slots run low
// (read_count reaching S) is reshuffled early on its own. All of these
// are range operations on a public schedule, and all of them read a
// bucket one way (read_reals) and rewrite it one way (rewrite_bucket).
//
// Like oram/path/path_oram.h in backend mode, the tree is driven
// through extract/install: extract removes the live copy (the caller's
// cache layer takes over), install stages a returning block in the
// stash for the next evictions to place. Both trees derive from
// tree_core (oram/common/tree_core.h), which holds the geometry,
// position map, stash, installs, bulk-build placement and the union
// pass; this class adds the bucket format (slot metadata, per-bucket
// permutations, pads), the XOR reads, the reshuffles and the eviction
// schedule.
#ifndef HORAM_ORAM_RING_RING_ORAM_H
#define HORAM_ORAM_RING_RING_ORAM_H

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "oram/common/access_trace.h"
#include "oram/common/block_codec.h"
#include "oram/common/tree_core.h"
#include "oram/common/types.h"
#include "sim/cpu_model.h"
#include "sim/device.h"
#include "storage/block_store.h"
#include "util/rng.h"

namespace horam::oram {

/// Static parameters of a Ring ORAM instance.
struct ring_oram_config {
  /// Number of leaves; must be a power of two.
  std::uint64_t leaf_count = 0;
  /// Real block slots per bucket (the paper's Z).
  std::uint32_t real_slots = 16;
  /// Dummy (spare) slots per bucket (the paper's S). Each online read
  /// consumes one slot per path bucket; the bucket is reshuffled once S
  /// slots have been consumed since its last rewrite, which guarantees
  /// an unread dummy always exists for the next access.
  std::uint32_t spare_slots = 25;
  /// Eviction rate (the paper's A): one deterministic path eviction
  /// every A online accesses.
  std::uint32_t eviction_rate = 20;
  /// Application payload bytes per block.
  std::size_t payload_bytes = 0;
  /// Logical block size for device timing (0 = record size).
  std::uint64_t logical_block_bytes = 0;
  /// Block ids the position map covers.
  std::uint64_t id_universe = 0;
  /// Seal records with real crypto (tests) or plaintext (large benches).
  bool seal = true;
  std::uint64_t key_seed = 0x72696e67;  // "ring"
  /// XOR-combined online reads: one device transfer per path read; off
  /// falls back to one per chosen slot (same trace shape either way).
  bool xor_reads = true;
};

class ring_oram : public tree_core {
 public:
  ring_oram(const ring_oram_config& config, sim::block_device& io_device,
            const sim::cpu_model& cpu, util::random_source& rng,
            access_trace* trace);

  /// Slots per bucket (Z + S).
  [[nodiscard]] std::uint32_t slots_per_bucket() const noexcept {
    return config_.real_slots + config_.spare_slots;
  }
  /// Total physical slots (real + spare; spares never hold blocks).
  [[nodiscard]] std::uint64_t total_slots() const noexcept {
    return bucket_count() * slots_per_bucket();
  }
  [[nodiscard]] const ring_oram_config& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::size_t record_bytes() const noexcept {
    return codec_.record_bytes();
  }

  /// One online access that removes `id` from the tree: reads one slot
  /// per path bucket, copies the payload into `read_out` (payload_bytes
  /// long) — the live copy moves to the caller's cache layer. The block
  /// must be resident. May trigger early reshuffles and, on the public
  /// access-count schedule, a deterministic eviction.
  cost_split extract(block_id id, std::span<std::uint8_t> read_out);

  /// A dummy access: random path, one unread dummy slot per bucket.
  /// Indistinguishable from extract() on the bus; advances the same
  /// reshuffle/eviction schedules.
  cost_split dummy_access();

  /// Deterministic evictions outside the access schedule (shuffle
  /// drains use this to push staged blocks into the tree): the next
  /// `count` reverse-lexicographic paths, evicted as one union in one
  /// round trip. Advances the same order as scheduled evictions, by
  /// `count`.
  cost_split force_evict(std::uint64_t count = 1);

  /// Bulk-builds the tree with every id in [0, count); overflow lands
  /// in the stash. `leaves_out` (index = id) mirrors the assignments
  /// for an external position map.
  cost_split initialize_full(std::uint64_t count, const filler_fn& filler,
                             std::vector<leaf_id>* leaves_out = nullptr);

  /// Visits every resident block — tree buckets first, then the stash —
  /// without charging device time (audits and peeks only).
  void for_each_resident(
      const std::function<void(block_id, leaf_id,
                               std::span<const std::uint8_t>)>& visit)
      const;

  /// Deep audit: every real slot decodes to its metadata id and lies on
  /// its position-map path, every unread dummy slot holds its
  /// deterministic pad byte for byte, read counters stay below S, and
  /// the stash/resident bookkeeping agrees. Throws util::contract_error
  /// on the first inconsistency.
  void check_consistency() const;

 private:
  friend struct ring_oram_test_access;

  /// Trusted per-slot metadata (the client-side view of the per-bucket
  /// permutation). A slot is a live real block (id != dummy, !read), an
  /// unread dummy pad (id == dummy, !read), or consumed (read — either
  /// a spent dummy or an extracted real; its bytes are stale until the
  /// bucket's next rewrite and it is never chosen again).
  struct slot_meta {
    block_id id = dummy_block_id;
    bool read = false;
  };
  /// Trusted per-bucket state.
  struct bucket_state {
    std::uint32_t read_count = 0;
    std::uint64_t epoch = 0;
  };

  /// Leaf of the g-th deterministic eviction (reverse-lexicographic
  /// order: bit-reversed counter).
  [[nodiscard]] leaf_id reverse_lex_leaf(std::uint64_t counter) const;

  /// Writes the deterministic dummy pad of (global slot, epoch) —
  /// a keyed splitmix64 byte stream, reproducible by the client
  /// without a device read (the XOR technique depends on this).
  void fill_pad(std::uint64_t slot, std::uint64_t epoch,
                std::span<std::uint8_t> out) const;

  /// One online path read of one slot per bucket. When `target` is
  /// found in a path bucket its payload is decoded into
  /// extracted_payload_ and the slot is consumed; `found` reports it.
  /// Bumps read counters, then runs the reshuffle and eviction
  /// schedules.
  cost_split path_read(leaf_id leaf, block_id target, bool& found);

  /// Rewrites one bucket in place: the given blocks land at fresh
  /// uniformly random distinct slots, every other slot gets the next
  /// epoch's pad; metadata, read bits and the read counter reset. The
  /// real records are composed but not sealed: they join seal_queue_
  /// for the caller's seal_queued().
  void compose_bucket(std::uint64_t bucket, std::span<const block_ref> reals,
                      std::span<std::uint8_t> out);
  /// Seals every record compose_bucket() queued, in one batch, nonces
  /// in queue order.
  void seal_queued();

  /// The one way a bucket is read: range-reads each of `buckets` in
  /// order (one traced sweep each) and gathers their real records, then
  /// opens them all in one batch into opened_ (ids checked against their
  /// slots' metadata, payloads viewing real_records_). Every MAC is
  /// checked before anything is written.
  cost_split read_reals(std::span<const std::uint64_t> buckets);
  /// The one way a bucket is rewritten: compose_bucket() with `reals`,
  /// seal them, and one traced range write of the whole bucket.
  cost_split rewrite_bucket(std::uint64_t bucket,
                            std::span<const block_ref> reals);

  /// Early reshuffle: whole-bucket range read, rewrite with the same
  /// residents under a fresh permutation.
  cost_split reshuffle_bucket(std::uint64_t bucket);

  /// Deterministic eviction of the next `count` reverse-lexicographic
  /// paths as tree_core's union pass (count = 1 is the scheduled online
  /// eviction, whose union is its path): every union bucket is read
  /// once and rewritten once.
  cost_split evict_union(std::uint64_t count);

  /// Rewrites the whole tree with epoch-0 pads and clears all state.
  void reset();

  ring_oram_config config_;
  block_codec codec_;
  std::unique_ptr<storage::block_store> io_store_;
  access_trace* trace_;

  std::vector<slot_meta> slots_;
  std::vector<bucket_state> buckets_;
  /// Online accesses since construction (drives the eviction schedule).
  std::uint64_t access_count_ = 0;
  /// Deterministic evictions issued (drives the reverse-lex order).
  std::uint64_t evict_counter_ = 0;

  // Reused per-access scratch.
  std::vector<std::uint64_t> chosen_slots_;
  std::vector<std::uint32_t> slot_order_;
  std::vector<std::uint8_t> bucket_scratch_;
  /// Composed real records awaiting seal_queued().
  std::vector<std::span<std::uint8_t>> seal_queue_;
  /// The leaves of the eviction in flight.
  std::vector<leaf_id> evict_leaves_;
  /// Real records read_reals() gathered (one eviction union at most,
  /// packed; sized for the largest union seen and reused), their slots,
  /// their ids, the list it opens and the blocks it opened.
  std::vector<std::uint8_t> real_records_;
  std::vector<std::uint64_t> real_slots_;
  std::vector<block_id> real_ids_;
  std::vector<std::span<const std::uint8_t>> open_spans_;
  std::vector<block_ref> opened_;
  std::vector<std::uint8_t> record_scratch_;
  std::vector<std::uint8_t> combined_scratch_;
  std::vector<std::uint8_t> pad_scratch_;
  /// The payload path_read() recovered for its target.
  std::vector<std::uint8_t> extracted_payload_;
};

}  // namespace horam::oram

#endif  // HORAM_ORAM_RING_RING_ORAM_H
