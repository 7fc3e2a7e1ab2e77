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
// their union is read once and rewritten once. Every `eviction_rate`
// online accesses owe one eviction, but no access runs it: as in Ring
// ORAM, eviction is background work after ReadPath, so the caller runs
// what is owed, or the first part of it, as one union (evict_owed)
// after the requests it serves have completed. A shuffle drain evicts
// its whole budget as one union (force_evict). Any bucket whose unread
// slots run low (read_count reaching S) is reshuffled early on its own.
// All of these run on a public schedule, and all of them read a bucket
// one way (read_reals: Z unread slots, Ring ORAM's ReadBucket) and
// rewrite it one way (rewrite_bucket: all Z + S slots). So one eviction
// of L + 1 buckets reads Z·(L+1) slots and writes (Z+S)·(L+1).
//
// Like oram/path/path_oram.h in backend mode, the tree is driven
// through extract/install: extract removes the live copy (the caller's
// cache layer takes over) from the path to the leaf the caller names,
// install stages a returning block in the stash for the next evictions
// to place. The tree keeps no position map: evictions and reshuffles
// re-place what they open by the id ‖ leaf its record carries. Both
// trees derive from tree_core (oram/common/tree_core.h), which holds
// the geometry, stash, installs, bulk-build placement and the union
// pass; this class adds the bucket format (per-bucket records,
// permutations, pads), the XOR reads, the reshuffles and the eviction
// schedule.
//
// The trusted view of a bucket's permutation is one compact record per
// bucket, nothing per slot: its live real blocks as 32-bit ids with
// their 8-bit slot offsets (so Z + S is at most 256), a bitmask of its
// consumed slots and its epoch. The read count is the mask's population
// count. At Z = 16, S = 25 that is 97 trusted bytes per bucket.
#ifndef HORAM_ORAM_RING_RING_ORAM_H
#define HORAM_ORAM_RING_RING_ORAM_H

#include <array>
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
  /// Eviction rate (the paper's A): every A online accesses owe one
  /// deterministic path eviction, run by evict_owed().
  std::uint32_t eviction_rate = 20;
  /// Application payload bytes per block.
  std::size_t payload_bytes = 0;
  /// Logical block size for device timing (0 = record size).
  std::uint64_t logical_block_bytes = 0;
  /// Block ids the tree may hold (below 2^32 - 1).
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
  /// per bucket of the path to `leaf`, where the block must be, copies
  /// the payload into `read_out` (payload_bytes long) — the live copy
  /// moves to the caller's cache layer. May trigger early reshuffles;
  /// on the public access-count schedule it owes an eviction, which it
  /// does not run.
  cost_split extract(block_id id, leaf_id leaf,
                     std::span<std::uint8_t> read_out);

  /// A dummy access: random path, one unread dummy slot per bucket.
  /// Indistinguishable from extract() on the bus; advances the same
  /// reshuffle schedule and owes evictions at the same rate.
  cost_split dummy_access();

  /// Evictions the online accesses owe: one per `eviction_rate`
  /// accesses since construction, less those evict_owed() has run.
  [[nodiscard]] std::uint64_t evictions_owed() const noexcept {
    return owed_evictions_;
  }
  /// Runs the first min(limit, evictions_owed()) owed evictions: the
  /// next that many reverse-lexicographic paths as one union in one
  /// round trip (a no-op when that is 0). The rest stays owed, in
  /// order, for a later call. The default limit runs everything owed.
  cost_split evict_owed(std::uint64_t limit = UINT64_MAX);

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

  /// Visits every resident block and its leaf — tree buckets first, then
  /// the stash — without charging device time (audits and peeks only).
  void for_each_resident(
      const std::function<void(block_id, leaf_id,
                               std::span<const std::uint8_t>)>& visit)
      const;

  /// Trusted bytes of the per-bucket records: the sizes of the
  /// containers that hold them.
  [[nodiscard]] std::uint64_t metadata_bytes() const noexcept;

  /// Deep audit: every real slot decodes to its metadata id and lies on
  /// the path to its record's leaf, every unread dummy slot holds its
  /// deterministic pad byte for byte, read counters stay below S, and
  /// the stash/resident bookkeeping agrees. Throws util::contract_error
  /// on the first inconsistency.
  void check_consistency() const;

 private:
  friend struct ring_oram_test_access;

  /// Largest Z + S: slot offsets are stored in 8 bits.
  static constexpr std::uint32_t max_slots_per_bucket = 256;
  /// A set of slots of one bucket, bit k = slot offset k.
  using slot_mask = std::array<std::uint64_t, max_slots_per_bucket / 64>;

  /// Slots of `bucket` holding live reals (from its real offsets).
  [[nodiscard]] slot_mask real_mask(std::uint64_t bucket) const;
  /// Whether slot offset `k` of `bucket` has been consumed.
  [[nodiscard]] bool is_read(std::uint64_t bucket, std::uint32_t k) const;
  /// Slots of `bucket` consumed since its last rewrite (its read
  /// count: every online read consumes exactly one unread slot per
  /// path bucket).
  [[nodiscard]] std::uint32_t read_count(std::uint64_t bucket) const;
  /// Drops the live real at slot offset `k` of `bucket` from its
  /// record, keeping the rest in slot order.
  void remove_real(std::uint64_t bucket, std::uint32_t k);

  /// Leaf of the g-th deterministic eviction (reverse-lexicographic
  /// order: bit-reversed counter).
  [[nodiscard]] leaf_id reverse_lex_leaf(std::uint64_t counter) const;

  /// Writes the deterministic dummy pad of (global slot, epoch) —
  /// a keyed splitmix64 byte stream, reproducible by the client
  /// without a device read (the XOR technique depends on this).
  void fill_pad(std::uint64_t slot, std::uint64_t epoch,
                std::span<std::uint8_t> out) const;

  /// The slot of `id`'s live record on the path to `leaf`, from trusted
  /// metadata alone; total_slots() when no bucket there holds it.
  [[nodiscard]] std::uint64_t real_slot_on_path(leaf_id leaf,
                                                block_id id) const;
  /// One online path read of one slot per bucket. A real `target` must
  /// lie in a path bucket with its record naming `leaf`: its payload is
  /// decoded into extracted_payload_ and its slot is consumed.
  /// Bumps read counters, runs the reshuffle schedule and, every A-th
  /// access, owes an eviction (evict_owed() runs it).
  cost_split path_read(leaf_id leaf, block_id target);

  /// Rewrites one bucket in place: the given blocks land at fresh
  /// uniformly random distinct slots, every other slot gets the next
  /// epoch's pad; the bucket's record lists the new reals and its read
  /// bits clear. The real records are composed but not sealed: they
  /// join seal_queue_ for the caller's seal_queued().
  void compose_bucket(std::uint64_t bucket, std::span<const block_ref> reals,
                      std::span<std::uint8_t> out);
  /// Seals every record compose_bucket() queued, in one batch, nonces
  /// in queue order.
  void seal_queued();

  /// Unread dummy slots of `bucket` (neither in `reals` nor consumed)
  /// into slot_order_, ascending; returns how many.
  std::uint32_t unread_dummies(std::uint64_t bucket, const slot_mask& reals);

  /// The one way a bucket is read: for each of `buckets` in order, one
  /// scatter read of exactly Z unread slots — its live reals plus Z − r
  /// unread dummies drawn uniformly, in ascending slot order, each slot
  /// traced — gathering the real records; then opens them all in one
  /// batch into opened_ (ids checked against their buckets' records,
  /// payloads viewing real_records_). Every MAC is checked before
  /// anything is written.
  cost_split read_reals(std::span<const std::uint64_t> buckets);
  /// The one way a bucket is rewritten: compose_bucket() with `reals`,
  /// seal them, and one traced range write of the whole bucket.
  cost_split rewrite_bucket(std::uint64_t bucket,
                            std::span<const block_ref> reals);

  /// Early reshuffle: a Z-slot read (read_reals), rewrite with the same
  /// residents under a fresh permutation.
  cost_split reshuffle_bucket(std::uint64_t bucket);

  /// Deterministic eviction of the next `count` reverse-lexicographic
  /// paths as tree_core's union pass (owed evictions and drains alike):
  /// every union bucket is read once and rewritten once.
  cost_split evict_union(std::uint64_t count);

  /// Rewrites the whole tree with epoch-0 pads and clears all state.
  void reset();

  ring_oram_config config_;
  block_codec codec_;
  std::unique_ptr<storage::block_store> io_store_;
  access_trace* trace_;

  /// Trusted per-bucket records, flat and bucket-indexed. A slot is a
  /// live real block (listed in its bucket's record), an unread dummy
  /// pad (neither listed nor read), or consumed (its read bit set:
  /// either a spent dummy or an extracted real; its bytes are stale
  /// until the bucket's next rewrite and it is never chosen again).
  /// Bucket b's live reals are entries [b * Z, b * Z + real_counts_[b])
  /// of real_ids_ (shard-local ids) and real_offsets_ (their slots),
  /// in ascending slot order.
  std::vector<std::uint32_t> real_ids_;
  std::vector<std::uint8_t> real_offsets_;
  std::vector<std::uint8_t> real_counts_;
  /// Bucket b's consumed slots: words [b * mask_words_, ...).
  std::vector<std::uint64_t> read_masks_;
  std::uint32_t mask_words_ = 0;
  /// Rewrites of each bucket (the pad stream's epoch).
  std::vector<std::uint64_t> epochs_;
  /// Online accesses since construction (drives the eviction schedule).
  std::uint64_t access_count_ = 0;
  /// Scheduled evictions owed and not yet run (evict_owed()).
  std::uint64_t owed_evictions_ = 0;
  /// Deterministic evictions issued (drives the reverse-lex order).
  std::uint64_t evict_counter_ = 0;

  // Reused per-access scratch.
  std::vector<std::uint64_t> chosen_slots_;
  /// The Z slots read_reals() reads of one bucket, ascending.
  std::vector<std::uint64_t> bucket_slots_;
  std::vector<std::uint32_t> slot_order_;
  std::vector<std::uint8_t> bucket_scratch_;
  /// Composed real records awaiting seal_queued().
  std::vector<std::span<std::uint8_t>> seal_queue_;
  /// The leaves of the eviction in flight.
  std::vector<leaf_id> evict_leaves_;
  /// Real records read_reals() gathered (one eviction union at most,
  /// packed; sized for the largest union seen and reused), the ids
  /// their records must hold, the ids they did hold, the list it opens
  /// and the blocks it opened.
  std::vector<std::uint8_t> real_records_;
  std::vector<block_id> expected_ids_;
  std::vector<block_id> opened_ids_;
  std::vector<std::span<const std::uint8_t>> open_spans_;
  std::vector<block_ref> opened_;
  std::vector<std::uint8_t> record_scratch_;
  std::vector<std::uint8_t> combined_scratch_;
  std::vector<std::uint8_t> pad_scratch_;
  /// The payload extract() serves: its path read's, or the stash's.
  std::vector<std::uint8_t> extracted_payload_;
};

}  // namespace horam::oram

#endif  // HORAM_ORAM_RING_RING_ORAM_H
