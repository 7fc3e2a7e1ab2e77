// Client layer shared by the tree ORAMs (Path ORAM, Stefanov et al.;
// Ring ORAM, Ren et al.). Both keep a stash and a greedy path
// write-back over the same heap-ordered binary tree (root = bucket 0,
// children of b at 2b + 1 and 2b + 2); this core holds that state and
// those algorithms once: the geometry, the stash and counters,
// installs, the client half of a bulk build, the union pass and the
// client half of the deep audit.
//
// Every tree record's 8-byte id word holds id | leaf << 32
// (pack_record), so opened blocks enter the stash under the leaves
// their records name and no write-back needs a map. Only a keyed tree
// (the controller's cache tree, a standalone tree) keeps a position
// map; a backend tree (a tree backend's tree, a recursive map's level
// trees) is handed each leaf by its caller's map walk.
//
// The union pass serves a list of paths with one read and one
// write-back of their union (the path overlap Fork Path ORAM removes):
// plan_union() lists the union's buckets, the tree reads them and opens
// their real blocks, stash_opened() hands those to the stash, and
// write_back_union() refills the union from the stash by Path ORAM's
// greedy write-back, deepest level first. Path ORAM's batched accesses
// and Ring ORAM's evictions both run it.
//
// path_oram and ring_oram derive from tree_core and keep only what
// differs between them: how a bucket is stored and sealed, and the
// access, eviction and reshuffle protocol. Nothing dispatches through
// the base — it has no virtual functions, and no tree is owned or
// deleted through a tree_core pointer.
#ifndef HORAM_ORAM_COMMON_TREE_CORE_H
#define HORAM_ORAM_COMMON_TREE_CORE_H

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "oram/common/block_codec.h"
#include "oram/common/position_map.h"
#include "oram/common/stash.h"
#include "oram/common/types.h"
#include "sim/cpu_model.h"
#include "storage/block_store.h"
#include "util/rng.h"

namespace horam::oram {

/// Records per chunk of a sequential whole-store sweep, to bound host
/// buffers.
inline constexpr std::uint64_t sweep_chunk_records = 1 << 14;

/// Charges the streaming write of a whole store composed in place
/// through stage_range(), in sweep_chunk_records chunks.
sim::sim_time commit_sweeps(storage::block_store& store);

/// Counters of a tree ORAM.
struct tree_stats {
  std::uint64_t real_accesses = 0;
  std::uint64_t dummy_accesses = 0;
  std::uint64_t installs = 0;
  /// Path ORAM: whole-tree evictions (evict_all). Ring ORAM:
  /// deterministic reverse-lexicographic path evictions.
  std::uint64_t evictions = 0;
  /// Ring ORAM: single-bucket reshuffles triggered by a read counter
  /// reaching S. Always 0 for Path ORAM.
  std::uint64_t early_reshuffles = 0;
};

/// A keyed tree looks blocks up by id through its own position map; a
/// backend tree is handed every leaf by its caller's map and keeps none.
enum class tree_role : std::uint8_t { keyed, backend };

class tree_core {
 public:
  using filler_fn = std::function<void(block_id, std::span<std::uint8_t>)>;
  /// Receives one real block a tree stores, its record's leaf and bucket.
  using stored_fn = std::function<void(block_id, leaf_id, std::uint64_t)>;

  /// A tree record's id word: the id in the low 32 bits, the leaf in
  /// the high 32 (both below 2^32 - 1, so no real word is the dummy id).
  static constexpr block_id pack_record(block_id id, leaf_id leaf) {
    return id | (leaf << 32);
  }
  static constexpr block_id record_block(block_id w) { return w << 32 >> 32; }
  static constexpr leaf_id record_leaf(block_id w) { return w >> 32; }

  [[nodiscard]] std::uint32_t level_count() const noexcept {
    return level_count_;
  }
  [[nodiscard]] std::uint64_t bucket_count() const noexcept {
    return bucket_count_;
  }
  /// Real-block capacity of the tree (Z real slots per bucket).
  [[nodiscard]] std::uint64_t capacity_blocks() const noexcept {
    return bucket_count_ * real_slots_;
  }
  [[nodiscard]] const tree_stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const stash& stash_ref() const noexcept { return stash_; }

  /// True iff the block lives in this tree or its stash. Keyed trees only.
  [[nodiscard]] bool contains(block_id id) const {
    expects(keyed(), "a backend tree keeps no position map");
    return positions_->contains(id);
  }
  /// Number of real blocks currently held (tree + stash).
  [[nodiscard]] std::uint64_t resident_blocks() const noexcept {
    return resident_;
  }
  /// Trusted bytes of the tree's own position map: dense over the id
  /// universe, or resident-only when the tree's real slots cover under
  /// half of it; 0 for a backend tree, which keeps none.
  [[nodiscard]] std::uint64_t position_map_bytes() const noexcept {
    return positions_ ? positions_->memory_bytes() : 0;
  }

  /// Stages a block arriving from another layer in the stash with a
  /// fresh uniform leaf; later write-backs place it in the tree.
  /// Control-layer cost only.
  cost_split install(block_id id, std::span<const std::uint8_t> payload);

  /// install() with a caller-chosen leaf, so an external position map
  /// (e.g. a recursive_position_map kept by tree_backend) can record
  /// the same assignment the tree uses.
  cost_split install(block_id id, std::span<const std::uint8_t> payload,
                     leaf_id leaf);

  /// What one install() costs. It does not depend on the block, so a
  /// caller can charge it on a cycle that installs nothing and keep the
  /// cycle's length independent of whether a block arrived.
  [[nodiscard]] cost_split install_cost() const;

 protected:
  /// A tree of `leaf_count` (a power of two) leaves with `real_slots`
  /// (Z) real-block slots per bucket over ids [0, id_universe), with a
  /// position map iff `role` is keyed.
  tree_core(std::uint64_t leaf_count, std::uint32_t real_slots,
            std::size_t payload_bytes, std::uint64_t id_universe,
            tree_role role, const sim::cpu_model& cpu,
            util::random_source& rng);

  [[nodiscard]] bool keyed() const noexcept { return positions_.has_value(); }

  /// Heap index of the bucket at `level` on the path to `leaf`.
  [[nodiscard]] std::uint64_t bucket_on_path(leaf_id leaf,
                                             std::uint32_t level) const {
    return ((std::uint64_t{1} << level) - 1) +
           (leaf >> (level_count_ - 1 - level));
  }
  /// True if the bucket at `level` on path-to-`a` is also on
  /// path-to-`b` (the greedy write-back test).
  [[nodiscard]] bool paths_share_bucket(leaf_id a, leaf_id b,
                                        std::uint32_t level) const {
    const std::uint32_t shift = level_count_ - 1 - level;
    return (a >> shift) == (b >> shift);
  }
  /// A uniform leaf drawn from the tree's random source.
  [[nodiscard]] leaf_id random_leaf() {
    return util::uniform_below(rng_, leaf_count_);
  }

  /// Empties the position map and the stash.
  void clear_client();

  /// The client half of initialize_full(): draws a uniform leaf for
  /// every id in [0, count) in id order (recorded in the position map
  /// of a keyed tree and, when non-null, in `leaves_out`, index = id),
  /// fills payloads with `filler`, and places the blocks bottom-up in
  /// post-order: each bucket keeps up to Z of the blocks its subtree
  /// passes up and hands the rest to its parent. `place` sees every
  /// bucket in that order with the blocks it keeps, each named by its
  /// record word (pack_record); the root's leftovers enter the stash.
  /// Returns the payload image (id `i` at i * payload_bytes), which the
  /// views `place` received point into.
  std::vector<std::uint8_t> build_client(
      std::uint64_t count, const filler_fn& filler,
      std::vector<leaf_id>* leaves_out,
      const std::function<void(std::uint64_t bucket,
                               std::span<const block_ref> reals)>& place);

  /// Lists the union of the paths to `leaves` in union_buckets(): each
  /// distinct bucket once, root level first, ascending heap order
  /// within a level (the read order). Position i of that list is the
  /// `i` write_back_union() and for_each_union_leaf_first() name.
  void plan_union(std::span<const leaf_id> leaves);
  [[nodiscard]] std::span<const std::uint64_t> union_buckets() const noexcept {
    return union_buckets_;
  }
  /// Calls visit(i, level) for the union's positions deepest level
  /// first, ascending heap order within a level (the write-back order).
  template <class Visit>
  void for_each_union_leaf_first(Visit&& visit) const {
    for (std::uint32_t level = level_count_; level-- > 0;) {
      for (std::size_t i = union_level_begin_[level];
           i < union_level_begin_[level + 1]; ++i) {
        visit(i, level);
      }
    }
  }
  /// Hands the real blocks opened from the union, each named by its
  /// record word, to the stash in list order, each under the leaf its
  /// record names.
  void stash_opened(std::span<const block_ref> reals);
  /// Greedy write-back over the union, in for_each_union_leaf_first()
  /// order: each bucket receives up to Z stash blocks whose path passes
  /// it, taken in stash iteration order; `place(i, blocks)` stores them
  /// (named by record words) and they leave the stash. Every union
  /// bucket's ancestors are in the union, so the blocks eligible at a
  /// bucket share their remaining choices and filling it greedily places
  /// as many blocks as any assignment could; the buckets of one level
  /// take disjoint candidates, so their order places nothing
  /// differently.
  void write_back_union(
      const std::function<void(std::size_t i, std::span<const block_ref>)>&
          place);

  /// Deep audit of the client state. `scan_tree` must report every
  /// real block the tree stores, with its record's leaf and its bucket;
  /// the audit checks that each lies on the path to that leaf and
  /// appears once, and that the resident count matches. A keyed tree
  /// also checks every record and stash leaf against its position map.
  /// Throws util::contract_error on the first inconsistency.
  void check_client(
      const std::function<void(const stored_fn&)>& scan_tree) const;

  const sim::cpu_model& cpu_;
  util::random_source& rng_;
  std::optional<position_map> positions_;  // keyed trees only
  stash stash_;
  std::uint64_t resident_ = 0;
  tree_stats stats_;

 private:
  std::uint64_t id_universe_;
  std::uint64_t leaf_count_;
  std::uint32_t real_slots_;
  std::size_t payload_bytes_;
  std::uint32_t level_count_;
  std::uint64_t bucket_count_;

  /// Up to Z stash blocks, in stash iteration order, whose path passes
  /// the bucket at `level` on the path to `leaf`, into selected_.
  std::span<const block_ref> select_for_bucket(leaf_id leaf,
                                               std::uint32_t level);

  /// The last select_for_bucket() result (and build placement scratch).
  std::vector<block_ref> selected_;
  /// The planned union's heap indices, root level first, and where each
  /// level starts (one more entry than levels); reused across passes.
  std::vector<std::uint64_t> union_buckets_;
  std::vector<std::size_t> union_level_begin_;
};

}  // namespace horam::oram

#endif  // HORAM_ORAM_COMMON_TREE_CORE_H
