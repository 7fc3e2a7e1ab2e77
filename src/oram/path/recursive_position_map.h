// Recursive position map — the standard Path ORAM extension the thesis
// leaves out ("we implement Path ORAM and H-ORAM with the naive setting
// (no recursive)", §5.2.1).
//
// The flat position map costs 8 bytes of trusted memory per block
// (4 MB at 2^19 blocks — the annotation in Figure 4-1). Recursion packs
// `entries_per_block` leaf labels into one data block and stores those
// blocks in a smaller Path ORAM, whose blocks' leaves are packed into
// the blocks of a yet smaller ORAM, and so on until the residue fits a
// trusted-memory threshold. Trusted state shrinks geometrically; every
// map operation pays one ORAM access per level instead.
//
// The recursion is the level trees' only map (tree_role::backend, the
// Path ORAM paper's access(bid, leaf, ..., next_leaf)): the residue
// holds the leaves of the deepest level's blocks, each deeper level's
// entries those of the next-shallower level's blocks. An operation
// descends deepest level first; each access reads its blocks under the
// leaves named below and rewrites the shallower blocks' entries with
// fresh leaves. A lookup or an assign() descends through the one block
// per level its id routes through. A shuffle period re-installs its
// whole hot set at once, so the tree backends record all its leaves
// with one map pass (assign_all): the descent through every block,
// each read and written back once, in fixed-size batches, so its cost
// and shape show nothing of the entry count. See
// bench/ablation_recursive_map for the cost of recursion in isolation.
#ifndef HORAM_ORAM_PATH_RECURSIVE_POSITION_MAP_H
#define HORAM_ORAM_PATH_RECURSIVE_POSITION_MAP_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "crypto/key_schedule.h"
#include "oram/common/types.h"
#include "oram/path/path_oram.h"
#include "sim/cpu_model.h"
#include "sim/device.h"
#include "util/rng.h"

namespace horam::oram {

/// Parameters of the recursion.
struct recursive_map_config {
  /// Block ids the map covers.
  std::uint64_t universe = 0;
  /// Leaf labels packed into one map block (the compression factor).
  std::uint64_t entries_per_block = 64;
  /// Stop recursing once a level's entry count is at or below this;
  /// that residue is held as a plain trusted-memory vector.
  std::uint64_t direct_threshold = 1024;
  /// Bucket size of the per-level map ORAMs.
  std::uint32_t bucket_size = 4;
  bool seal = true;
  /// The schedule level k's sealing keys come from, under the label
  /// (map_level, k).
  crypto::key_schedule keys;
};

/// Position map stored in a chain of Path ORAMs.
class recursive_position_map {
 public:
  /// `initial` optionally seeds the map in bulk: initial[id] becomes the
  /// assigned leaf of every id < initial.size() (one streaming build of
  /// the level-0 ORAM instead of per-id assign() accesses). Empty means
  /// every id starts unassigned.
  recursive_position_map(const recursive_map_config& config,
                         sim::block_device& memory_device,
                         const sim::cpu_model& cpu,
                         util::random_source& rng, access_trace* trace,
                         std::span<const leaf_id> initial = {});

  /// Number of ORAM levels below the trusted residue.
  [[nodiscard]] std::uint32_t level_count() const noexcept {
    return static_cast<std::uint32_t>(levels_.size());
  }
  /// Trusted memory the residue occupies (the recursion's win).
  [[nodiscard]] std::uint64_t trusted_bytes() const noexcept {
    return residue_.size() * sizeof(leaf_id);
  }
  /// Untrusted memory the map ORAM chain occupies.
  [[nodiscard]] std::uint64_t oram_bytes() const noexcept;

  /// Looks up the leaf of `id`; `out` is empty when unassigned.
  /// Cost: one ORAM access per level.
  cost_split lookup(block_id id, std::optional<leaf_id>& out);

  /// Assigns a leaf. Cost: one ORAM access per level.
  cost_split assign(block_id id, leaf_id leaf);

  /// One (id, leaf) entry of assign_all().
  struct entry {
    block_id id = 0;
    leaf_id leaf = 0;
  };
  /// Map blocks one access_batch() of the map pass covers.
  static constexpr std::uint64_t kPassBatch = 64;
  /// The map pass: assigns every entry, in order (a later entry for the
  /// same id wins), as assign() one entry at a time would. It reads,
  /// updates and writes back every map block of every level exactly
  /// once, deepest level first, each level in access_batch() calls of
  /// kPassBatch blocks (fewer in the level's last call), in block
  /// order. So its device work and round trips are a function of the
  /// map's geometry alone, whatever `entries` holds, n = 0 included.
  /// Level 0 takes the entries; every deeper entry takes the fresh leaf
  /// of the block it names.
  cost_split assign_all(std::span<const entry> entries);

  /// Visits every assigned (id, leaf) entry without charging device
  /// time (audits only; backends compare it with the leaf each tree
  /// record carries).
  void for_each_assigned(
      const std::function<void(block_id, leaf_id)>& visit) const;

  /// Deep audit of the chain: every level tree passes its own audit,
  /// keeps no map and holds each of its blocks under the leaf the
  /// next-deeper level's entry (or the residue) names. Throws
  /// util::contract_error on the first inconsistency.
  void check_consistency() const;

 private:
  friend struct recursive_position_map_test_access;

  static constexpr leaf_id absent = std::numeric_limits<leaf_id>::max();

  /// Edits the level-0 entries of ids [first, first + payload entries)
  /// (the whole residue when there is no level).
  using edit_fn =
      std::function<void(block_id first, std::span<std::uint8_t> payload)>;
  /// The one descent, deepest level first, each level in access_batch()
  /// calls of kPassBatch blocks in block order: through the one block
  /// per level `route` passes (a walk) or through every block (the
  /// pass). `edit` sees each level-0 block it reaches.
  cost_split descend(std::optional<block_id> route, const edit_fn& edit);

  recursive_map_config config_;
  util::random_source& rng_;
  /// levels_[0] packs the data-level entries; level k + 1 packs the
  /// leaves of level k's blocks.
  std::vector<std::unique_ptr<path_oram>> levels_;
  /// The level-0 entries without levels; else the leaves of the deepest
  /// level's blocks.
  std::vector<leaf_id> residue_;
  /// Descent scratch: the pass's entries grouped by level-0 map block,
  /// and the requests of the level being read and of the next-shallower
  /// one.
  std::vector<entry> pass_entries_;
  std::vector<path_oram::request> requests_;
  std::vector<path_oram::request> next_requests_;
};

}  // namespace horam::oram

#endif  // HORAM_ORAM_PATH_RECURSIVE_POSITION_MAP_H
