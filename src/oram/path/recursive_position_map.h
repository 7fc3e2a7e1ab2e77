// Recursive position map — the standard Path ORAM extension the thesis
// leaves out ("we implement Path ORAM and H-ORAM with the naive setting
// (no recursive)", §5.2.1).
//
// The flat position map costs 8 bytes of trusted memory per block
// (4 MB at 2^19 blocks — the annotation in Figure 4-1). Recursion packs
// `entries_per_block` leaf labels into one data block and stores those
// blocks in a smaller Path ORAM, whose own (smaller) position map is
// stored in a yet smaller ORAM, and so on until the residue fits a
// trusted-memory threshold. Trusted state shrinks geometrically; every
// map operation pays one ORAM access per level instead.
//
// This component is self-contained (it does not change path_oram's
// internals) so the cost of recursion can be measured in isolation; see
// bench/ablation_recursive_map.
#ifndef HORAM_ORAM_PATH_RECURSIVE_POSITION_MAP_H
#define HORAM_ORAM_PATH_RECURSIVE_POSITION_MAP_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

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
  std::uint64_t key_seed = 0x7265636d;  // "recm"
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
  /// Cost: one ORAM read per level.
  cost_split lookup(block_id id, std::optional<leaf_id>& out);

  /// Assigns a leaf. Cost: one ORAM read-modify-write per level.
  cost_split assign(block_id id, leaf_id leaf);

  /// Visits every assigned (id, leaf) entry without charging device
  /// time (audits only; backends compare against the data ORAM's own
  /// bookkeeping).
  void for_each_assigned(
      const std::function<void(block_id, leaf_id)>& visit) const;

 private:
  friend struct recursive_position_map_test_access;

  static constexpr leaf_id absent = std::numeric_limits<leaf_id>::max();

  /// The one map walk: one read-modify-write per level, deepest level
  /// first, each reading the entry `id` routes through. `current`
  /// receives id's level-0 entry as found; with `write` set, level 0's
  /// entry becomes *write and every deeper entry is rewritten as 0.
  cost_split walk(block_id id, std::optional<leaf_id> write,
                  leaf_id& current);

  recursive_map_config config_;
  /// levels_[0] holds the data-level entries; deeper levels hold the
  /// position maps of the shallower map ORAMs.
  std::vector<std::unique_ptr<path_oram>> levels_;
  /// Entry counts per level (level 0 = universe).
  std::vector<std::uint64_t> level_entries_;
  /// Plain trusted map for the deepest level's ORAM.
  std::vector<leaf_id> residue_;
  std::vector<std::uint8_t> payload_scratch_;
};

}  // namespace horam::oram

#endif  // HORAM_ORAM_PATH_RECURSIVE_POSITION_MAP_H
