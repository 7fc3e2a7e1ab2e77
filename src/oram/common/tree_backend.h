// Tree ORAMs (Path ORAM, Stefanov et al.; Ring ORAM, Ren et al.) as
// H-ORAM backends — one oram_backend adapter for every tree scheme
// behind the cacheable interface.
//
// The layout is a storage-resident tree sized for ~2N real slots (≤50%
// utilisation over Z real slots per bucket, §2.1.2); the scheme's
// client state is the stash plus a recursive position map
// (recursive_position_map) whose ORAM chain lives on a separate memory
// device. Fronted by the H-ORAM controller (whose cache tree plays the
// role of a very large shelter):
//   * a real miss walks the recursive map (one ORAM access per level)
//     to locate the block's leaf, then extracts the block with one
//     tree access — the live copy moves to the controller's tree;
//   * a dummy load performs a dummy map walk (uniform random id) plus a
//     dummy tree access, so real and dummy loads are indistinguishable
//     on both the map and the tree bus;
//   * the shuffle period is the tree schemes' no-reshuffle answer:
//     every evicted block re-enters the stash with a fresh uniform leaf
//     (one map pass records every such leaf in the recursive map,
//     touching each map block once whatever n is), and a burst of
//     drain steps — its length a function of the (public) eviction size
//     n only — pushes the stash back into the tree. Path ORAM runs
//     levels + 2·⌈n/Z⌉ dummy accesses; Ring ORAM runs ⌈n/A⌉ forced
//     evictions as one union, the one-eviction-per-A-insertions rate of
//     its own schedule (Ren et al., "Constants Count"), so its stash
//     bound covers the drain as it covers online accesses. A bounded
//     conditional tail runs only if the stash still exceeds 2Z. Blocks
//     the drain cannot place simply stay in the stash: the stash is the
//     scheme's trusted holding area, so no overflow is ever handed back.
//
// Ring ORAM's scheduled evictions are not part of any load: a load
// after which the tree owes evictions hands them back as
// load_result::deferred, and the controller (or, after a padded
// multi-shard round, the engine's round-end pass) runs all or the first
// few of them after the lane's completions (tree_traits<Tree>::owed /
// run_owed).
//
// The recursive map is the backend's only leaf map, and its own level
// trees' too: every load walks it and hands the answer to the tree's
// extract, which checks it against the block's record (each tree
// record carries its block's leaf, tree_core::pack_record), and
// check_consistency() cross-audits tree, stash, residency bitmap and
// map chain. Residency is the backend's own bitmap; no tree keeps a
// map (tree_role::backend).
//
// What differs between schemes — the tree config built from
// horam_config, the key-seed domains, the drain budget and unit (a
// dummy path access for Path ORAM, a union of forced deterministic
// evictions for Ring ORAM), the slot count behind physical_bytes() and
// any extra trusted state — lives in one tree_traits<Tree> specialisation per
// scheme (tree_backend.cpp). A new tree scheme adds a specialisation
// and an explicit instantiation there.
#ifndef HORAM_ORAM_COMMON_TREE_BACKEND_H
#define HORAM_ORAM_COMMON_TREE_BACKEND_H

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "core/oram_backend.h"
#include "oram/common/access_trace.h"
#include "oram/path/path_oram.h"
#include "oram/path/recursive_position_map.h"
#include "oram/ring/ring_oram.h"
#include "sim/cpu_model.h"
#include "sim/device.h"
#include "util/packed_array.h"
#include "util/rng.h"

namespace horam::oram {

template <class Tree>
class tree_backend final : public horam::oram_backend {
 public:
  /// Builds the tree holding every block in [0, config.block_count);
  /// `filler` provides initial payloads (null = zero-filled). The
  /// recursive position map chain lives on `map_device` (null = share
  /// `device`; the facade passes the machine's memory device). Device
  /// statistics are reset afterwards so initialisation is not measured.
  tree_backend(const horam_config& config, sim::block_device& device,
               const sim::cpu_model& cpu, util::random_source& rng,
               access_trace* trace,
               const std::function<void(block_id,
                                        std::span<std::uint8_t>)>* filler,
               sim::block_device* map_device = nullptr);
  /// Load results hand out a handle into the backend (owed_), so it
  /// stays where it was built.
  tree_backend(const tree_backend&) = delete;
  tree_backend& operator=(const tree_backend&) = delete;

  [[nodiscard]] std::string_view name() const noexcept override;
  [[nodiscard]] bool in_storage(block_id id) const override;
  load_result load_block(block_id id) override;
  load_result dummy_load() override;
  /// Shuffle period as a job. Its slice units are, in order:
  ///   1. the installs: every evicted block gets a fresh uniform leaf
  ///      and enters the tree's stash, and one map pass records all of
  ///      the leaves (recursive_position_map::assign_all) — one unit,
  ///      so no lookup sees a block back before its map entry;
  ///   2. the drain units: one dummy path access each for Path ORAM,
  ///      the whole budget of evictions as one union for Ring ORAM;
  ///   3. the conditional tail, one drain step per unit.
  /// The deamortized pipeline can stop after any unit.
  /// Nothing is ever handed back — the stash is the scheme's trusted
  /// holding area.
  [[nodiscard]] std::unique_ptr<horam::shuffle_job> begin_shuffle(
      std::vector<evicted_block> evicted,
      std::uint64_t period_index) override;
  [[nodiscard]] const horam::backend_stats& stats() const noexcept override {
    return stats_;
  }
  [[nodiscard]] std::uint64_t physical_bytes() const override;
  [[nodiscard]] std::uint64_t control_memory_bytes() const override;
  void check_consistency() const override;

  [[nodiscard]] const Tree& tree() const noexcept { return *tree_; }
  [[nodiscard]] const recursive_position_map& map() const noexcept {
    return *map_;
  }
  /// Drain steps (dummy accesses or evictions, not units) issued by the
  /// last shuffle period's stash drain.
  [[nodiscard]] std::uint64_t last_drain_steps() const noexcept {
    return last_drain_steps_;
  }

 private:
  class drain_job;

  horam_config config_;
  util::random_source& rng_;
  access_trace* trace_;

  std::unique_ptr<Tree> tree_;
  std::unique_ptr<recursive_position_map> map_;

  /// Bit `id` is set iff the live copy moved to the controller's cache.
  util::packed_array cached_;
  std::uint64_t cached_count_ = 0;
  std::uint64_t last_drain_steps_ = 0;

  horam::backend_stats stats_;
  std::vector<std::uint8_t> payload_scratch_;

  /// The handle load results carry while the tree owes work.
  class owed_work final : public horam::deferred_work {
   public:
    explicit owed_work(tree_backend& owner) : owner_(owner) {}
    [[nodiscard]] std::uint64_t owed() const override;
    oram::cost_split run(std::uint64_t limit) override;

   private:
    tree_backend& owner_;
  };
  owed_work owed_{*this};
  /// `result.deferred` for a load that just ran: the handle while the
  /// tree owes work, else null.
  void note_owed(load_result& result);
};

using path_backend = tree_backend<path_oram>;
using ring_backend = tree_backend<ring_oram>;

extern template class tree_backend<path_oram>;
extern template class tree_backend<ring_oram>;

}  // namespace horam::oram

#endif  // HORAM_ORAM_COMMON_TREE_BACKEND_H
