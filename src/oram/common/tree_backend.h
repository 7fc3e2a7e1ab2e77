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
//     (the same leaf is recorded in the recursive map), and a burst of
//     drain steps — its length a function of the (public) eviction size
//     only — pushes the stash back into the tree. Blocks the drain
//     cannot place simply stay in the stash: the stash is the scheme's
//     trusted holding area, so no overflow is ever handed back.
//
// The adapter keeps the recursive map authoritative at the interface:
// every load first walks the map and verifies the answer against the
// tree's internal bookkeeping (invariant, not assumption), and
// check_consistency() cross-audits tree, stash, residency bitmap and
// map chain.
//
// What differs between schemes — the tree config built from
// horam_config, the key-seed domains, the drain step (a dummy path
// access for Path ORAM, a forced deterministic eviction for Ring ORAM),
// the slot count behind physical_bytes() and any extra trusted state —
// lives in one tree_traits<Tree> specialisation per scheme
// (tree_backend.cpp). A new tree scheme adds a specialisation and an
// explicit instantiation there.
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

  [[nodiscard]] std::string_view name() const noexcept override;
  [[nodiscard]] bool in_storage(block_id id) const override;
  load_result load_block(block_id id) override;
  load_result dummy_load() override;
  /// Shuffle period as a job: the slice units are single stash
  /// re-installs (fresh uniform leaf + map assign) followed by single
  /// drain steps, so the deamortized pipeline can stop after any unit.
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
  /// Drain steps issued by the last shuffle period's stash drain.
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

  /// cached_[id] != 0 iff the live copy moved to the controller's cache.
  std::vector<std::uint8_t> cached_;
  std::uint64_t cached_count_ = 0;
  std::uint64_t last_drain_steps_ = 0;

  horam::backend_stats stats_;
  std::vector<std::uint8_t> payload_scratch_;
};

using path_backend = tree_backend<path_oram>;
using ring_backend = tree_backend<ring_oram>;

extern template class tree_backend<path_oram>;
extern template class tree_backend<ring_oram>;

}  // namespace horam::oram

#endif  // HORAM_ORAM_COMMON_TREE_BACKEND_H
