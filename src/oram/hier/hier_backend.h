// Single-round-trip hierarchical oblivious store (H-ORAM backend).
//
// Classic hierarchical ORAM layouts pay one dependent probe per level;
// tree schemes with a recursive position map pay one dependent trip per
// map level before the data path. This backend removes both chains: a
// trusted-memory succinct index (succinct_index.h) maps every
// storage-resident block to its (level, slot), so an online access
// knows all its probe addresses up front and ships them as ONE batched
// scatter read — a single request/response exchange with the device,
// whatever the level count.
//
// Layout: geometrically growing levels on one contiguous block store.
// Level i holds r_i = r_1 * g^(i-1) real slots (g = hier_fanout, r_1
// sized to the controller's hot set) plus a dummy pool, permuted by a
// fresh keyed Feistel permutation (feistel_prp.h) each epoch:
//   * a real probe reads the slot the index names, after which the
//     block is cached upstream (the slot is never probed again);
//   * a dummy probe reads the slot of the next unused dummy rank, so
//     every active level is probed exactly once per access and no slot
//     repeats within an epoch — the adversary sees fresh uniform slots
//     regardless of the workload;
//   * after a level's public probe budget is spent it is refreshed in
//     place (re-permuted under a new key) by two streaming sweeps — the
//     rare extra round trips behind the "≈1 trip per request" headline;
//   * the shuffle period merges the evicted hot set and all levels
//     above a schedule-chosen target into that target, rebuilt under a
//     fresh permutation — chunked range transfers behind the stepped
//     shuffle-job API, so shuffle_policy::incremental deamortizes it.
//
// Every schedule decision (probe count, refresh instants, merge target,
// chunk boundaries) is a function of the access count and configuration
// only — public by design; payload-dependent state never reaches the
// device outside sealed records.
#ifndef HORAM_ORAM_HIER_HIER_BACKEND_H
#define HORAM_ORAM_HIER_HIER_BACKEND_H

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/config.h"
#include "core/oram_backend.h"
#include "oram/common/access_trace.h"
#include "oram/common/block_codec.h"
#include "oram/hier/feistel_prp.h"
#include "oram/hier/succinct_index.h"
#include "sim/cpu_model.h"
#include "sim/device.h"
#include "storage/block_store.h"
#include "util/rng.h"

namespace horam::oram {

class hier_backend final : public horam::oram_backend {
 public:
  /// Builds the hierarchy with every block of [0, config.block_count)
  /// at the bottom level; `filler` provides initial payloads (null =
  /// zero-filled). `map_device` is accepted for interface parity with
  /// the tree backends and ignored — the position state is the trusted
  /// in-memory index, which is the point of the scheme. Device
  /// statistics are reset afterwards so initialisation is not measured.
  hier_backend(const horam_config& config, sim::block_device& device,
               const sim::cpu_model& cpu, util::random_source& rng,
               access_trace* trace,
               const std::function<void(block_id,
                                        std::span<std::uint8_t>)>* filler,
               sim::block_device* map_device = nullptr);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "hier";
  }
  [[nodiscard]] bool in_storage(block_id id) const override;
  load_result load_block(block_id id) override;
  load_result dummy_load() override;
  /// Shuffle period as a job: slice units are chunked range reads of
  /// the source levels and chunked range writes of the rebuilt target,
  /// each one batched transfer. Merged blocks stay readable/writable
  /// through staged() until their chunk lands; nothing is ever handed
  /// back.
  [[nodiscard]] std::unique_ptr<horam::shuffle_job> begin_shuffle(
      std::vector<evicted_block> evicted,
      std::uint64_t period_index) override;
  [[nodiscard]] const horam::backend_stats& stats() const noexcept override {
    return stats_;
  }
  [[nodiscard]] std::uint64_t physical_bytes() const override;
  [[nodiscard]] std::uint64_t control_memory_bytes() const override;
  void check_consistency() const override;

  /// Number of levels in the hierarchy (L).
  [[nodiscard]] std::uint32_t level_count() const noexcept {
    return static_cast<std::uint32_t>(levels_.size());
  }
  /// Number of levels currently holding an epoch (probed per access).
  [[nodiscard]] std::uint32_t active_levels() const noexcept;
  /// Real capacity r_i of 1-based `level`.
  [[nodiscard]] std::uint64_t level_real_capacity(std::uint32_t level) const;
  /// Total slots c_i of 1-based `level`.
  [[nodiscard]] std::uint64_t level_slot_count(std::uint32_t level) const;
  /// First global slot of 1-based `level`.
  [[nodiscard]] std::uint64_t level_base(std::uint32_t level) const;
  /// Blocks the index maps to 1-based `level`.
  [[nodiscard]] std::uint64_t level_live(std::uint32_t level) const;
  /// Bits per entry of the trusted index.
  [[nodiscard]] unsigned index_entry_bits() const noexcept {
    return index_.entry_bits();
  }
  /// In-place level refreshes performed so far.
  [[nodiscard]] std::uint64_t refresh_count() const noexcept {
    return refreshes_;
  }

 private:
  friend class hier_shuffle_job;

  /// Per-level epoch state; everything here is O(1) trusted memory —
  /// position state lives in the shared succinct index.
  struct level_state {
    std::uint64_t real_capacity = 0;   // r_i
    std::uint64_t dummy_capacity = 0;  // dummy pool d_i
    std::uint64_t slot_count = 0;      // c_i = r_i + d_i
    std::uint64_t base = 0;            // first global slot
    std::uint64_t refresh_after = 0;   // probes before an in-place refresh
    bool active = false;
    std::uint64_t live = 0;            // blocks the index maps here
    std::uint64_t probes = 0;          // probes since epoch start
    std::uint64_t dummies_used = 0;    // dummy ranks consumed this epoch
    std::uint64_t epoch = 0;
    feistel_prp prp;                   // rank -> level-local slot
  };

  /// One batched probe across every active level (the single round
  /// trip). `target` = dummy_block_id probes dummies everywhere;
  /// otherwise the resident level is probed for real and the target's
  /// payload lands in `payload_out` (the block becomes cached).
  cost_split probe_all(block_id target, std::span<std::uint8_t> payload_out);

  /// Refreshes every active level whose probe budget is spent
  /// (suppressed while a merge is in flight; the dummy pools carry the
  /// slack). Public schedule: depends on probe counts only.
  void refresh_due_levels(cost_split& cost);
  void refresh_level(std::size_t idx, cost_split& cost);

  [[nodiscard]] crypto::siphash_key fresh_key();

  horam_config config_;
  const sim::cpu_model& cpu_;
  util::random_source& rng_;
  access_trace* trace_;

  block_codec codec_;
  std::unique_ptr<storage::block_store> store_;
  std::vector<level_state> levels_;
  succinct_index index_;

  /// Blocks whose live copy left storage (controller cache or an
  /// in-flight merge job's staging area): ids with index level 0.
  std::uint64_t cached_count_ = 0;
  bool merge_in_flight_ = false;
  std::uint64_t refreshes_ = 0;

  horam::backend_stats stats_;
  std::vector<std::uint64_t> probe_slots_;
  std::vector<std::uint8_t> probe_buf_;
  std::vector<std::uint8_t> payload_scratch_;
  std::vector<std::uint8_t> level_buf_;
};

}  // namespace horam::oram

#endif  // HORAM_ORAM_HIER_HIER_BACKEND_H
