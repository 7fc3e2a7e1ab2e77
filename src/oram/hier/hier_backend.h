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
//     regardless of the workload; a level's dummy pool is exactly the
//     probes of its longest epoch, (s_i + 1) * n/2 slots: the merge
//     cascade below drains level i every s_i access periods of n/2
//     loads, plus the one period the merge that built it may still be
//     in flight, so every access is exactly one round trip;
//   * the shuffle period merges the evicted hot set and all levels
//     above a schedule-chosen target into that target, rebuilt under a
//     fresh permutation — chunked transfers behind the stepped
//     shuffle-job API, so shuffle_policy::incremental deamortizes it.
//
// The merge schedule is a mixed-radix counter derived from the level
// capacities. A period's hot set is at most its n/2 loads (the cache is
// emptied every period), so level i can take b_i - 1 merges before it
// must move deeper, with b_i = floor(r_i / (s_i * n/2)) + 1, s_1 = 1 and
// s_(i+1) = s_i * b_i. Merge k targets level 1 plus the number of
// trailing zero digits of k + 1 in radices (b_1, b_2, ...), capped at
// L: the m-th merge into level i since its last drain holds at most
// m * s_i hot sets, which fits r_i for every m < b_i, and the bottom
// level holds the dataset. With r_1 = n (two hot sets), g = 4 and three
// levels that is b = (3, 3): a 9-period cycle L1, L1, L2, L1, L1, L2,
// L1, L1, L3.
//
// A merge reads only the complement of each source level's probed set.
// When it starts reading a level it freezes that set: the consumed
// dummy ranks [r_i, r_i + dummies_used) and the real ranks below
// reals_placed whose block the index no longer maps there (one index
// pass, a transient slot -> id map; no trusted state persists). Those
// slots hold an extracted real or a spent dummy, and the bus trace has
// already shown them: every load probes each active level once, at a
// slot never probed before in the epoch. So the read set is a function
// of the public trace, and its size — the level's slots minus the
// loads since the epoch began — of the schedule alone. Every slot read
// must hold the id its rank implies (the frozen live block, or a
// dummy); anything else fails the merge (a moved record), and a block
// is staged only if it is still indexed there (probes after the freeze
// read like any other slot).
//
// Under a bounded incremental budget the merge unit is the largest
// chunk whose modelled device time (command + seek + transfer at the
// slower bandwidth) fits the budget, at most 512 slots and at least
// one: a read unit reads that many unprobed slots within 512, a write
// unit writes that many slots. An unbounded budget, and every other
// policy, keeps 512-slot units.
//
// Rebuilds (merges and the initial build) move levels a chunk of slots
// at a time, and each chunk is one batch on the host: its records
// (one-slot units of oram/common/block_codec.h) open together
// (block_codec::decode_many, every MAC checked before any block is
// staged or any index entry changes, payloads opened in place over the
// chunk), its slots' ranks come from one feistel_prp::inverse_many
// pass, and its rewritten records seal together
// (block_codec::seal_many, nonces in slot order). Online probes open
// their one real record on its own, id and payload in one pass.
//
// Every schedule decision (probe count, merge target, chunk boundaries)
// is a function of the access count, the configuration and the public
// probe trace — public by design; payload-dependent state never reaches
// the device outside sealed records.
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
  /// zero-filled). There is no position-map device: the position state
  /// is the trusted in-memory index, which is the point of the scheme.
  /// Device statistics are reset afterwards so initialisation is not
  /// measured.
  hier_backend(const horam_config& config, sim::block_device& device,
               const sim::cpu_model& cpu, util::random_source& rng,
               access_trace* trace,
               const std::function<void(block_id,
                                        std::span<std::uint8_t>)>* filler);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "hier";
  }
  [[nodiscard]] bool in_storage(block_id id) const override;
  load_result load_block(block_id id) override;
  load_result dummy_load() override;
  /// Shuffle period as a job: slice units are chunked scatter reads of
  /// the source levels' unprobed slots and chunked range writes of the
  /// rebuilt target, each one batched transfer. Merged blocks stay
  /// readable/writable through staged() until their chunk lands;
  /// nothing is ever handed back.
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

 private:
  friend class hier_shuffle_job;
  friend struct hier_backend_test_access;

  /// Per-level epoch state; everything here is O(1) trusted memory —
  /// position state lives in the shared succinct index.
  struct level_state {
    std::uint64_t real_capacity = 0;   // r_i
    std::uint64_t dummy_capacity = 0;  // dummy pool d_i
    std::uint64_t slot_count = 0;      // c_i = r_i + d_i
    std::uint64_t base = 0;            // first global slot
    bool active = false;
    std::uint64_t live = 0;            // blocks the index maps here
    std::uint64_t reals_placed = 0;    // ranks [0, this) hold real blocks
    std::uint64_t dummies_used = 0;    // dummy ranks consumed this epoch
    std::uint64_t epoch = 0;
    feistel_prp prp;                   // rank -> level-local slot
  };

  /// One batched probe across every active level (the single round
  /// trip). `target` = dummy_block_id probes dummies everywhere;
  /// otherwise the resident level is probed for real and the target's
  /// payload lands in `payload_out` (the block becomes cached).
  cost_split probe_all(block_id target, std::span<std::uint8_t> payload_out);

  [[nodiscard]] crypto::siphash_key fresh_key();

  // Chunk batches over level_buf_ (at most kChunkSlots records each).
  /// Composes level slots [first_slot, first_slot + n) under `prp` into
  /// level_buf_ records [at, at + n) and seals them in one batch, nonces
  /// in slot order: a slot whose rank (one inverse_many() pass) is below
  /// `reals` gets compose_real(rank, slot, record), the rest dummies.
  /// Returns the ranks, valid until the next call.
  std::span<const std::uint64_t> compose_chunk(
      const feistel_prp& prp, std::uint64_t first_slot, std::uint64_t n,
      std::uint64_t at, std::uint64_t reals,
      const std::function<void(std::uint64_t, std::uint64_t,
                               std::span<std::uint8_t>)>& compose_real);
  /// Opens level_buf_ records [first, first + n) in one batch, in
  /// place: ids to chunk_ids_, and the n payloads packed over the
  /// chunk's first records, returned. Every MAC is checked before
  /// anything is written.
  std::span<const std::uint8_t> open_level_buf(std::uint64_t first,
                                               std::uint64_t n);

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

  horam::backend_stats stats_;
  std::vector<std::uint64_t> probe_slots_;
  std::vector<std::uint8_t> probe_buf_;
  std::vector<std::uint8_t> payload_scratch_;
  std::vector<std::uint8_t> level_buf_;
  std::vector<std::span<std::uint8_t>> seal_spans_;
  std::vector<std::span<const std::uint8_t>> open_spans_;
  std::vector<block_id> chunk_ids_;
  std::vector<std::uint64_t> chunk_ranks_;
};

}  // namespace horam::oram

#endif  // HORAM_ORAM_HIER_HIER_BACKEND_H
