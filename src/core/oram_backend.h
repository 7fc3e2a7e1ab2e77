// The pluggable oblivious-store interface behind the H-ORAM controller.
//
// The paper presents H-ORAM as a cacheable ORAM *interface*: the
// controller owns the in-memory cache tree, the ROB and the scheduler,
// and drives an underlying oblivious store through exactly four
// bus-relevant operations — load a missed block, issue a dummy load,
// answer residency queries, and absorb the evicted hot set during the
// shuffle period. Any scheme that can answer those calls with the right
// obliviousness guarantees can sit below the controller; this header
// names the contract.
//
// Contract (what the controller guarantees / expects):
//   * Construction leaves every block of the configured id space on
//     storage with its initial payload; device statistics are reset so
//     initialisation is not measured.
//   * load_block(id) is only called while in_storage(id) is true; the
//     block afterwards counts as cached (in_storage(id) == false) until
//     a shuffle period re-places it.
//   * dummy_load() may opportunistically return a live block (prefetch);
//     the controller installs whatever comes back into its cache tree.
//   * A load may leave work owed that its own request need not wait
//     for (Ring ORAM's scheduled evictions): its load_result then
//     carries a non-owning deferred_work handle into the backend. The
//     controller runs it after the lane's last completion, or the
//     sharded engine runs a prefix of it at the end of a padded round,
//     and all of it runs before any shuffle period begins; how much is
//     owed follows from the public load count alone. The handle travels
//     in the result rather than through a virtual, so a wrapping
//     backend that forwards only this interface's virtuals still hands
//     it through.
//   * begin_shuffle() receives every cached block (tree eviction plus
//     control-layer shelter) and returns a shuffle_job whose step()s
//     run the shuffle period in bounded device-time slices between
//     foreground rounds. Evicted blocks the job has not placed yet stay
//     readable/writable through staged(), so the controller can keep
//     serving them (covered by dummy path accesses) while the shuffle
//     is in flight. Blocks the scheme cannot place are handed back by
//     finish() and return with the next period's batch. The controller
//     enters every period here; shuffle_period() is the same job run
//     to completion.
//   * check_consistency() performs a deep audit of the control-layer
//     bookkeeping and throws util::contract_error on the first
//     inconsistency (tests call it after stress runs).
#ifndef HORAM_CORE_ORAM_BACKEND_H
#define HORAM_CORE_ORAM_BACKEND_H

#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "oram/common/types.h"
#include "sim/time.h"

namespace horam {

/// Counters shared by every backend. Fields a scheme has no analogue
/// for simply stay zero (e.g. append_segments outside the partitioned
/// store, masking_reads outside partial shuffling).
struct backend_stats {
  std::uint64_t real_loads = 0;
  std::uint64_t dummy_loads = 0;
  std::uint64_t prefetched_blocks = 0;  // live blocks found by dummy loads
  std::uint64_t masking_reads = 0;      // partial-shuffle redundancy
  std::uint64_t exhausted_dummy_loads = 0;  // degenerate: no unread slot
  std::uint64_t partitions_shuffled = 0;
  std::uint64_t append_segments = 0;
  std::uint64_t overflow_blocks = 0;  // could not be placed; to shelter
};

/// Device-time split of one shuffle period, kept separate so the
/// controller can apply the configured shuffle_policy.
struct shuffle_cost {
  sim::sim_time io_read = 0;
  sim::sim_time io_write = 0;
  sim::sim_time memory = 0;
  sim::sim_time cpu = 0;

  [[nodiscard]] sim::sim_time total() const noexcept {
    return io_read + io_write + memory + cpu;
  }

  shuffle_cost& operator+=(const shuffle_cost& other) noexcept {
    io_read += other.io_read;
    io_write += other.io_write;
    memory += other.memory;
    cpu += other.cpu;
    return *this;
  }
};

/// One in-flight shuffle period, stepped in bounded device-time slices
/// (oram_backend::begin_shuffle). Lifecycle: step() until done(), then
/// finish() exactly once. Each step advances at least one indivisible
/// unit of work (a partition rewrite, a stash-drain access), so bounded
/// budgets always terminate; a unit may overshoot the budget — the
/// caller charges what the slice actually cost.
class shuffle_job {
 public:
  virtual ~shuffle_job() = default;

  /// Runs shuffle slices worth at least `device_budget` device time
  /// (<= 0 = unbounded: run the rest of the period) and returns the
  /// slice's device-time split.
  virtual shuffle_cost step(sim::sim_time device_budget) = 0;

  /// True once no work remains (finish() may be called).
  [[nodiscard]] virtual bool done() const noexcept = 0;

  /// True while the job still holds the live copy of `id` in its
  /// trusted-memory staging area (evicted but not yet placed).
  [[nodiscard]] virtual bool holds(oram::block_id id) const = 0;

  /// The staged payload of `id`, or null once the block has been
  /// placed. The controller serves reads from — and writes through
  /// into — this copy (covered by dummy path accesses) while the job
  /// is in flight, so staged blocks stay coherent.
  [[nodiscard]] virtual std::vector<std::uint8_t>* staged(
      oram::block_id id) = 0;

  /// Completes the period: hands back the blocks the scheme could not
  /// place (the controller shelters them). Call exactly once, after
  /// done().
  virtual void finish(std::vector<oram::evicted_block>& overflow_out) = 0;
};

/// Drives `job` to completion in unbounded steps, then finishes it into
/// `overflow_out`; returns the summed cost. This is what
/// oram_backend::shuffle_period() runs.
shuffle_cost run_to_completion(shuffle_job& job,
                               std::vector<oram::evicted_block>& overflow_out);

/// The shuffle period every built-in backend runs (§4.3): the evicted
/// hot set is staged in trusted memory — servable through holds() and
/// staged() — until the backend places each block (unstage) or marks it
/// for hand-back (keep). A backend supplies only its work units and
/// done(); this base owns the staging map, the budget loop and the
/// lifecycle checks, so every job honours the contract the same way.
class staged_shuffle_job : public shuffle_job {
 public:
  /// Runs run_unit() until done(), until the slice has spent
  /// `device_budget`, or until next_unit_bound() says the next unit
  /// would overrun it (<= 0: until done()). The first unit always runs.
  shuffle_cost step(sim::sim_time device_budget) final;
  [[nodiscard]] bool holds(oram::block_id id) const final;
  [[nodiscard]] std::vector<std::uint8_t>* staged(oram::block_id id) final;
  /// Hands back the kept blocks in keep() order; every other block must
  /// have been placed. Then runs on_finish().
  void finish(std::vector<oram::evicted_block>& overflow_out) final;

 protected:
  /// Advances one indivisible unit of work, adding its cost to `slice`.
  /// Only called while !done().
  virtual void run_unit(shuffle_cost& slice) = 0;
  /// Backend bookkeeping once the period completes.
  virtual void on_finish() {}
  /// Upper bound of the device time the next run_unit() spends, or 0
  /// when the job cannot tell (the slice then runs units until it has
  /// spent its budget).
  [[nodiscard]] virtual sim::sim_time next_unit_bound() const noexcept {
    return 0;
  }

  /// Takes `payload` as the live copy of `id` until unstaged.
  void stage(oram::block_id id, std::vector<std::uint8_t> payload);
  /// Removes `id` (which must be staged) and returns its payload.
  std::vector<std::uint8_t> unstage(oram::block_id id);
  /// Marks staged `id` as unplaceable: finish() hands it back.
  void keep(oram::block_id id);
  /// The payload of staged `id`.
  [[nodiscard]] const std::vector<std::uint8_t>& payload_of(
      oram::block_id id) const;
  [[nodiscard]] std::size_t staged_count() const noexcept {
    return staging_.size();
  }

 private:
  std::unordered_map<oram::block_id, std::vector<std::uint8_t>> staging_;
  std::vector<oram::block_id> kept_;
  bool finished_ = false;
};

/// Work a backend owes after a load, run by the caller at a public
/// point after the load's request completes (see the contract above).
/// The work comes in units that must run in order (Ring ORAM: one
/// reverse-lexicographic eviction each), and how many are owed is a
/// function of the public load count. A caller may run a prefix of
/// them and leave the rest owed.
class deferred_work {
 public:
  /// Units owed so far.
  [[nodiscard]] virtual std::uint64_t owed() const = 0;
  /// Runs the first min(limit, owed()) units as one round trip, leaves
  /// the rest owed and returns the cost (zero when that is 0).
  virtual oram::cost_split run(std::uint64_t limit) = 0;

 protected:
  ~deferred_work() = default;
};

class oram_backend {
 public:
  /// Result of a storage load.
  struct load_result {
    oram::cost_split cost;
    /// Block brought into memory (dummy_block_id if the load was a
    /// dummy that found no live block).
    oram::block_id id = oram::dummy_block_id;
    std::vector<std::uint8_t> payload;
    /// Work the backend owes after this load, or null; `cost` excludes
    /// it. Owned by the backend and valid as long as it is.
    deferred_work* deferred = nullptr;
  };

  virtual ~oram_backend() = default;

  /// Human-readable scheme name (reports, comparisons).
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// True iff the live copy of `id` is on storage (not cached).
  [[nodiscard]] virtual bool in_storage(oram::block_id id) const = 0;

  /// Loads the live copy of `id` (must be in storage); marks it cached.
  virtual load_result load_block(oram::block_id id) = 0;

  /// Loads a scheme-chosen dead or unaccessed slot; any live block found
  /// becomes cached (prefetch).
  virtual load_result dummy_load() = 0;

  /// Begins one shuffle period as a job (see shuffle_job): folds
  /// `evicted` (the controller's whole hot set) back into the layout
  /// and re-randomises whatever the scheme re-randomises.
  [[nodiscard]] virtual std::unique_ptr<shuffle_job> begin_shuffle(
      std::vector<oram::evicted_block> evicted,
      std::uint64_t period_index) = 0;

  /// Runs the period begin_shuffle() would start, to completion; blocks
  /// that cannot be placed go to `overflow_out`. Virtual only so a
  /// wrapping backend can time it.
  virtual shuffle_cost shuffle_period(
      std::vector<oram::evicted_block> evicted, std::uint64_t period_index,
      std::vector<oram::evicted_block>& overflow_out);

  [[nodiscard]] virtual const backend_stats& stats() const noexcept = 0;

  /// Physical bytes the storage layout occupies (reporting).
  [[nodiscard]] virtual std::uint64_t physical_bytes() const = 0;

  /// Trusted-memory bytes of the scheme's control-layer bookkeeping
  /// (permutation lists, pools; reporting).
  [[nodiscard]] virtual std::uint64_t control_memory_bytes() const = 0;

  /// Deep audit of the control-layer state; throws contract_error on
  /// the first inconsistency.
  virtual void check_consistency() const = 0;
};

}  // namespace horam

#endif  // HORAM_CORE_ORAM_BACKEND_H
