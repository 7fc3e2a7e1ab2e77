// Sharded ORAM engine: an oblivious batch-router over N independent
// controller shards.
//
// A single controller funnels every request through one storage lane,
// one shuffle period and one ROB, so throughput is capped by a single
// device no matter how many tenants the service admits. The engine
// stripes the block space over shard_count independent controllers —
// each with its own backend instance, storage/memory device lanes, ROB
// and shuffle period — and becomes the unit of execution the facade and
// the tenant scheduler pump.
//
// Routing privacy: a bare deterministic shard index would let the bus
// adversary count per-shard access frequencies and recover cross-shard
// workload skew. Requests are therefore routed by a keyed SipHash PRF
// over the block id (the mapping is secret and balanced; the engine
// recomputes it per request and keeps only a packed global-to-local id
// table in trusted memory), and the engine executes in *rounds*: each round every shard runs exactly
// round_cap() request slots — real requests from its queue, topped up
// with dummy requests on uniformly random shard-local blocks — so the
// per-shard bus shape is data-independent whatever the skew. The cap
// derives from the scheduler geometry alone (enough to keep a shard's
// prefetch window full for a round), so it is public by construction. A
// completion-ordering layer maps shard-local completion sim-times back
// onto the engine's global clock (lanes run in parallel: a round lasts
// the slowest shard), so ticket/latency semantics are unchanged.
//
// Aligned period ends: because a round lasts its slowest shard, a
// shard's shuffle stalls every lane of the round it falls in. Left to
// their own n/2-load budgets the shards' periods drift apart and their
// shuffles land in different rounds, each stalling the whole engine.
// So when any padded shard's period ends during an execution, every
// other shard ends its period at the end of that same execution (a
// second lane pass of controller::end_period, on each shard's own
// worker when threaded; the shuffle time extends that lane, and
// completions are untouched). A period that ends mid-lane still
// stalls that lane's later completions, so a round that leaves some
// shard round_cap() loads or fewer also ends every shard's period: a
// round lane makes at most one load per slot (every cycle retires a
// request, a miss from its own load's fill), so the next round cannot
// reach a budget before its lanes' last cycle, and no completion waits
// for a shuffle. Looking ahead gives up to round_cap() loads of a
// period, so it needs a period that holds two whole rounds
// (period_loads() > 2 · round_cap()); shorter periods would shrink to
// one round each.
// The load budget still ends a period at n/2 loads, so aligning only
// shortens periods. Only padded multi-shard rounds (step_round())
// look ahead; a batch runs whole periods anyway. Deferred shuffles
// (horam_config::defers_shuffles(): incremental with a bounded budget)
// are not aligned: their device time is spread over slices, not one
// round's stall, so aligning them would only add periods, and a forced
// end could find a job still in flight and drain it in the foreground.
// The rule is oblivious: its trigger is a function of each shard's
// load count and the public configuration (round_cap() included), and
// every cycle makes one visible load, so those counts are already on
// the bus.
//
// The round-end pass: the aligned period ends above run as one pass
// after the lanes, on each shard's own worker, and the same pass
// settles the work loads leave owed (oram_backend::load_result::
// deferred: Ring ORAM's scheduled evictions, one per A loads). In a
// padded multi-shard round (step_round()) the lanes leave that work
// owed (controller::serve) instead of running it after their last
// completion. The pass then runs, on every shard whose period it does
// not end, exactly E owed units as one union, where E is the smallest
// count any of the round's shards owes (controller::settle); each shard
// carries the rest, and a period end still runs everything owed before
// its shuffle. Left to their own counts, the shards whose loads crossed
// a multiple of A would each run an extra eviction, and every round
// would last the slowest of them; with one count no lane waits on
// another's. The settle rule is oblivious too: a shard owes ⌊loads/A⌋
// less the units already run, and both follow from the load counts the
// bus shows (E included), so where each union falls and how many paths
// it evicts carry nothing else. A single-shard engine, and a batch
// (run(), drain()), keep settling each lane's own count at its end.
//
// Every entry point — run(), drain() and step_round() — goes through one
// executor that pops each shard's queue into a lane task, runs the lanes
// and merges their reports. The entry points differ only in how much
// they pop: a round takes at most round_cap() physical accesses per
// shard, a batch takes the whole queue and pads each lane to a whole
// number of rounds.
//
// shard_count == 1 without coalescing degenerates to an exact
// pass-through around one controller: no PRF, no padding, an identity
// time mapping — bit-for-bit the historical single-controller behavior
// (tests assert this).
//
// Request coalescing (config.coalescing, src/coalesce/): each round the
// coordinator folds same-block requests into one physical access per
// block via a trusted-memory round_table and fans the result back out
// to every member. Only the *real* slot count changes — rounds are
// still topped up to the public cap with dummies, now for single-shard
// engines too, so the bus shape stays data-independent whatever the
// duplicate rate. Off is bit-for-bit the non-coalescing machine (the
// pad stream is never drawn on a single shard with coalescing off).
//
// Execution runtime: config.worker_threads = 0 services lanes on the
// historical single-threaded machine; n >= 1 spawns n worker threads
// (clamped to the shard count; src/runtime/) when there is more than
// one shard. Either way a shard's controller, backend, devices, RNG and
// trace are touched by exactly one thread at a time: with workers,
// shard s is confined to worker s % worker_threads(), the coordinator
// keeps the routing queues, and the only data crossing threads are
// lane_task messages in and lane_report messages out through bounded
// mailboxes. Reports merge in shard-index order regardless of finish
// order, so a fixed seed produces bit-for-bit identical traces, stats
// and completion times whatever the thread count.
#ifndef HORAM_CORE_ENGINE_H
#define HORAM_CORE_ENGINE_H

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "coalesce/coalescer.h"
#include "core/config.h"
#include "core/controller.h"
#include "crypto/siphash.h"
#include "oram/common/access_trace.h"
#include "oram/common/types.h"
#include "runtime/mailbox.h"
#include "runtime/worker_pool.h"
#include "sim/cpu_model.h"
#include "sim/device.h"
#include "util/packed_array.h"
#include "util/rng.h"

namespace horam {

/// Router-level counters, beyond the per-shard controller stats.
struct engine_stats {
  /// Padded router rounds executed (0 for a single shard without
  /// coalescing, whose batches pass straight through to the controller).
  std::uint64_t rounds = 0;
  /// Application requests serviced.
  std::uint64_t real_requests = 0;
  /// Dummy requests injected to pad shard rounds to the public cap.
  std::uint64_t pad_requests = 0;
  /// Hit/miss split of the padding traffic (control-layer knowledge;
  /// lets stats() report application-level hit rates).
  std::uint64_t pad_hits = 0;
  std::uint64_t pad_misses = 0;
  /// Real (non-dummy) physical ORAM accesses issued — one per
  /// coalescing group. Equals real_requests with coalescing off.
  std::uint64_t physical_accesses = 0;
  /// Logical requests absorbed by the round coalescing table without a
  /// physical access of their own (real_requests - physical_accesses);
  /// 0 with coalescing off.
  std::uint64_t coalesced_requests = 0;
  /// Padded executions in which any shard's period ended — at most one
  /// per step_round() round; a batch (run(), drain()) counts once.
  std::uint64_t shuffle_rounds = 0;
  /// Shard periods ended before their own budget by the aligned-end
  /// rule: another shard's period ended in the same execution, or some
  /// shard had round_cap() loads or fewer left after the round (0 under
  /// deferred shuffles).
  std::uint64_t early_period_ends = 0;

  /// Physical ORAM accesses per logical request — the constant factor
  /// coalescing attacks (1.0 with coalescing off; lower is better).
  [[nodiscard]] double ios_per_logical_request() const noexcept {
    return real_requests == 0
               ? 0.0
               : static_cast<double>(physical_accesses) /
                     static_cast<double>(real_requests);
  }
};

class engine {
 public:
  /// Builds the oblivious store of one shard over that shard's own
  /// device lane. `shard_config` is the shard-local view (block_count =
  /// the shard's share, shard-local id space); `shard_blocks` maps
  /// shard-local ids back to global ids (empty = identity, the
  /// single-shard case) so fillers can be rebased.
  using shard_factory = std::function<std::unique_ptr<oram_backend>(
      std::uint32_t shard_index, const horam_config& shard_config,
      sim::block_device& storage, sim::block_device& memory,
      const sim::cpu_model& cpu, util::random_source& rng,
      oram::access_trace* trace,
      std::span<const oram::block_id> shard_blocks)>;

  /// Completion delivery for the incremental round API: the token
  /// submit() returned and the request's result with completion_time
  /// already mapped onto the engine's global clock.
  using completion =
      std::function<void(std::uint64_t token, request_result&& result)>;

  /// Machine-lane parameters shared by every shard.
  struct options {
    sim::device_profile storage_profile;
    sim::device_profile memory_profile;
    std::uint64_t seed = 0;
    /// Record each shard's observable bus trace (shard_trace()).
    bool trace = false;
  };

  /// Owning constructor: assembles shard_count() device lanes, invokes
  /// `factory` once per shard and wires one controller per shard.
  /// `config` is the global view (block_count = whole dataset,
  /// memory_blocks = total cache budget, split evenly across shards).
  engine(const horam_config& config, const sim::cpu_model& cpu,
         const shard_factory& factory, const options& opts);

  engine(const engine&) = delete;
  engine& operator=(const engine&) = delete;
  ~engine();  // defined where shard_state is complete

  // ----------------------------------------------------------- routing

  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  /// Shard owning global block `id` (keyed PRF; identity-0 for one
  /// shard).
  [[nodiscard]] std::uint32_t shard_of(oram::block_id id) const;
  /// `id` translated into its shard's local block space.
  [[nodiscard]] oram::block_id shard_local_id(oram::block_id id) const;
  /// Request slots every shard executes per round: a function of the
  /// scheduler stages and prefetch factor only (public by design).
  [[nodiscard]] std::uint32_t round_cap() const noexcept {
    return round_cap_;
  }
  /// Worker threads servicing shard lanes: 0 when config.worker_threads
  /// is 0 (and for single-shard engines, which have nothing to
  /// overlap), otherwise the clamped thread count actually spawned.
  [[nodiscard]] std::uint32_t worker_threads() const noexcept {
    return pool_ != nullptr ? static_cast<std::uint32_t>(pool_->size()) : 0;
  }

  /// Per-shard RNG seed derivation: a SipHash PRF keyed by
  /// route_key_seed over (domain, shard), XOR-folded into the machine
  /// seed. Distinct shards and domains (0 = the shard's ORAM RNG, 1 =
  /// its pad-id stream) get independent streams regardless of how
  /// close the base seeds are — unlike sequential seeding, nearby seeds
  /// can never alias a neighbouring shard's stream. Sealing keys are
  /// not derived here: each shard's root comes from the key schedule
  /// (crypto/key_schedule.h). Exposed for the RNG-hygiene regression
  /// tests.
  [[nodiscard]] static std::uint64_t derive_shard_seed(
      std::uint64_t route_key_seed, std::uint64_t seed, std::uint32_t shard,
      std::uint32_t domain);

  // --------------------------------------------------------- batch API

  /// Routes and services `requests` to completion without touching the
  /// incremental queue; per-request results land in submission order
  /// when `results` is non-null. The same batch execution as drain():
  /// one controller batch per lane (padded to whole rounds when the
  /// engine pads) — for one shard without coalescing, exactly
  /// controller::run.
  void run(std::span<const request> requests,
           std::vector<request_result>* results = nullptr);

  // --------------------------------------- incremental round API
  // (tenant_scheduler / horam::service pump these)

  /// Validates and queues one request on its shard; returns a token
  /// identifying it in step_round() completions.
  std::uint64_t submit(request req);
  /// Throws util::contract_error for a request no round can serve — an
  /// id outside the block space, or a write longer than a block
  /// payload. Every admission path (run, submit, the client and the
  /// tenant scheduler) calls it before queueing anything.
  void check_admissible(const request& req) const;
  /// Requests queued but not yet serviced.
  [[nodiscard]] std::size_t pending() const noexcept {
    return pending_total_;
  }
  /// Physical round slots the current queue will consume: distinct
  /// queued blocks per shard under coalescing, else pending(). The pump
  /// layer (tenant_scheduler) fills rounds against this — one access
  /// retiring many tickets must not count as many slots, or the pump
  /// would under-fill every round exactly when coalescing is winning.
  [[nodiscard]] std::size_t pending_slots() const noexcept {
    return config_.coalescing ? pending_slots_ : pending_total_;
  }
  /// Executes one engine round: every padded shard runs round_cap()
  /// request slots (an unpadded engine runs everything queued), lanes
  /// in parallel, completions delivered in global completion order.
  /// Returns false (doing nothing) when no request is queued.
  bool step_round(const completion& on_complete = {});
  /// Services the whole queue as one batch, like run(); per-request
  /// results (in submission order) are captured when `results` is
  /// non-null.
  void drain(std::vector<request_result>* results = nullptr);

  /// Requests an incremental pump should submit per scheduling round:
  /// the single controller's refill target, or shard_count * round_cap.
  [[nodiscard]] std::uint64_t round_budget() const;

  // ------------------------------------------------------ introspection

  /// Global virtual time: the single controller's clock, or the
  /// parallel-lane clock (rounds last their slowest shard).
  [[nodiscard]] sim::sim_time now() const noexcept;
  [[nodiscard]] const horam_config& config() const noexcept {
    return config_;
  }
  /// Aggregated controller counters across shards. Request-level
  /// counters (requests / hits / misses) exclude the router's padding
  /// traffic so hit rates and throughput stay application-level;
  /// resource counters (cycles, loads, busy times) stay raw, and
  /// total_time is the parallel wall-clock window.
  [[nodiscard]] const controller_stats& stats() const noexcept;
  [[nodiscard]] const engine_stats& router_stats() const noexcept {
    return stats_;
  }
  /// Zeroes every shard's controller and device counters plus the
  /// router counters; restarts the wall-clock window.
  void reset_stats() noexcept;

  [[nodiscard]] controller& shard(std::uint32_t index);
  [[nodiscard]] const controller& shard(std::uint32_t index) const;
  /// The shard's device lane.
  [[nodiscard]] sim::block_device& shard_storage(std::uint32_t index);
  [[nodiscard]] const sim::block_device& shard_storage(
      std::uint32_t index) const;
  [[nodiscard]] sim::block_device& shard_memory(std::uint32_t index);
  [[nodiscard]] const sim::block_device& shard_memory(
      std::uint32_t index) const;
  /// The shard's bus trace (null when tracing is off).
  [[nodiscard]] const oram::access_trace* shard_trace(
      std::uint32_t index) const;
  /// Global ids of the blocks shard `index` owns, ascending (empty =
  /// identity, the single-shard case). Recomputed from the routing PRF
  /// on every call: the engine keeps no per-shard id lists.
  [[nodiscard]] std::vector<oram::block_id> shard_blocks(
      std::uint32_t index) const;

  /// Trusted-memory bytes: every shard's control layer plus the
  /// router's packed local ids.
  [[nodiscard]] std::uint64_t control_memory_bytes() const;

 private:
  /// One routed-but-unserviced request (id already shard-local).
  struct routed {
    std::uint64_t tag = 0;
    request req;
  };
  /// One serviced request with its globally mapped result.
  struct completed {
    std::uint64_t tag = 0;
    request_result result;
  };

  struct shard_state;

  /// Routed-requests-in message: everything one lane execution needs,
  /// popped off the coordinator's queues so the queues themselves never
  /// cross a thread boundary. The coalescing table is built by the
  /// coordinator *before* fan-out — each lane receives its finished
  /// groups, so nothing round-scoped is ever shared across threads.
  struct lane_task {
    std::uint32_t shard = 0;
    /// Physical accesses to issue (ids already shard-local), each with
    /// the logical members it retires; dummy-topped up to `slots`
    /// inside the lane. Coalescing off = singleton groups.
    std::vector<coalesce::group> groups;
    std::size_t slots = 0;
    /// Whether the caller wants real-request completions back.
    bool want_out = false;
    /// Leave the work the loads owe owed at the lane's end
    /// (controller::serve) for the round-end pass to settle.
    bool defer_settle = false;
    /// Round-end pass: no requests. End the shard's period (which runs
    /// everything owed first), or else run the first `settle` owed
    /// units.
    bool end_period = false;
    std::uint64_t settle = 0;
  };
  /// Completion-records-out message: the lane's whole observable
  /// outcome, merged by the coordinator in shard-index order so the
  /// merge is independent of thread finish order.
  struct lane_report {
    /// Index of the originating task in the round's task list; lets the
    /// collector place out-of-order mailbox arrivals deterministically.
    std::size_t slot = 0;
    std::uint32_t shard = 0;
    sim::sim_time elapsed = 0;
    /// Logical requests retired (group members).
    std::uint64_t reals = 0;
    /// Real physical accesses issued (groups; == reals when off).
    std::uint64_t physical = 0;
    std::uint64_t pad_requests = 0;
    std::uint64_t pad_hits = 0;
    std::uint64_t pad_misses = 0;
    /// The shard's period ended during the lane.
    bool period_ended = false;
    /// Loads the shard's period has left after the lane.
    std::uint64_t loads_left = 0;
    /// Units of work the shard's loads left owed after the lane.
    std::uint64_t owed = 0;
    std::vector<completed> completions;
    /// Failure shipped back as data; workers must not throw.
    std::exception_ptr error;
  };

  /// The routing PRF: shard of global `id` among config_.shard_count.
  [[nodiscard]] std::uint32_t route(oram::block_id id) const;
  /// The one request-execution path behind run(), step_round() and
  /// drain(): pops `queues` (per-shard routed requests) into lane tasks
  /// — coalesced or singleton groups — runs the lanes, aligns the
  /// shards' period ends, merges the reports, logs the rounds and
  /// advances the clock. `one_round` pops
  /// at most round_cap() physical accesses per padded shard and delivers
  /// completions in global completion order; otherwise the whole queue
  /// runs as one controller batch per lane, padded to a whole number of
  /// cap rounds. Unpadded engines (one shard, coalescing off) take the
  /// whole queue either way. Appends completions to `out` (null =
  /// discard results) and returns the number of requests serviced.
  std::uint64_t execute(std::vector<std::deque<routed>>& queues,
                        bool one_round, std::vector<completed>* out);
  /// Pure lane executor: pads task.groups to task.slots dummy-topped
  /// request slots, runs them on the task's shard and maps completions
  /// onto the global clock at `start` — or, for an end_period task,
  /// ends the shard's period. Touches only that shard's state
  /// (thread-confined under the threaded runtime); router bookkeeping
  /// travels back in the report. Never throws — failures ship as
  /// report.error.
  lane_report service_lane(lane_task&& task, sim::sim_time start) noexcept;
  /// Runs every task and returns their reports in task order —
  /// sequentially on the calling thread (sim), or fanned out to the
  /// per-shard workers and collected from the report mailbox
  /// (threaded). Rethrows the first failed lane in shard-index order
  /// after every report is in.
  std::vector<lane_report> run_lanes(std::vector<lane_task>&& tasks,
                                     sim::sim_time start);
  /// The round-end pass, on each shard's own lane after its
  /// completions: with `align` set, ends the period of every reporting
  /// shard whose period did not end in its lane (aligned period ends);
  /// every other shard runs the first `settle` units its loads left
  /// owed. Adds the pass's time to the shard's report.elapsed.
  void round_end_pass(std::vector<lane_report>& reports, bool align,
                      std::uint64_t settle, sim::sim_time start);
  /// Whether some reporting shard has so few loads left in its period
  /// that the next round could reach its budget mid-lane.
  [[nodiscard]] bool next_round_may_end_a_period(
      const std::vector<lane_report>& reports) const;
  /// Merges one lane's report into router state: stats, completions,
  /// the round's longest-lane tracking.
  void merge_report(lane_report&& report, std::vector<completed>* out,
                    sim::sim_time& longest);
  /// Incremental-queue slot accounting: one submitted entry of `local`
  /// on shard `s` was popped into a round (coalescing only).
  void note_popped(std::uint32_t s, oram::block_id local) noexcept;

  horam_config config_;
  crypto::siphash_key route_key_{};
  std::vector<std::unique_ptr<shard_state>> shards_;
  /// Global id -> shard-local id, packed at ⌈log₂ largest shard⌉ bits
  /// (empty for one shard: identity). The shard itself is not stored:
  /// route() recomputes the keyed PRF, SipHash-2-4(route key, id) mod
  /// shard count.
  util::packed_array local_id_of_;

  std::uint32_t round_cap_ = 0;
  /// Parallel-lane global clock (shard_count > 1; one shard reads the
  /// controller's clock directly).
  sim::sim_time global_now_ = 0;
  /// Wall-clock origin of the current stats window.
  sim::sim_time stats_epoch_ = 0;

  /// Incremental queues, one per shard, tags = submit() tokens.
  std::vector<std::deque<routed>> queues_;
  std::size_t pending_total_ = 0;
  std::uint64_t next_token_ = 1;
  /// Queued entries per (shard, shard-local block) — the distinct-block
  /// view behind pending_slots() (maintained only under coalescing).
  std::vector<std::unordered_map<oram::block_id, std::uint32_t>>
      queued_counts_;
  std::size_t pending_slots_ = 0;

  engine_stats stats_;
  /// Cache backing the stats() reference.
  mutable controller_stats aggregate_;

  /// Worker threads (null when config.worker_threads is 0 and for
  /// single-shard engines). Declared last so workers are stopped and
  /// joined before anything they might reference is torn down.
  std::unique_ptr<runtime::mailbox<lane_report>> reports_;
  std::unique_ptr<runtime::worker_pool> pool_;
};

}  // namespace horam

#endif  // HORAM_CORE_ENGINE_H
