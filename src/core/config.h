// H-ORAM configuration (the knobs of §4 and §5 of the paper).
#ifndef HORAM_CORE_CONFIG_H
#define HORAM_CORE_CONFIG_H

#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "storage/page_layout.h"
#include "util/contracts.h"
#include "util/math.h"

namespace horam {

/// One scheduler stage (§4.2): while this stage is active the scheduler
/// groups `c` in-memory accesses with each storage load. The paper's
/// experiment uses {c=1 for 20%, c=3 for 13%, c=5 for 67%} of each
/// access period.
struct scheduler_stage {
  std::uint32_t c = 1;
  double fraction = 1.0;
};

/// Shuffle execution policies.
enum class shuffle_policy : std::uint8_t {
  /// Foreground: the shuffle's full device time extends the run
  /// (honest accounting, used for Tables 5-3 / 5-4).
  foreground,
  /// Writes are absorbed by a write-back cache and flushed with
  /// otherwise-idle device time during the next access period; leftover
  /// debt stalls the next shuffle (models the page-cache behaviour of
  /// the paper's testbed).
  async_writeback,
  /// The shuffle runs entirely off the critical path (remote server /
  /// off-line hours — the paper's Figure 5-2 non-shuffle case).
  offloaded,
  /// Deamortized: the shuffle becomes an incremental backend job
  /// (oram_backend::begin_shuffle) whose slices run between access
  /// rounds, each bounded by shuffle_slice_budget device time, so no
  /// tenant ever sees the stop-the-world latency cliff. An unbounded
  /// budget (0) degenerates to the foreground machine bit for bit.
  incremental,
};

/// Static parameters of an H-ORAM instance.
struct horam_config {
  /// Real data blocks protected (N).
  std::uint64_t block_count = 0;
  /// Capacity of the in-memory ORAM tree in blocks (n); the access
  /// period allows n/2 storage loads (§4.1.2).
  std::uint64_t memory_blocks = 0;
  /// Application payload bytes per block.
  std::size_t payload_bytes = 0;
  /// Block size used for device timing (the paper uses 1 KB blocks);
  /// 0 = encoded record size.
  std::uint64_t logical_block_bytes = 0;
  /// Path ORAM bucket size (Z).
  std::uint32_t bucket_size = 4;

  /// Scheduler stages; fractions refer to the period's load budget and
  /// should sum to 1 (the last stage absorbs any remainder).
  std::vector<scheduler_stage> stages = {{1, 0.20}, {3, 0.13}, {5, 0.67}};
  /// Prefetch window: the scheduler scans d = prefetch_factor * c
  /// requests ahead in the ROB table (§4.2 requires d > c).
  std::uint32_t prefetch_factor = 3;

  /// Physical partition capacity = partition_slack * (N / #partitions).
  /// 1.05 keeps the storage footprint near the paper's N blocks while
  /// making per-partition overflow negligible (excess is sheltered).
  double partition_slack = 1.05;
  /// Shuffle 1/shuffle_every_periods of the partitions per period
  /// (§5.3.1 partial shuffle; 1 = full shuffle every period).
  std::uint32_t shuffle_every_periods = 1;

  shuffle_policy shuffle = shuffle_policy::foreground;
  /// Device-time budget (ns) of one incremental shuffle slice, pumped
  /// between access rounds under shuffle_policy::incremental (other
  /// policies ignore it). 0 = unbounded: the whole job runs at the
  /// period boundary, reproducing the foreground machine bit for bit.
  /// Public information by design: the budget — and therefore every
  /// slice boundary — depends only on the configuration and the public
  /// bus trace, never on the workload. A slice always runs at least one
  /// indivisible unit of its job, so a budget below one unit's device
  /// time yields unit-long slices. hier sizes its merge unit to the
  /// budget: the largest chunk (at most 512 slots, at least one) whose
  /// modelled device time — command, seek and transfer at the slower
  /// bandwidth — fits it, 210 slots of 1 KiB on net-remote at 2 ms, so
  /// its slices stay within the budget. The partitioned unit (a whole
  /// partition) and the tree backends' drain union are not split and
  /// still overshoot a budget smaller than them.
  sim::sim_time shuffle_slice_budget = 0;

  /// Number of independent controller shards the engine stripes the
  /// block space over (core/engine.h). 1 = a single controller with the
  /// exact historical behavior; > 1 routes requests by a keyed PRF over
  /// the block id and pads every per-shard round to the engine's round
  /// cap (engine::round_cap(), derived from the scheduler geometry) so
  /// the per-shard bus shape stays data-independent. The shards' shuffle
  /// periods end together: when one shard's n/2-load period ends in a
  /// round, or a round leaves some shard round_cap() loads or fewer,
  /// every shard ends its period with that round, so a round carries at
  /// most one shuffle stall and it follows the round's completions.
  /// Deferred shuffles (defers_shuffles()) keep each shard on its own
  /// n/2-load cadence.
  std::uint32_t shard_count = 1;
  /// Seed of the keyed SipHash PRF that routes block ids to shards.
  std::uint64_t route_key_seed = 0x726f757465;  // "route"

  /// Round-scoped request coalescing (src/coalesce/): concurrent
  /// same-block requests merge into one physical access per round and
  /// the result fans back out to every waiting completion. Coalescing
  /// only changes how many *real* slots a round consumes — every shard
  /// still executes exactly engine::round_cap() public slots per round
  /// (dummy-topped), including single-shard engines, so the bus shape
  /// stays data-independent whatever the duplicate rate. Off (default)
  /// is bit-for-bit the non-coalescing machine.
  bool coalescing = false;

  /// Worker threads executing the engine's shard lanes (src/runtime/).
  /// 0 = the single-threaded discrete-event machine: lanes run one after
  /// another on the calling thread. n >= 1 = n workers, clamped to
  /// shard_count (a shard is confined to one thread, so extra workers
  /// could never receive work); single-shard engines, which have no
  /// lanes to overlap, get no workers either way. Traces, stats and
  /// completion times are identical for every value under a fixed seed
  /// — threads only change wall-clock time.
  std::uint32_t worker_threads = 0;

  /// Ring ORAM backend (oram/ring/): real block slots per bucket (the
  /// Ring paper's Z). Ring buckets are wider and shallower than Path
  /// ORAM's, so the knob is separate from bucket_size; the default is
  /// the Ring ORAM paper's proven (Z, S, A) = (16, 25, 20) tuple.
  std::uint32_t ring_bucket_size = 16;
  /// Dummy (spare) slots per Ring ORAM bucket (S). Each online read
  /// consumes one unread slot per bucket; a bucket is reshuffled early
  /// once S slots have been consumed since its last rewrite, so S > A
  /// makes early reshuffles rare.
  std::uint32_t ring_spare_slots = 25;
  /// Ring ORAM eviction rate (A): every A online reads owe one
  /// deterministic reverse-lexicographic path eviction, which runs
  /// (with any others owed) after the lane's completions, not inside a
  /// read. Public information by design — the eviction schedule depends
  /// only on the access count, never on the workload.
  std::uint32_t ring_eviction_rate = 20;
  /// XOR-combined online reads: the storage side folds the one chosen
  /// slot per bucket into a single combined block, which the client
  /// unXORs using the deterministic dummy encodings — one device
  /// transfer per path read instead of one per level. Off falls back
  /// to per-slot reads (same trace shape, one op per chosen slot).
  bool ring_xor = true;

  /// Hierarchical backend (oram/hier/): geometric growth factor between
  /// consecutive levels (level i+1 holds hier_fanout times the real
  /// capacity of level i). Larger fan-outs mean fewer levels — fewer
  /// probes per access — at the price of bigger, rarer merges. It sets
  /// the level growth only: the merge cascade's radix at each level
  /// follows from that level's capacity over the period's hot set.
  std::uint32_t hier_fanout = 4;

  /// Places the recursive position map chain of the tree backends
  /// (path, ring) on the storage device instead of the memory device —
  /// the honest client/server wiring, where each map level is a
  /// dependent storage round trip. Off (default) keeps the historical
  /// map-on-memory machine bit for bit.
  bool map_on_storage = false;

  /// Recursive position map of the path backend: leaf labels packed
  /// into one map block (the compression factor per recursion level).
  std::uint64_t map_entries_per_block = 64;
  /// Stop recursing once a map level's entry count is at or below this;
  /// the residue is held as a plain trusted-memory vector. Small values
  /// force deep recursion (tests); large values approximate the paper's
  /// flat 8-bytes-per-block map.
  std::uint64_t map_direct_threshold = 1024;

  /// Device-side layout of the tree-resident storage lane
  /// (storage/page_layout.h). `flat` (default) is bit-for-bit the
  /// historical one-op-per-bucket machine; `page` packs page-sized
  /// subtree segments so a path costs one transfer per segment, with
  /// valid-bit skipping of never-written segments. The partitioned
  /// backend's storage lane is point-access by design, so the knob is
  /// neutral there.
  storage::storage_layout layout = storage::storage_layout::flat;
  /// Target device page size (bytes) for storage_layout::page; sets the
  /// subtree-segment height. Public information by design: the segment
  /// geometry depends only on the configuration, never on the workload.
  std::uint64_t page_bytes = 16384;

  /// Real sealing (tests) vs plaintext records with modelled crypto
  /// time (large benches).
  bool seal = true;
  std::uint64_t key_seed = 0x686f72616d;  // "horam"

  /// Derived: number of storage partitions (~sqrt(N)).
  [[nodiscard]] std::uint64_t partition_count() const {
    return util::isqrt_ceil(block_count);
  }
  /// Derived: storage loads per access period (n/2).
  [[nodiscard]] std::uint64_t period_loads() const {
    return memory_blocks / 2;
  }
  /// Derived: a shuffle outlives its period boundary as a job pumped
  /// slice by slice (shuffle_policy::incremental with a bounded budget);
  /// every other configuration runs it to completion at the boundary.
  [[nodiscard]] bool defers_shuffles() const {
    return shuffle == shuffle_policy::incremental &&
           shuffle_slice_budget > 0;
  }

  /// Validates the invariants the components rely on.
  void validate() const {
    expects(block_count > 0, "block_count must be positive");
    expects(payload_bytes > 0, "payload_bytes must be positive");
    expects(memory_blocks >= 2 * bucket_size,
            "memory must hold at least one tree bucket pair");
    expects(memory_blocks / 2 < block_count,
            "memory as large as the dataset needs no storage layer");
    expects(!stages.empty(), "at least one scheduler stage");
    for (const scheduler_stage& stage : stages) {
      expects(stage.c >= 1, "stage group size must be >= 1");
      expects(stage.fraction > 0.0, "stage fraction must be positive");
    }
    expects(prefetch_factor >= 1, "prefetch window must cover the group");
    expects(partition_slack >= 1.0, "partition slack below 1 cannot fit");
    expects(shuffle_every_periods >= 1, "shuffle cadence must be >= 1");
    expects(shuffle_slice_budget >= 0,
            "shuffle slice budget cannot be negative");
    expects(shard_count >= 1, "shard count must be >= 1");
    expects(shard_count <= block_count,
            "more shards than blocks leaves shards empty");
    expects(ring_bucket_size >= 1, "ring bucket size (Z) must be >= 1");
    expects(ring_spare_slots >= 1, "ring spare slots (S) must be >= 1");
    expects(ring_eviction_rate >= 1,
            "ring eviction rate (A) must be >= 1");
    expects(hier_fanout >= 2, "hier fan-out must be >= 2");
    expects(map_entries_per_block >= 2,
            "map recursion needs at least two entries per block");
    expects(map_direct_threshold >= 1,
            "map direct threshold must be positive");
    expects(page_bytes > 0, "page_bytes must be positive");
  }
};

}  // namespace horam

#endif  // HORAM_CORE_CONFIG_H
