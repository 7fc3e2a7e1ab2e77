// H-ORAM public facade: the one header applications include.
//
//   #include "horam.h"
//
//   horam::client oram = horam::client_builder()
//                            .blocks(1 << 16)
//                            .cache_ratio(0.125)
//                            .payload_bytes(64)
//                            .backend(horam::backend_kind::partitioned)
//                            .storage_profile("hdd")
//                            .build();
//   oram.write(1234, data);
//   std::vector<std::uint8_t> back = oram.read(1234);
//
// The builder assembles a whole simulated machine (storage device,
// memory device, CPU model, RNG, optional bus trace), picks one of the
// pluggable oram_backend implementations, and wires the controller on
// top. The resulting client owns everything, so callers never juggle
// device lifetimes by hand.
//
// Multi-tenant deployments use build_service() instead: the service
// owns the client and exposes per-tenant session handles whose
// async_read / async_write return future-style tickets; step() /
// run_until_idle() pump the scheduler, interleaving the pending
// requests across tenants under a pluggable fairness policy
// (round-robin or weighted-share), with access-control grants,
// per-tenant stats and an admission-queue depth limit at the facade:
//
//   horam::service svc = horam::client_builder()
//                            .blocks(1 << 16)
//                            .payload_bytes(64)
//                            .cache_ratio(0.125)
//                            .fairness(horam::fairness_kind::round_robin)
//                            .build_service();
//   horam::session alice = svc.open_session();
//   horam::ticket t = alice.async_read(1234);
//   svc.run_until_idle();              // or: t.result() pumps for you
//   const horam::ticket_result& r = t.result();  // payload, latency
//
// Scaling out is one more builder call: shards(n) stripes the block
// space over n independent controller shards behind an oblivious batch
// router (core/engine.h) — requests route by a keyed PRF over the block
// id, every shard's round is padded to a public cap so the per-shard
// bus shape stays data-independent, and shards(1) is bit-for-bit the
// historical single-controller machine. threads(n) additionally runs
// the shard lanes on n real worker threads (src/runtime/): traces,
// stats and completion times stay bit-for-bit identical to the
// single-threaded machine — only wall-clock time changes.
//
// coalescing(on) adds the round-scoped request-coalescing table
// (src/coalesce/): same-block requests of one engine round — across
// sessions and tenants — merge into a single physical ORAM access and
// the result fans back out to every waiting ticket. Rounds stay padded
// to the public cap, so the bus shape is unchanged by construction;
// skewed workloads simply retire more logical requests per physical
// access. coalescing(off) — the default — is bit-for-bit the
// non-coalescing machine.
//
// Layering (Figure 4-1 of the paper, plus the service and engine
// layers):
//
//   application ──► service / sessions (async multi-tenant API:
//                     │                 tickets, fairness, grants)
//                     └─► tenant scheduler — fairness picks, admission
//                           └─► engine — oblivious batch-router:
//                                 │       PRF routing, padded rounds,
//                                 │       completion ordering
//                                 │   └─ coalescer — round-scoped
//                                 │        dedup / fan-out table
//                                 │        (trusted memory, trace-free)
//                                 ├─► controller shard 0 ─┐ cache tree,
//                                 ├─► controller shard 1 ─┤ ROB, secure
//                                 └─► ...                 ┘ scheduler
//                                       └─► oram_backend — pluggable
//                                             │  per-shard store
//                                             ├─ partitioned (§4.1.3)
//                                             ├─ path (Path ORAM +
//                                             │     recursive map)
//                                             ├─ ring (Ring ORAM: one
//                                             │     slot/bucket,
//                                             │     XOR reads)
//                                             └─ hier (succinct index,
//                                                   │   one-round-trip
//                                                   │   batched probes)
//                                                   └─► per-shard
//                                                       sim devices
#ifndef HORAM_HORAM_H
#define HORAM_HORAM_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/controller.h"
#include "core/engine.h"
#include "core/fairness.h"
#include "core/multi_user.h"
#include "core/oram_backend.h"
#include "oram/common/tree_backend.h"
#include "oram/hier/hier_backend.h"
#include "sim/profiles.h"
#include "workload/generators.h"

namespace horam {

/// The pluggable oblivious stores a client can front.
enum class backend_kind : std::uint8_t {
  /// H-ORAM's partitioned storage layer (§4.1.3) — the default.
  partitioned,
  /// Path ORAM tree with a recursive position map (Stefanov et al.,
  /// "Path ORAM: An Extremely Simple Oblivious RAM Protocol").
  path,
  /// Ring ORAM tree (Ren et al., "Constants Count: Practical Improvements
  /// to Oblivious RAM"): Z real + S dummy slots per bucket under a secret
  /// permutation, one slot read per bucket online (XOR-combined into a
  /// single transfer under ring_xor), deterministic reverse-lexicographic
  /// evictions decoupled from reads, early reshuffle on count.
  ring,
  /// Single-round-trip hierarchical store (oram/hier/): geometric
  /// levels of permuted slots with a trusted-memory succinct index, so
  /// every online access ships all its per-level probes — real probe at
  /// the resident level, fresh dummy probes elsewhere — as one batched
  /// exchange with the device. Level merges are streaming range
  /// transfers behind the stepped shuffle-job API.
  hier,
};

/// Every selectable backend, in presentation order (comparison tables,
/// parameterised tests).
inline constexpr backend_kind all_backend_kinds[] = {
    backend_kind::partitioned, backend_kind::path, backend_kind::ring,
    backend_kind::hier};

/// Human-readable backend name
/// ("partitioned" / "path" / "ring" / "hier").
[[nodiscard]] std::string_view backend_name(backend_kind kind);

/// The canonical backend names, index-aligned with all_backend_kinds —
/// the single list name parsing, CLIs, benches and tests share, so
/// adding a backend never chases hard-coded string quartets again.
[[nodiscard]] std::span<const std::string_view> backend_names();

/// Parses a backend name (canonical names plus the aliases "horam",
/// "path-oram" and "ring-oram"); throws contract_error on unknown
/// names.
[[nodiscard]] backend_kind backend_by_name(std::string_view name);

/// Every shuffle execution policy, in presentation order (comparison
/// tables, parameterised tests).
inline constexpr shuffle_policy all_shuffle_policies[] = {
    shuffle_policy::foreground, shuffle_policy::async_writeback,
    shuffle_policy::offloaded, shuffle_policy::incremental};

/// Human-readable shuffle-policy name ("foreground" / "async-writeback"
/// / "offloaded" / "incremental").
[[nodiscard]] std::string_view shuffle_policy_name(shuffle_policy policy);

/// The canonical shuffle-policy names, index-aligned with
/// all_shuffle_policies — the single list name parsing, CLIs, benches
/// and tests share.
[[nodiscard]] std::span<const std::string_view> shuffle_policy_names();

/// Parses a shuffle-policy name (canonical names plus the alias
/// "async_writeback"); throws contract_error on unknown names.
[[nodiscard]] shuffle_policy shuffle_policy_by_name(std::string_view name);

/// Every storage layout, in presentation order (comparison tables,
/// parameterised tests).
inline constexpr storage::storage_layout all_storage_layouts[] = {
    storage::storage_layout::flat, storage::storage_layout::page};

/// Human-readable storage-layout name ("flat" / "page").
[[nodiscard]] std::string_view storage_layout_name(
    storage::storage_layout layout);

/// The canonical storage-layout names, index-aligned with
/// all_storage_layouts — the single list name parsing, CLIs, benches
/// and tests share.
[[nodiscard]] std::span<const std::string_view> storage_layout_names();

/// Parses a storage-layout name; throws contract_error on unknown
/// names.
[[nodiscard]] storage::storage_layout storage_layout_by_name(
    std::string_view name);

/// Named storage profile lookup: "hdd" (paper-calibrated), "hdd-raw",
/// "ssd", "nvme", "net-remote", "dram". Throws contract_error on
/// unknown names.
[[nodiscard]] sim::device_profile storage_profile_by_name(
    std::string_view name);

/// Constructs one of the pluggable backends on `device`. Used by the
/// builder; also handy for tests that drive a backend directly. The
/// path and ring backends place their recursive position-map chains on
/// `map_device` (null = share `device`; the builder passes the
/// machine's memory device); other kinds ignore it.
[[nodiscard]] std::unique_ptr<oram_backend> make_backend(
    backend_kind kind, const horam_config& config,
    sim::block_device& device, const sim::cpu_model& cpu,
    util::random_source& rng, oram::access_trace* trace,
    const std::function<void(oram::block_id, std::span<std::uint8_t>)>*
        filler,
    sim::block_device* map_device = nullptr);

/// A fully wired H-ORAM instance: devices, CPU, RNG, backend and
/// controller, owned together. Move-only; build with client_builder.
class client {
 public:
  client(client&&) noexcept;
  client& operator=(client&&) noexcept;
  client(const client&) = delete;
  client& operator=(const client&) = delete;
  ~client();

  // --- Single-block API. ---
  [[nodiscard]] std::vector<std::uint8_t> read(oram::block_id id);
  void write(oram::block_id id, std::span<const std::uint8_t> data);

  // --- Batch API. ---
  void run(std::span<const request> requests,
           std::vector<request_result>* results = nullptr);

  // --- Incremental session API. ---
  void submit(request req);
  void submit(std::span<const request> requests);
  [[nodiscard]] std::size_t pending() const noexcept;
  void drain(std::vector<request_result>* results = nullptr);

  // --- Introspection. ---
  /// Controller counters, aggregated across shards (application-level:
  /// the router's padding traffic is excluded from requests / hits /
  /// misses; see engine::stats()).
  [[nodiscard]] const controller_stats& stats() const noexcept;
  /// Zeroes every shard's controller and device counters plus the
  /// router counters (benches exclude warm-up); virtual time keeps
  /// running.
  void reset_stats() noexcept;
  [[nodiscard]] sim::sim_time now() const noexcept;
  [[nodiscard]] const horam_config& config() const noexcept;
  [[nodiscard]] backend_kind kind() const noexcept { return kind_; }
  /// Shard 0's oblivious store (exact for shards(1); per-shard stores
  /// via eng().shard(i).backend()).
  [[nodiscard]] const oram_backend& backend() const noexcept;
  /// Shard 0's bus trace, when the builder enabled tracing (null
  /// otherwise; per-shard traces via eng().shard_trace(i)).
  [[nodiscard]] const oram::access_trace* trace() const noexcept;
  /// Shard 0's device lane (per-shard lanes via eng()).
  [[nodiscard]] sim::block_device& storage_device() noexcept;
  [[nodiscard]] sim::block_device& memory_device() noexcept;
  /// Trusted-memory bytes of the control layer (reporting).
  [[nodiscard]] std::uint64_t control_memory_bytes() const;

  /// The sharded engine, for layers that compose on it (the tenant
  /// scheduler) and for routing/round-shape audits.
  [[nodiscard]] engine& eng() noexcept;
  [[nodiscard]] const engine& eng() const noexcept;

  /// Shard 0's controller — exact for shards(1) clients (geometry-aware
  /// audits, historical composition); per-shard via eng().shard(i).
  [[nodiscard]] controller& ctrl() noexcept;
  [[nodiscard]] const controller& ctrl() const noexcept;

 private:
  friend class client_builder;

  struct machine_state;
  client(std::unique_ptr<machine_state> state, backend_kind kind);

  std::unique_ptr<machine_state> state_;
  backend_kind kind_ = backend_kind::partitioned;
};

class service;

/// Service-layer tuning knobs (client_builder::build_service()).
struct service_config {
  /// Cross-tenant scheduling policy (ignored when custom_policy set).
  fairness_kind policy = fairness_kind::round_robin;
  /// Factory for a custom fairness policy (full pluggability).
  std::function<std::unique_ptr<fairness_policy>()> custom_policy;
  /// Max admitted-but-unserviced requests per tenant; async_read /
  /// async_write throw queue_overflow beyond it (0 = unlimited).
  std::size_t max_queue_depth = 0;
};

/// Fluent builder for client instances. Every setter has a sensible
/// default (the paper's experimental machine, the partitioned backend),
/// so `client_builder().blocks(n).payload_bytes(b).build()` works.
class client_builder {
 public:
  /// Real data blocks protected (N). Required.
  client_builder& blocks(std::uint64_t n);
  /// In-memory cache tree capacity in blocks (n).
  client_builder& memory_blocks(std::uint64_t n);
  /// Alternative to memory_blocks: memory = ratio * blocks (clamped to
  /// the config's validity envelope). The paper's runs use ~1/8.
  client_builder& cache_ratio(double ratio);
  /// Application payload bytes per block. Required.
  client_builder& payload_bytes(std::size_t bytes);
  /// Block size used for device timing (0 = encoded record size). A
  /// nonzero value must hold one record: 8 id bytes, payload_bytes(),
  /// and 20 more when sealing; build() rejects smaller values.
  client_builder& logical_block_bytes(std::uint64_t bytes);
  /// Path ORAM bucket size (Z).
  client_builder& bucket_size(std::uint32_t z);
  /// Ring ORAM real slots per bucket (the Ring paper's Z; default 16,
  /// from the paper's proven (Z, S, A) = (16, 25, 20) tuple). Only the
  /// ring backend reads it.
  client_builder& ring_bucket_size(std::uint32_t z);
  /// Ring ORAM dummy (spare) slots per bucket (S; default 25). Each
  /// online read consumes one slot per path bucket; a bucket reshuffles
  /// early once S slots are consumed. Under the ring backend build()
  /// rejects Z + S above 256: slot offsets are stored in 8 bits.
  client_builder& ring_spare_slots(std::uint32_t s);
  /// Ring ORAM eviction rate (A; default 20): one deterministic
  /// reverse-lexicographic path eviction every A online reads.
  client_builder& ring_eviction_rate(std::uint32_t a);
  /// Ring ORAM XOR-combined online reads (default on): the storage side
  /// folds the one chosen slot per bucket into a single combined block,
  /// so a path read costs one device transfer; off falls back to one
  /// transfer per chosen slot.
  client_builder& ring_xor(bool enabled);
  /// Deleted so a string literal cannot decay to pointer-to-bool and
  /// silently read as ring_xor(true).
  client_builder& ring_xor(const char*) = delete;
  /// Hier backend geometric growth factor between consecutive levels
  /// (default 4). Larger fan-outs mean fewer levels — fewer probes per
  /// batched access — at the price of bigger, rarer merges. Only the
  /// hier backend reads it.
  client_builder& hier_fanout(std::uint32_t g);
  /// Places the recursive position-map chain of the tree backends
  /// (path, ring) on the storage device instead of the memory device —
  /// the honest client/server wiring, where each map level is a
  /// dependent storage round trip. Default off, bit-for-bit the
  /// historical map-on-memory machine.
  client_builder& map_on_storage(bool enabled);
  /// Deleted so a string literal cannot read as map_on_storage(true).
  client_builder& map_on_storage(const char*) = delete;

  /// Which oblivious store to front (default: partitioned).
  client_builder& backend(backend_kind kind);
  /// Backend by name (see backend_names()), for configs and CLIs;
  /// throws contract_error naming this setter on unknown names.
  client_builder& backend(std::string_view name);
  /// Independent controller shards the engine stripes the block space
  /// over (default 1 = the exact historical single-controller machine).
  /// The memory budget splits evenly across shards; each shard gets its
  /// own backend instance and storage/memory device lane.
  client_builder& shards(std::uint32_t count);
  /// Round-scoped request coalescing (src/coalesce/): merge same-block
  /// requests of one engine round into a single physical access and fan
  /// the result back to every waiting ticket. Default off, which is
  /// bit-for-bit the non-coalescing machine; on implies padded rounds
  /// on every shard count so the bus shape stays data-independent.
  client_builder& coalescing(bool enabled);
  /// Deleted so a string literal cannot read as coalescing(true).
  client_builder& coalescing(const char*) = delete;
  /// Runs the shard lanes on `n` real worker threads (src/runtime/;
  /// n >= 1, clamped to the shard count at engine construction, since a
  /// shard is confined to exactly one thread). Without this call the
  /// lanes run on the single-threaded discrete-event machine. Traces,
  /// stats and completion times are identical either way for a fixed
  /// seed — only wall-clock time differs.
  client_builder& threads(std::uint32_t n);
  /// Device-side layout of the tree-resident storage lane (default:
  /// flat, bit-for-bit the historical machine). `page` packs page-sized
  /// subtree segments so a path costs one transfer per segment, with
  /// valid-bit skipping of never-written segments
  /// (storage/page_layout.h). Neutral for the partitioned backend,
  /// whose storage lane is point-access by design.
  client_builder& layout(storage::storage_layout layout);
  /// Layout by name (see storage_layout_names()), for configs and
  /// CLIs; throws contract_error naming this setter on unknown names.
  client_builder& layout(std::string_view name);
  /// Target device page size (bytes) for layout(page); sets the
  /// subtree-segment height (default 16 KiB).
  client_builder& page_bytes(std::uint64_t bytes);
  /// Storage device behind the backend (default: paper-calibrated HDD).
  client_builder& storage_profile(const sim::device_profile& profile);
  client_builder& storage_profile(std::string_view name);
  /// Memory device behind the cache tree (default: DDR4).
  client_builder& memory_profile(const sim::device_profile& profile);
  /// Control-layer CPU (default: AES-NI class).
  client_builder& cpu(const sim::cpu_profile& profile);

  /// Shuffle execution policy (default: foreground).
  client_builder& shuffle(shuffle_policy policy);
  /// Shuffle policy by name (see shuffle_policy_names()), for configs
  /// and CLIs; throws contract_error naming this setter on unknown
  /// names.
  client_builder& shuffle(std::string_view name);
  /// Device-time budget (ns) of one incremental shuffle slice, pumped
  /// between access rounds under shuffle_policy::incremental. 0 =
  /// unbounded: bit-for-bit the foreground machine (default).
  client_builder& shuffle_slice_budget(sim::sim_time budget);
  /// Partial shuffling cadence (1 = full shuffle every period).
  client_builder& shuffle_every(std::uint32_t periods);
  /// Scheduler stages (group size / period fraction).
  client_builder& stages(std::vector<scheduler_stage> stages);

  /// Real sealing (default on) vs plaintext with modelled crypto time.
  client_builder& seal(bool on);
  /// RNG seed (deterministic runs).
  client_builder& seed(std::uint64_t seed);
  /// Record the observable bus trace (client.trace()).
  client_builder& trace(bool on);
  /// Initial payload of every block (default: zero-filled).
  client_builder& filler(
      std::function<void(oram::block_id, std::span<std::uint8_t>)> fill);
  /// Escape hatch: edit the derived horam_config before construction
  /// (ablation benches tweaking fields the builder does not expose).
  client_builder& config_tweak(std::function<void(horam_config&)> tweak);

  // --- Service-layer knobs (build_service()). ---
  /// Cross-tenant fairness policy (default: round-robin).
  client_builder& fairness(fairness_kind kind);
  /// Policy by name ("round-robin" | "weighted-share"), for configs
  /// and CLIs; throws contract_error on unknown names.
  client_builder& fairness(std::string_view name);
  /// Custom fairness policy: the factory is invoked once per service.
  client_builder& fairness(
      std::function<std::unique_ptr<fairness_policy>()> factory);
  /// Per-tenant admission-queue depth limit (0 = unlimited).
  client_builder& max_queue_depth(std::size_t depth);

  /// Assembles the machine and returns the ready client. Throws
  /// contract_error naming the missing/invalid setter when the
  /// configuration is incomplete.
  [[nodiscard]] client build() const;

  /// Assembles the machine and wraps it in the asynchronous
  /// multi-tenant service layer.
  [[nodiscard]] service build_service() const;

 private:
  horam_config config_{};
  service_config service_{};
  double cache_ratio_ = 0.0;  // 0 = use config_.memory_blocks
  backend_kind kind_ = backend_kind::partitioned;
  sim::device_profile storage_profile_ = sim::hdd_paper();
  sim::device_profile memory_profile_ = sim::dram_ddr4();
  sim::cpu_profile cpu_profile_ = sim::cpu_aesni();
  std::uint64_t seed_ = 2019;
  bool trace_ = false;
  std::function<void(oram::block_id, std::span<std::uint8_t>)> filler_;
  std::function<void(horam_config&)> tweak_;
};

// ------------------------------------------------------- service layer

/// Outcome of one completed service request.
struct ticket_result {
  /// Read payload (empty for writes).
  std::vector<std::uint8_t> payload;
  /// Simulated latency: completion minus submission (queueing counts).
  sim::sim_time latency = 0;
  /// Virtual timestamp at which the request completed.
  sim::sim_time sim_time = 0;
  /// Control-layer knowledge: memory-resident when first scheduled
  /// (never observable on the bus).
  bool hit = false;
};

/// Future-style handle for one admitted request. Lightweight and
/// copyable; survives its session handle, but observes the service
/// weakly — result() on an unfinished ticket throws once every
/// service/session handle is gone (so stray tickets cannot keep the
/// whole machine alive).
class ticket {
 public:
  ticket() = default;

  /// False for default-constructed tickets only.
  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  /// Service-wide request sequence number.
  [[nodiscard]] std::uint64_t id() const;
  /// The tenant that submitted the request.
  [[nodiscard]] std::uint32_t tenant() const;
  /// True once the request has completed (result() will not pump).
  [[nodiscard]] bool ready() const noexcept;
  /// Blocking get: pumps service.step() until this request completes,
  /// then returns the payload / latency / completion sim_time. Throws
  /// contract_error on empty tickets or when the service is gone.
  [[nodiscard]] const ticket_result& result();

 private:
  friend class service;
  friend class session;
  struct state;
  explicit ticket(std::shared_ptr<state> s) : state_(std::move(s)) {}
  std::shared_ptr<state> state_;
};

class session;

/// Asynchronous multi-tenant service over one client: per-tenant
/// sessions admit requests (validated against grants and the
/// queue-depth limit immediately, so rejection is trace-free), and
/// step() / run_until_idle() pump the scheduler, interleaving pending
/// requests across tenants under the configured fairness policy.
/// Service and session handles share ownership of the underlying
/// machine (tickets hold it weakly); copying a service is cheap and
/// aliases the same instance.
class service {
 public:
  /// Wraps a ready client. Usually spelled client_builder::
  /// build_service(); direct construction suits tests that prepared
  /// the client separately.
  explicit service(client&& oram, service_config config = {});

  /// Registers a tenant with relative share weight `weight` (> 0,
  /// used by weighted-share) and returns its session handle.
  [[nodiscard]] session open_session(double weight = 1.0);

  /// Restricts `tenant` to `grant` from now on. Admission-time checks
  /// mean a denied request never reaches the ORAM.
  void grant(std::uint32_t tenant, user_grant grant);

  /// Serves one scheduling round; returns false (doing nothing) when
  /// no request is pending.
  bool step();
  /// Pumps step() until every tenant queue is drained.
  void run_until_idle();
  [[nodiscard]] bool idle() const;
  /// Admitted-but-unserviced requests across all tenants.
  [[nodiscard]] std::size_t pending() const;

  /// Per-tenant counters since the last reset_stats().
  [[nodiscard]] horam::tenant_stats tenant_stats(
      std::uint32_t tenant) const;
  [[nodiscard]] std::size_t tenant_count() const;
  /// Zeroes per-tenant and controller/device counters (warm-up
  /// exclusion); in-flight requests stay admitted.
  void reset_stats();

  // --- Introspection (aggregate, forwarded to the client). ---
  [[nodiscard]] const controller_stats& stats() const noexcept;
  [[nodiscard]] sim::sim_time now() const noexcept;
  [[nodiscard]] const horam_config& config() const noexcept;
  [[nodiscard]] std::string_view policy_name() const;
  /// The wrapped client (trace access, geometry-aware audits).
  [[nodiscard]] client& underlying() noexcept;
  [[nodiscard]] const client& underlying() const noexcept;

 private:
  friend class session;
  friend class ticket;
  struct impl;
  std::shared_ptr<impl> impl_;
};

/// Per-tenant handle onto a service: submits asynchronous reads and
/// writes, returning tickets. Copyable; all copies refer to the same
/// tenant and keep the service alive.
class session {
 public:
  session() = delete;

  /// Admits a read; throws access_denied / queue_overflow /
  /// contract_error before anything is queued.
  [[nodiscard]] ticket async_read(oram::block_id id);
  /// Admits a write of `data` (padded/truncated to the payload size).
  [[nodiscard]] ticket async_write(oram::block_id id,
                                   std::span<const std::uint8_t> data);

  [[nodiscard]] std::uint32_t tenant() const noexcept { return tenant_; }
  /// This tenant's admitted-but-unserviced request count.
  [[nodiscard]] std::size_t pending() const;
  /// This tenant's counters since the last service reset_stats().
  [[nodiscard]] horam::tenant_stats stats() const;

 private:
  friend class service;
  session(std::shared_ptr<service::impl> impl, std::uint32_t tenant)
      : impl_(std::move(impl)), tenant_(tenant) {}
  [[nodiscard]] ticket admit(request req);

  std::shared_ptr<service::impl> impl_;
  std::uint32_t tenant_ = 0;
};

}  // namespace horam

#endif  // HORAM_HORAM_H
