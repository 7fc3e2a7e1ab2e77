#include "horam.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <string>

#include "util/contracts.h"

namespace horam {

namespace {

/// Name-parse alias: a non-canonical spelling that parses to `value`.
template <class E>
struct name_alias {
  std::string_view name;
  E value;
};

/// One enum's name table: the canonical names, index-aligned with the
/// enum's all_* presentation list, plus parse-only aliases. The
/// *_name / *_names / *_by_name functions and the builder's named
/// setters all read it, so they accept the same names.
template <class E, std::size_t N, std::size_t A = 0>
struct enum_names {
  const E (&values)[N];
  std::array<std::string_view, N> names;
  std::array<name_alias<E>, A> aliases{};

  /// Parses a canonical name or alias; throws contract_error with
  /// `unknown` followed by the canonical names on anything else.
  [[nodiscard]] E parse(std::string_view name, const char* unknown) const {
    for (std::size_t i = 0; i < N; ++i) {
      if (name == names[i]) {
        return values[i];
      }
    }
    for (const name_alias<E>& alias : aliases) {
      if (name == alias.name) {
        return alias.value;
      }
    }
    std::string message(unknown);
    for (std::size_t i = 0; i < N; ++i) {
      message += i == 0 ? " (" : " | ";
      message += names[i];
    }
    message += ")";
    expects(false, message.c_str());
    return values[0];
  }

  [[nodiscard]] std::string_view name_of(E value,
                                         const char* unknown) const {
    for (std::size_t i = 0; i < N; ++i) {
      if (values[i] == value) {
        return names[i];
      }
    }
    expects(false, unknown);
    return {};
  }
};

constexpr enum_names<backend_kind, std::size(all_backend_kinds), 3>
    kBackendNames{
        all_backend_kinds,
        {"partitioned", "path", "ring", "hier"},
        {{{"horam", backend_kind::partitioned},
          {"path-oram", backend_kind::path},
          {"ring-oram", backend_kind::ring}}}};

constexpr enum_names<shuffle_policy, std::size(all_shuffle_policies), 1>
    kShufflePolicyNames{
        all_shuffle_policies,
        {"foreground", "async-writeback", "offloaded", "incremental"},
        {{{"async_writeback", shuffle_policy::async_writeback}}}};

constexpr enum_names<storage::storage_layout, std::size(all_storage_layouts)>
    kStorageLayoutNames{all_storage_layouts, {"flat", "page"}};

}  // namespace

std::string_view backend_name(backend_kind kind) {
  return kBackendNames.name_of(kind, "unknown backend kind");
}

std::span<const std::string_view> backend_names() {
  return kBackendNames.names;
}

backend_kind backend_by_name(std::string_view name) {
  return kBackendNames.parse(name, "unknown backend name");
}

std::string_view shuffle_policy_name(shuffle_policy policy) {
  return kShufflePolicyNames.name_of(policy, "unknown shuffle policy");
}

std::span<const std::string_view> shuffle_policy_names() {
  return kShufflePolicyNames.names;
}

shuffle_policy shuffle_policy_by_name(std::string_view name) {
  return kShufflePolicyNames.parse(name, "unknown shuffle-policy name");
}

std::string_view storage_layout_name(storage::storage_layout layout) {
  return kStorageLayoutNames.name_of(layout, "unknown storage layout");
}

std::span<const std::string_view> storage_layout_names() {
  return kStorageLayoutNames.names;
}

storage::storage_layout storage_layout_by_name(std::string_view name) {
  return kStorageLayoutNames.parse(name, "unknown storage-layout name");
}

sim::device_profile storage_profile_by_name(std::string_view name) {
  if (name == "hdd") {
    return sim::hdd_paper();
  }
  if (name == "hdd-raw") {
    return sim::hdd_7200_raw();
  }
  if (name == "ssd") {
    return sim::ssd_sata();
  }
  if (name == "nvme") {
    return sim::nvme();
  }
  if (name == "net-remote") {
    return sim::net_remote();
  }
  if (name == "dram") {
    return sim::dram_ddr4();
  }
  expects(false,
          "unknown storage profile (hdd | hdd-raw | ssd | nvme | "
          "net-remote | dram)");
  return sim::hdd_paper();
}

std::unique_ptr<oram_backend> make_backend(
    backend_kind kind, const horam_config& config,
    sim::block_device& device, const sim::cpu_model& cpu,
    util::random_source& rng, oram::access_trace* trace,
    const std::function<void(oram::block_id, std::span<std::uint8_t>)>*
        filler,
    sim::block_device* map_device) {
  switch (kind) {
    case backend_kind::partitioned:
      return std::make_unique<storage_layer>(config, device, cpu, rng,
                                             trace, filler);
    case backend_kind::path:
      return std::make_unique<oram::path_backend>(config, device, cpu, rng,
                                                  trace, filler, map_device);
    case backend_kind::ring:
      return std::make_unique<oram::ring_backend>(config, device, cpu, rng,
                                                  trace, filler, map_device);
    case backend_kind::hier:
      return std::make_unique<oram::hier_backend>(config, device, cpu, rng,
                                                  trace, filler);
  }
  expects(false, "unknown backend kind");
  return nullptr;
}

/// Everything a client owns: the CPU model and the sharded engine,
/// which in turn owns every shard's device lane, RNG, trace, backend
/// and controller.
struct client::machine_state {
  sim::cpu_model cpu;
  std::unique_ptr<engine> eng;

  explicit machine_state(const sim::cpu_profile& cpu_profile)
      : cpu(cpu_profile) {}
};

client::client(std::unique_ptr<machine_state> state, backend_kind kind)
    : state_(std::move(state)), kind_(kind) {}

// Defined here, where machine_state is complete.
client::client(client&&) noexcept = default;
client& client::operator=(client&&) noexcept = default;
client::~client() = default;

std::vector<std::uint8_t> client::read(oram::block_id id) {
  std::vector<request> batch(1);
  batch[0].op = oram::op_kind::read;
  batch[0].id = id;
  std::vector<request_result> results;
  state_->eng->run(batch, &results);
  return std::move(results[0].read_data);
}

void client::write(oram::block_id id, std::span<const std::uint8_t> data) {
  std::vector<request> batch(1);
  batch[0].op = oram::op_kind::write;
  batch[0].id = id;
  batch[0].write_data.assign(data.begin(), data.end());
  state_->eng->run(batch, nullptr);
}

void client::run(std::span<const request> requests,
                 std::vector<request_result>* results) {
  state_->eng->run(requests, results);
}

void client::submit(request req) {
  (void)state_->eng->submit(std::move(req));
}

void client::submit(std::span<const request> requests) {
  // Validate the whole batch before queueing so a bad request cannot
  // leave a partial prefix in the session queue.
  for (const request& req : requests) {
    state_->eng->check_admissible(req);
  }
  for (const request& req : requests) {
    (void)state_->eng->submit(req);
  }
}

std::size_t client::pending() const noexcept {
  return state_->eng->pending();
}

void client::drain(std::vector<request_result>* results) {
  state_->eng->drain(results);
}

const controller_stats& client::stats() const noexcept {
  return state_->eng->stats();
}

void client::reset_stats() noexcept { state_->eng->reset_stats(); }

sim::sim_time client::now() const noexcept { return state_->eng->now(); }

const horam_config& client::config() const noexcept {
  return state_->eng->config();
}

const oram_backend& client::backend() const noexcept {
  return state_->eng->shard(0).backend();
}

const oram::access_trace* client::trace() const noexcept {
  return state_->eng->shard_trace(0);
}

sim::block_device& client::storage_device() noexcept {
  return state_->eng->shard_storage(0);
}

sim::block_device& client::memory_device() noexcept {
  return state_->eng->shard_memory(0);
}

std::uint64_t client::control_memory_bytes() const {
  return state_->eng->control_memory_bytes();
}

engine& client::eng() noexcept { return *state_->eng; }

const engine& client::eng() const noexcept { return *state_->eng; }

controller& client::ctrl() noexcept { return state_->eng->shard(0); }

const controller& client::ctrl() const noexcept {
  return state_->eng->shard(0);
}

client_builder& client_builder::blocks(std::uint64_t n) {
  config_.block_count = n;
  return *this;
}

client_builder& client_builder::memory_blocks(std::uint64_t n) {
  config_.memory_blocks = n;
  cache_ratio_ = 0.0;
  return *this;
}

client_builder& client_builder::cache_ratio(double ratio) {
  expects(ratio > 0.0 && ratio < 1.0, "cache ratio must be in (0, 1)");
  cache_ratio_ = ratio;
  return *this;
}

client_builder& client_builder::payload_bytes(std::size_t bytes) {
  config_.payload_bytes = bytes;
  return *this;
}

client_builder& client_builder::logical_block_bytes(std::uint64_t bytes) {
  config_.logical_block_bytes = bytes;
  return *this;
}

client_builder& client_builder::bucket_size(std::uint32_t z) {
  config_.bucket_size = z;
  return *this;
}

client_builder& client_builder::backend(backend_kind kind) {
  kind_ = kind;
  return *this;
}

client_builder& client_builder::backend(std::string_view name) {
  kind_ = kBackendNames.parse(
      name, "client_builder: backend() got an unknown name");
  return *this;
}

client_builder& client_builder::ring_bucket_size(std::uint32_t z) {
  expects(z >= 1, "client_builder: ring_bucket_size() must be >= 1");
  config_.ring_bucket_size = z;
  return *this;
}

client_builder& client_builder::ring_spare_slots(std::uint32_t s) {
  expects(s >= 1, "client_builder: ring_spare_slots() must be >= 1");
  config_.ring_spare_slots = s;
  return *this;
}

client_builder& client_builder::ring_eviction_rate(std::uint32_t a) {
  expects(a >= 1, "client_builder: ring_eviction_rate() must be >= 1");
  config_.ring_eviction_rate = a;
  return *this;
}

client_builder& client_builder::ring_xor(bool enabled) {
  config_.ring_xor = enabled;
  return *this;
}

client_builder& client_builder::hier_fanout(std::uint32_t g) {
  expects(g >= 2, "client_builder: hier_fanout() must be >= 2");
  config_.hier_fanout = g;
  return *this;
}

client_builder& client_builder::map_on_storage(bool enabled) {
  config_.map_on_storage = enabled;
  return *this;
}

client_builder& client_builder::shards(std::uint32_t count) {
  config_.shard_count = count;
  return *this;
}

client_builder& client_builder::coalescing(bool enabled) {
  config_.coalescing = enabled;
  return *this;
}

client_builder& client_builder::layout(storage::storage_layout layout) {
  config_.layout = layout;
  return *this;
}

client_builder& client_builder::layout(std::string_view name) {
  config_.layout = kStorageLayoutNames.parse(
      name, "client_builder: layout() got an unknown name");
  return *this;
}

client_builder& client_builder::page_bytes(std::uint64_t bytes) {
  expects(bytes > 0, "client_builder: page_bytes() must be positive");
  config_.page_bytes = bytes;
  return *this;
}

client_builder& client_builder::threads(std::uint32_t n) {
  expects(n >= 1,
          "client_builder: threads() must be at least 1 — leave it unset "
          "to stay single-threaded");
  config_.worker_threads = n;
  return *this;
}

client_builder& client_builder::storage_profile(
    const sim::device_profile& profile) {
  storage_profile_ = profile;
  return *this;
}

client_builder& client_builder::storage_profile(std::string_view name) {
  storage_profile_ = storage_profile_by_name(name);
  return *this;
}

client_builder& client_builder::memory_profile(
    const sim::device_profile& profile) {
  memory_profile_ = profile;
  return *this;
}

client_builder& client_builder::cpu(const sim::cpu_profile& profile) {
  cpu_profile_ = profile;
  return *this;
}

client_builder& client_builder::shuffle(shuffle_policy policy) {
  config_.shuffle = policy;
  return *this;
}

client_builder& client_builder::shuffle(std::string_view name) {
  config_.shuffle = kShufflePolicyNames.parse(
      name, "client_builder: shuffle() got an unknown policy name");
  return *this;
}

client_builder& client_builder::shuffle_slice_budget(sim::sim_time budget) {
  expects(budget >= 0,
          "client_builder: shuffle_slice_budget() cannot be negative");
  config_.shuffle_slice_budget = budget;
  return *this;
}

client_builder& client_builder::shuffle_every(std::uint32_t periods) {
  config_.shuffle_every_periods = periods;
  return *this;
}

client_builder& client_builder::stages(
    std::vector<scheduler_stage> stages) {
  config_.stages = std::move(stages);
  return *this;
}

client_builder& client_builder::seal(bool on) {
  config_.seal = on;
  return *this;
}

client_builder& client_builder::seed(std::uint64_t seed) {
  seed_ = seed;
  return *this;
}

client_builder& client_builder::trace(bool on) {
  trace_ = on;
  return *this;
}

client_builder& client_builder::filler(
    std::function<void(oram::block_id, std::span<std::uint8_t>)> fill) {
  filler_ = std::move(fill);
  return *this;
}

client_builder& client_builder::config_tweak(
    std::function<void(horam_config&)> tweak) {
  tweak_ = std::move(tweak);
  return *this;
}

client_builder& client_builder::fairness(fairness_kind kind) {
  service_.policy = kind;
  service_.custom_policy = nullptr;
  return *this;
}

client_builder& client_builder::fairness(std::string_view name) {
  return fairness(fairness_by_name(name));
}

client_builder& client_builder::fairness(
    std::function<std::unique_ptr<fairness_policy>()> factory) {
  expects(factory != nullptr, "fairness factory must not be null");
  service_.custom_policy = std::move(factory);
  return *this;
}

client_builder& client_builder::max_queue_depth(std::size_t depth) {
  service_.max_queue_depth = depth;
  return *this;
}

client client_builder::build() const {
  horam_config config = config_;
  if (cache_ratio_ > 0.0) {
    const auto derived = static_cast<std::uint64_t>(
        cache_ratio_ * static_cast<double>(config.block_count));
    // ratio < 1 keeps memory below the dataset; floor at one bucket pair.
    config.memory_blocks =
        std::max<std::uint64_t>(derived, 2 * config.bucket_size);
  }
  if (tweak_) {
    tweak_(config);
  }
  // Per-setter diagnostics before the generic config validation, so an
  // incomplete builder names the call that is missing rather than the
  // derived invariant it broke.
  expects(config.block_count > 0, "client_builder: blocks() not set");
  expects(config.payload_bytes > 0,
          "client_builder: payload_bytes() not set");
  expects(config.logical_block_bytes == 0 ||
              config.logical_block_bytes >=
                  oram::record_bytes_for(config.payload_bytes, config.seal),
          "client_builder: logical_block_bytes() cannot hold a record — "
          "it needs 8 id bytes + payload_bytes(), plus 20 when sealing");
  expects(config.memory_blocks > 0,
          "client_builder: memory_blocks() or cache_ratio() not set");
  expects(config.memory_blocks >= 2 * config.bucket_size,
          "client_builder: memory_blocks() must hold at least one bucket "
          "pair (2 * bucket_size())");
  expects(config.memory_blocks / 2 < config.block_count,
          "client_builder: memory_blocks() must be well below blocks() — "
          "memory as large as the dataset needs no storage layer");
  expects(config.shard_count >= 1,
          "client_builder: shards() must be at least 1");
  if (config.shard_count > 1) {
    expects(config.shard_count <= config.block_count,
            "client_builder: shards() exceeds blocks() — a shard would "
            "own no blocks");
    expects(config.memory_blocks / config.shard_count >=
                2 * config.bucket_size,
            "client_builder: shards() splits memory_blocks() below one "
            "bucket pair (2 * bucket_size()) per shard — lower shards() "
            "or raise memory_blocks()");
  }
  if (kind_ == backend_kind::ring) {
    expects(std::uint64_t{config.ring_bucket_size} + config.ring_spare_slots <=
                256,
            "client_builder: ring_bucket_size() + ring_spare_slots() must be "
            "at most 256 — a ring bucket's slot offsets are 8-bit");
  }
  config.validate();

  auto state = std::make_unique<client::machine_state>(cpu_profile_);

  engine::options opts;
  opts.storage_profile = storage_profile_;
  opts.memory_profile = memory_profile_;
  opts.seed = seed_;
  opts.trace = trace_;

  // Per-shard backend factory: each shard gets its own store over its
  // own device lane; the filler is rebased from shard-local to global
  // ids (identity for a single shard, so the historical construction
  // path is untouched).
  const backend_kind kind = kind_;
  const auto& filler = filler_;
  const engine::shard_factory factory =
      [kind, &filler](std::uint32_t /*shard_index*/,
                      const horam_config& shard_config,
                      sim::block_device& storage, sim::block_device& memory,
                      const sim::cpu_model& cpu, util::random_source& rng,
                      oram::access_trace* trace,
                      std::span<const oram::block_id> shard_blocks) {
        std::function<void(oram::block_id, std::span<std::uint8_t>)>
            rebased;
        const std::function<void(oram::block_id, std::span<std::uint8_t>)>*
            fill_ptr = nullptr;
        if (filler) {
          if (shard_blocks.empty()) {
            fill_ptr = &filler;
          } else {
            rebased = [&filler, shard_blocks](
                          oram::block_id local,
                          std::span<std::uint8_t> out) {
              filler(shard_blocks[local], out);
            };
            fill_ptr = &rebased;
          }
        }
        // map_on_storage puts the tree backends' recursive map chain on
        // the storage lane (the honest client/server wiring, one
        // dependent storage round trip per map level); off keeps the
        // historical map-on-memory machine bit for bit.
        return make_backend(kind, shard_config, storage, cpu, rng, trace,
                            fill_ptr,
                            shard_config.map_on_storage ? &storage : &memory);
      };
  state->eng = std::make_unique<engine>(config, state->cpu, factory, opts);
  return client(std::move(state), kind_);
}

service client_builder::build_service() const {
  return service(build(), service_);
}

// ------------------------------------------------------- service layer

/// Completion slot one ticket points at. The owning impl is held weakly
/// so dropping every service/session handle while requests are in
/// flight cannot leak the machine through a reference cycle.
struct ticket::state {
  std::uint64_t seq = 0;
  std::uint32_t tenant = 0;
  bool done = false;
  ticket_result result;
  std::weak_ptr<service::impl> owner;
};

struct service::impl {
  client oram;
  tenant_scheduler sched;
  /// Tickets awaiting completion, by sequence number.
  std::unordered_map<std::uint64_t, std::shared_ptr<ticket::state>>
      inflight;

  impl(client&& machine, service_config config)
      : oram(std::move(machine)),
        // The engine lives on the heap behind machine_state, so the
        // reference stays valid across the client move above.
        sched(oram.eng(),
              config.custom_policy
                  ? config.custom_policy()
                  : make_fairness_policy(config.policy),
              config.max_queue_depth) {}

  bool step() {
    return sched.step([this](std::uint32_t /*tenant*/, std::uint64_t seq,
                             request_result&& result,
                             sim::sim_time latency) {
      const auto it = inflight.find(seq);
      invariant(it != inflight.end(), "completion for unknown ticket");
      ticket::state& slot = *it->second;
      slot.result.payload = std::move(result.read_data);
      slot.result.latency = latency;
      slot.result.sim_time = result.completion_time;
      slot.result.hit = result.hit;
      slot.done = true;
      inflight.erase(it);
    });
  }
};

service::service(client&& oram, service_config config)
    : impl_(std::make_shared<impl>(std::move(oram), std::move(config))) {}

session service::open_session(double weight) {
  const std::uint32_t tenant = impl_->sched.add_tenant(weight);
  return session(impl_, tenant);
}

void service::grant(std::uint32_t tenant, user_grant grant) {
  impl_->sched.grant(tenant, grant);
}

bool service::step() { return impl_->step(); }

void service::run_until_idle() {
  while (impl_->step()) {
  }
}

bool service::idle() const { return impl_->sched.idle(); }

std::size_t service::pending() const { return impl_->sched.queued(); }

tenant_stats service::tenant_stats(std::uint32_t tenant) const {
  return impl_->sched.stats(tenant);
}

std::size_t service::tenant_count() const {
  return impl_->sched.tenant_count();
}

void service::reset_stats() {
  impl_->sched.reset_stats();
  impl_->oram.reset_stats();
}

const controller_stats& service::stats() const noexcept {
  return impl_->oram.stats();
}

sim::sim_time service::now() const noexcept { return impl_->oram.now(); }

const horam_config& service::config() const noexcept {
  return impl_->oram.config();
}

std::string_view service::policy_name() const {
  return impl_->sched.policy().name();
}

client& service::underlying() noexcept { return impl_->oram; }

const client& service::underlying() const noexcept { return impl_->oram; }

ticket session::admit(request req) {
  auto slot = std::make_shared<ticket::state>();
  slot->tenant = tenant_;
  slot->owner = impl_;
  // enqueue() throws (access_denied / queue_overflow / contract_error)
  // before queueing, in which case no ticket escapes.
  slot->seq = impl_->sched.enqueue(tenant_, std::move(req));
  impl_->inflight.emplace(slot->seq, slot);
  return ticket(std::move(slot));
}

ticket session::async_read(oram::block_id id) {
  request req;
  req.op = oram::op_kind::read;
  req.id = id;
  return admit(std::move(req));
}

ticket session::async_write(oram::block_id id,
                            std::span<const std::uint8_t> data) {
  request req;
  req.op = oram::op_kind::write;
  req.id = id;
  req.write_data.assign(data.begin(), data.end());
  return admit(std::move(req));
}

std::size_t session::pending() const {
  return impl_->sched.queued(tenant_);
}

tenant_stats session::stats() const { return impl_->sched.stats(tenant_); }

std::uint64_t ticket::id() const {
  expects(state_ != nullptr, "empty ticket");
  return state_->seq;
}

std::uint32_t ticket::tenant() const {
  expects(state_ != nullptr, "empty ticket");
  return state_->tenant;
}

bool ticket::ready() const noexcept {
  return state_ != nullptr && state_->done;
}

const ticket_result& ticket::result() {
  expects(state_ != nullptr, "empty ticket");
  while (!state_->done) {
    const std::shared_ptr<service::impl> impl = state_->owner.lock();
    expects(impl != nullptr, "ticket outlived its service");
    invariant(impl->step(), "service idle with an unfinished ticket");
  }
  return state_->result;
}

}  // namespace horam
