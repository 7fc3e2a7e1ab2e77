#include "oram/common/tree_backend.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "util/contracts.h"
#include "util/math.h"

namespace horam::oram {

namespace {

/// What one tree scheme contributes to tree_backend; everything else is
/// shared. One specialisation per scheme.
template <class Tree>
struct tree_traits;

template <>
struct tree_traits<path_oram> {
  using config_type = path_oram_config;
  static constexpr std::string_view name = "path";
  /// Key-seed domains of the tree and the map chain ("Pa", "Pb").
  static constexpr std::uint64_t tree_seed_domain = 0x5061;
  static constexpr std::uint64_t map_seed_domain = 0x5062;

  /// Z: real block slots per bucket.
  static std::uint32_t real_slots(const horam_config& config) {
    return config.bucket_size;
  }
  static void configure(const horam_config& config, config_type& tree) {
    tree.bucket_size = config.bucket_size;
    // Every level on the storage device: memory_levels = 0 leaves the
    // memory store empty, so passing `device` for both lanes is inert.
    tree.memory_levels = 0;
    tree.layout = config.layout;
    tree.page_bytes = config.page_bytes;
  }
  static std::unique_ptr<path_oram> make(const config_type& tree,
                                         sim::block_device& device,
                                         const sim::cpu_model& cpu,
                                         util::random_source& rng,
                                         access_trace* trace) {
    return std::make_unique<path_oram>(tree, device, &device, cpu, rng,
                                       trace, tree_role::backend);
  }
  /// Drain steps for `n` re-installed blocks: a path's worth of dummy
  /// accesses plus two per bucket's worth of blocks.
  static std::uint64_t drain_budget(const horam_config& config,
                                    const path_oram& tree, std::uint64_t n) {
    return tree.level_count() + 2 * util::ceil_div(n, real_slots(config));
  }
  /// Drain steps one unit may run: one, since access_batch takes a
  /// single access under layout(page).
  static constexpr std::uint64_t max_drain_unit = 1;
  /// One drain unit: a dummy path access, whose greedy write-back
  /// places stash blocks along a random path.
  static cost_split drain(path_oram& tree, std::uint64_t /*steps*/) {
    return tree.dummy_access();
  }
  /// Work the online accesses owe: none, Path ORAM evicts in place.
  static std::uint64_t owed(const path_oram& /*tree*/) { return 0; }
  static cost_split run_owed(path_oram& /*tree*/, std::uint64_t /*limit*/) {
    return {};
  }
  /// Storage slots behind physical_bytes().
  static std::uint64_t slots(const path_oram& tree) {
    return tree.capacity_blocks();
  }
  /// Trusted bytes beyond the map residue, stash and residency bitmap.
  static std::uint64_t extra_trusted_bytes(const path_oram& /*tree*/) {
    return 0;
  }
};

template <>
struct tree_traits<ring_oram> {
  using config_type = ring_oram_config;
  static constexpr std::string_view name = "ring";
  /// Key-seed domains of the tree and the map chain ("Ri", "Rj").
  static constexpr std::uint64_t tree_seed_domain = 0x5269;
  static constexpr std::uint64_t map_seed_domain = 0x526a;

  /// Z: real block slots per bucket (spares never hold blocks, so they
  /// don't enter the capacity count).
  static std::uint32_t real_slots(const horam_config& config) {
    return config.ring_bucket_size;
  }
  static void configure(const horam_config& config, config_type& tree) {
    tree.real_slots = config.ring_bucket_size;
    tree.spare_slots = config.ring_spare_slots;
    tree.eviction_rate = config.ring_eviction_rate;
    tree.xor_reads = config.ring_xor;
  }
  static std::unique_ptr<ring_oram> make(const config_type& tree,
                                         sim::block_device& device,
                                         const sim::cpu_model& cpu,
                                         util::random_source& rng,
                                         access_trace* trace) {
    return std::make_unique<ring_oram>(tree, device, cpu, rng, trace);
  }
  /// Drain steps for `n` re-installed blocks: Ring ORAM's own schedule,
  /// one eviction per A stash insertions (Ren et al., "Constants
  /// Count"), so ⌈n/A⌉ — the rate whose stash bound the online
  /// evictions already rely on.
  static std::uint64_t drain_budget(const horam_config& config,
                                    const ring_oram& /*tree*/,
                                    std::uint64_t n) {
    return util::ceil_div(n, config.ring_eviction_rate);
  }
  /// Drain steps one unit may run: any number, as one eviction union.
  static constexpr std::uint64_t max_drain_unit = UINT64_MAX;
  /// One drain unit: `steps` forced deterministic evictions (the
  /// scheme's own write path) as one union, each union bucket read and
  /// written back once.
  static cost_split drain(ring_oram& tree, std::uint64_t steps) {
    return tree.force_evict(steps);
  }
  /// Work the online accesses owe: the scheduled evictions, one per A
  /// accesses; a run takes the first `limit` of them as one union.
  static std::uint64_t owed(const ring_oram& tree) {
    return tree.evictions_owed();
  }
  static cost_split run_owed(ring_oram& tree, std::uint64_t limit) {
    return tree.evict_owed(limit);
  }
  /// Storage slots behind physical_bytes(): real and spare slots.
  static std::uint64_t slots(const ring_oram& tree) {
    return tree.total_slots();
  }
  /// Trusted bytes beyond the map residue, stash and residency bitmap:
  /// the per-bucket permutation records.
  static std::uint64_t extra_trusted_bytes(const ring_oram& tree) {
    return tree.metadata_bytes();
  }
};

/// Smallest power-of-two leaf count following the ≤50%-utilisation
/// convention (§2.1.2, bench/common.cpp's tree-top baseline): the tree
/// holds ~2N real block slots. Computed by doubling so the result is a
/// power of two for every legal Z, not just powers of two.
std::uint64_t backend_leaf_count(std::uint64_t block_count,
                                 std::uint32_t real_slots) {
  std::uint64_t leaves = 1;
  // capacity + Z = 2 * leaves * Z; stop once that reaches 2N.
  while (2 * leaves * real_slots < 2 * block_count) {
    leaves *= 2;
  }
  return leaves;
}

}  // namespace

template <class Tree>
tree_backend<Tree>::tree_backend(
    const horam_config& config, sim::block_device& device,
    const sim::cpu_model& cpu, util::random_source& rng,
    access_trace* trace,
    const std::function<void(block_id, std::span<std::uint8_t>)>* filler,
    sim::block_device* map_device)
    : config_(config), rng_(rng), trace_(trace) {
  using traits = tree_traits<Tree>;
  config_.validate();

  typename traits::config_type tree_config;
  tree_config.leaf_count =
      backend_leaf_count(config_.block_count, traits::real_slots(config_));
  tree_config.payload_bytes = config_.payload_bytes;
  tree_config.logical_block_bytes = config_.logical_block_bytes;
  tree_config.id_universe = config_.block_count;
  tree_config.seal = config_.seal;
  tree_config.key_seed = config_.key_seed ^ traits::tree_seed_domain;
  traits::configure(config_, tree_config);
  tree_ = traits::make(tree_config, device, cpu, rng_, trace_);
  expects(tree_->capacity_blocks() >= config_.block_count,
          "tree backend cannot hold the dataset");

  const std::function<void(block_id, std::span<std::uint8_t>)> zero_fill =
      [](block_id, std::span<std::uint8_t>) {};
  std::vector<leaf_id> leaves;
  tree_->initialize_full(config_.block_count,
                         filler != nullptr ? *filler : zero_fill, &leaves);

  recursive_map_config map_config;
  map_config.universe = config_.block_count;
  map_config.entries_per_block = config_.map_entries_per_block;
  map_config.direct_threshold = config_.map_direct_threshold;
  map_config.bucket_size = config_.bucket_size;
  map_config.seal = config_.seal;
  map_config.key_seed = config_.key_seed ^ traits::map_seed_domain;
  map_ = std::make_unique<recursive_position_map>(
      map_config, map_device != nullptr ? *map_device : device, cpu, rng_,
      trace_, leaves);

  cached_ = util::packed_array(config_.block_count, 1);
  payload_scratch_.resize(config_.payload_bytes);
  device.reset_stats();
  if (map_device != nullptr) {
    map_device->reset_stats();
  }
}

template <class Tree>
std::string_view tree_backend<Tree>::name() const noexcept {
  return tree_traits<Tree>::name;
}

template <class Tree>
bool tree_backend<Tree>::in_storage(block_id id) const {
  expects(id < config_.block_count, "block id out of range");
  return cached_.get(id) == 0;
}

template <class Tree>
oram_backend::load_result tree_backend<Tree>::load_block(block_id id) {
  expects(in_storage(id), "block is not on storage");
  load_result result;
  ++stats_.real_loads;

  // Walk the recursive map for the leaf; the tree checks it against the
  // block's record as it extracts.
  std::optional<leaf_id> mapped;
  result.cost += map_->lookup(id, mapped);
  invariant(mapped.has_value(), "map lost a storage-resident block");
  result.cost += tree_->extract(id, *mapped, payload_scratch_);
  result.id = id;
  result.payload.assign(payload_scratch_.begin(), payload_scratch_.end());
  cached_.set(id, 1);
  ++cached_count_;
  note_owed(result);
  return result;
}

template <class Tree>
oram_backend::load_result tree_backend<Tree>::dummy_load() {
  load_result result;
  ++stats_.dummy_loads;

  // Cover traffic with the same bus shape as a real load: one map walk
  // (of a uniformly random id, value discarded) + one dummy tree
  // access. Nothing is prefetched — the tree access returns its blocks
  // to the tree.
  std::optional<leaf_id> ignored;
  result.cost +=
      map_->lookup(util::uniform_below(rng_, config_.block_count), ignored);
  result.cost += tree_->dummy_access();
  note_owed(result);
  return result;
}

template <class Tree>
void tree_backend<Tree>::note_owed(load_result& result) {
  if (tree_traits<Tree>::owed(*tree_) > 0) {
    result.deferred = &owed_;
  }
}

template <class Tree>
std::uint64_t tree_backend<Tree>::owed_work::owed() const {
  return tree_traits<Tree>::owed(*owner_.tree_);
}

template <class Tree>
oram::cost_split tree_backend<Tree>::owed_work::run(std::uint64_t limit) {
  return tree_traits<Tree>::run_owed(*owner_.tree_, limit);
}

/// Shuffle job over the tree layout: the first slice unit installs the
/// whole hot set and runs the map pass, then come the drain units, so
/// bounded budgets stop between any two units. The drain budget is a
/// per-scheme function of the eviction size n (Path ORAM:
/// levels + 2·⌈n/Z⌉; Ring ORAM: ⌈n/A⌉, one eviction per A insertions as
/// in its online schedule) and runs in as few units as the scheme
/// allows (Path ORAM: one dummy access per unit; Ring ORAM: the whole
/// budget as one eviction union, which a bounded slice cannot split),
/// and the conditional tail one step per unit. Nothing is ever kept —
/// the stash shelters whatever the drain cannot place.
template <class Tree>
class tree_backend<Tree>::drain_job final : public horam::staged_shuffle_job {
 public:
  drain_job(tree_backend& owner, std::vector<evicted_block> evicted,
            std::uint64_t period_index)
      : owner_(owner) {
    trace(owner_.trace_, event_kind::shuffle_begin, period_index);
    order_.reserve(evicted.size());
    for (evicted_block& block : evicted) {
      expects(block.id < owner_.config_.block_count,
              "evicted id out of range");
      order_.push_back(block.id);
      stage(block.id, std::move(block.payload));
    }
    // Drain burst length: a function of the (public) eviction size n
    // and the scheme's public shape only, with a bounded conditional
    // tail so a stubborn stash still drains; whatever remains stays
    // sheltered in the stash. The steps count evictions, however many
    // of them one unit runs.
    drain_budget_ = tree_traits<Tree>::drain_budget(
        owner_.config_, *owner_.tree_, order_.size());
    drain_floor_ = 2 * tree_traits<Tree>::real_slots(owner_.config_);
    extra_ = 4 * drain_budget_ + 64;
    owner_.last_drain_steps_ = 0;
  }

  [[nodiscard]] bool done() const noexcept override {
    return installed_ && drains_done_ >= drain_budget_ &&
           (owner_.tree_->stash_ref().size() <= drain_floor_ ||
            extra_ == 0);
  }

 private:
  void run_unit(horam::shuffle_cost& slice) override {
    if (!installed_) {
      install_all(slice);
    } else if (drains_done_ < drain_budget_) {
      const std::uint64_t steps = std::min(
          drain_budget_ - drains_done_, tree_traits<Tree>::max_drain_unit);
      drains_done_ += steps;
      drain(steps, slice);
    } else {
      --extra_;
      drain(1, slice);
    }
  }

  void on_finish() override {
    ++owner_.stats_.partitions_shuffled;  // the one tree counts as one
  }

  /// Folds the whole hot set back in, as one unit: each block gets a
  /// fresh uniform leaf and goes to the tree's stash, then one map pass
  /// records every leaf. No online lookup runs inside a unit, so none
  /// sees a block back on storage before its map entry.
  void install_all(horam::shuffle_cost& cost) {
    std::vector<recursive_position_map::entry> entries;
    entries.reserve(order_.size());
    for (const block_id id : order_) {
      invariant(owner_.cached_.get(id) != 0,
                "evicted block the bitmap says is on storage");
      const std::vector<std::uint8_t> payload = unstage(id);
      const leaf_id leaf = util::uniform_below(
          owner_.rng_, owner_.tree_->config().leaf_count);
      const cost_split install_cost =
          owner_.tree_->install(id, payload, leaf);
      cost.memory += install_cost.memory;
      cost.cpu += install_cost.cpu;
      owner_.cached_.set(id, 0);
      --owner_.cached_count_;
      entries.push_back({id, leaf});
    }
    const cost_split pass_cost = owner_.map_->assign_all(entries);
    cost.memory += pass_cost.memory;
    cost.cpu += pass_cost.cpu;
    installed_ = true;
  }

  void drain(std::uint64_t steps, horam::shuffle_cost& cost) {
    const cost_split step_cost =
        tree_traits<Tree>::drain(*owner_.tree_, steps);
    cost.io_read += step_cost.io / 2;
    cost.io_write += step_cost.io - step_cost.io / 2;
    cost.memory += step_cost.memory;
    cost.cpu += step_cost.cpu;
    owner_.last_drain_steps_ += steps;
  }

  tree_backend& owner_;
  std::vector<block_id> order_;  // install order (the eviction order)
  bool installed_ = false;
  std::uint64_t drain_budget_ = 0;
  std::uint64_t drain_floor_ = 0;
  std::uint64_t drains_done_ = 0;
  std::uint64_t extra_ = 0;
};

template <class Tree>
std::unique_ptr<horam::shuffle_job> tree_backend<Tree>::begin_shuffle(
    std::vector<evicted_block> evicted, std::uint64_t period_index) {
  return std::make_unique<drain_job>(*this, std::move(evicted),
                                     period_index);
}

template <class Tree>
std::uint64_t tree_backend<Tree>::physical_bytes() const {
  return tree_traits<Tree>::slots(*tree_) *
             logical_block_bytes(config_.logical_block_bytes,
                                 tree_->record_bytes()) +
         map_->oram_bytes();
}

template <class Tree>
std::uint64_t tree_backend<Tree>::control_memory_bytes() const {
  // Trusted state: the map residue, the stash, the residency bits, and
  // whatever per-bucket state the scheme keeps. The tree keeps no map:
  // every record carries its own leaf.
  return map_->trusted_bytes() +
         tree_->stash_ref().size() *
             (config_.payload_bytes + sizeof(stash_entry)) +
         cached_.memory_bytes() +
         tree_traits<Tree>::extra_trusted_bytes(*tree_);
}

template <class Tree>
void tree_backend<Tree>::check_consistency() const {
  tree_->check_consistency();
  map_->check_consistency();

  invariant(cached_count_ <= config_.block_count, "cached counter overran");
  std::uint64_t cached_blocks = 0;
  for (block_id id = 0; id < config_.block_count; ++id) {
    cached_blocks += cached_.get(id);
  }
  invariant(cached_blocks == cached_count_,
            "cached counter out of sync with the bitmap");
  invariant(tree_->resident_blocks() ==
                config_.block_count - cached_count_,
            "tree resident count disagrees with the bitmap");

  // The tree holds each block once (its own audit), so it holds the
  // storage-resident ones if none is cached; each under its map leaf.
  std::vector<leaf_id> mapped(config_.block_count, dummy_block_id);
  map_->for_each_assigned([&](block_id id, leaf_id leaf) {
    invariant(id < config_.block_count, "map entry outside the universe");
    mapped[id] = leaf;
  });
  tree_->for_each_resident(
      [&](block_id id, leaf_id leaf, std::span<const std::uint8_t>) {
        invariant(cached_.get(id) == 0,
                  "tree holds a block the bitmap says is cached");
        invariant(mapped[id] == leaf,
                  "recursive map disagrees with the block's record");
      });
}

template class tree_backend<path_oram>;
template class tree_backend<ring_oram>;

}  // namespace horam::oram
