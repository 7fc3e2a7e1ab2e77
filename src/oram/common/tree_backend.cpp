#include "oram/common/tree_backend.h"

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
                                       trace);
  }
  /// One drain step: a dummy path access, whose greedy write-back
  /// places stash blocks along a random path.
  static cost_split drain_step(path_oram& tree) {
    return tree.dummy_access();
  }
  /// Storage slots behind physical_bytes().
  static std::uint64_t slots(const path_oram& tree) {
    return tree.capacity_blocks();
  }
  /// Trusted bytes beyond the map, stash and residency bitmap.
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
  /// One drain step: a forced deterministic eviction (the scheme's own
  /// write path), which absorbs up to Z stash blocks at the root alone.
  static cost_split drain_step(ring_oram& tree) {
    return tree.force_evict();
  }
  /// Storage slots behind physical_bytes(): real and spare slots.
  static std::uint64_t slots(const ring_oram& tree) {
    return tree.total_slots();
  }
  /// Trusted bytes beyond the map, stash and residency bitmap: the
  /// per-slot permutation metadata and the per-bucket counters.
  static std::uint64_t extra_trusted_bytes(const ring_oram& tree) {
    return tree.total_slots() * (sizeof(block_id) + 1) +
           tree.bucket_count() *
               (sizeof(std::uint32_t) + sizeof(std::uint64_t));
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

  cached_.assign(config_.block_count, 0);
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
  return cached_[id] == 0;
}

template <class Tree>
oram_backend::load_result tree_backend<Tree>::load_block(block_id id) {
  expects(in_storage(id), "block is not on storage");
  load_result result;
  ++stats_.real_loads;

  // Walk the recursive map for the leaf, then verify it against the
  // tree's own bookkeeping: the two must agree at every load.
  std::optional<leaf_id> mapped;
  result.cost += map_->lookup(id, mapped);
  invariant(mapped.has_value(), "map lost a storage-resident block");
  invariant(*mapped == tree_->leaf_of(id),
            "recursive map disagrees with the tree's position map");

  result.cost += tree_->extract(id, payload_scratch_);
  result.id = id;
  result.payload.assign(payload_scratch_.begin(), payload_scratch_.end());
  cached_[id] = 1;
  ++cached_count_;
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
  return result;
}

/// Shuffle job over the tree layout: slice units are single stash
/// re-installs, then single drain steps, so bounded budgets stop
/// between any two units. Nothing is ever kept — the stash shelters
/// whatever the drain cannot place.
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
    // Drain burst length: a function of the (public) eviction size
    // only, with a bounded conditional tail so a stubborn stash still
    // drains; whatever remains stays sheltered in the stash.
    const std::uint64_t z = tree_traits<Tree>::real_slots(owner_.config_);
    drain_budget_ = owner_.tree_->level_count() +
                    2 * util::ceil_div(order_.size(), z);
    drain_floor_ = 2 * z;
    extra_ = 4 * drain_budget_ + 64;
    owner_.last_drain_steps_ = 0;
  }

  [[nodiscard]] bool done() const noexcept override {
    return next_install_ >= order_.size() &&
           drains_done_ >= drain_budget_ &&
           (owner_.tree_->stash_ref().size() <= drain_floor_ ||
            extra_ == 0);
  }

 private:
  void run_unit(horam::shuffle_cost& slice) override {
    if (next_install_ < order_.size()) {
      install_one(slice);
    } else if (drains_done_ < drain_budget_) {
      ++drains_done_;
      drain_once(slice);
    } else {
      --extra_;
      drain_once(slice);
    }
  }

  void on_finish() override {
    ++owner_.stats_.partitions_shuffled;  // the one tree counts as one
  }

  /// Folds the next hot block back in: fresh uniform leaf, recorded in
  /// the recursive map and handed to the tree's stash.
  void install_one(horam::shuffle_cost& cost) {
    const block_id id = order_[next_install_++];
    invariant(owner_.cached_[id] != 0,
              "evicted block the bitmap says is on storage");
    const std::vector<std::uint8_t> payload = unstage(id);
    const leaf_id leaf =
        util::uniform_below(owner_.rng_, owner_.tree_->config().leaf_count);
    const cost_split assign_cost = owner_.map_->assign(id, leaf);
    const cost_split install_cost = owner_.tree_->install(id, payload, leaf);
    cost.memory += assign_cost.memory + install_cost.memory;
    cost.cpu += assign_cost.cpu + install_cost.cpu;
    owner_.cached_[id] = 0;
    --owner_.cached_count_;
  }

  void drain_once(horam::shuffle_cost& cost) {
    const cost_split step_cost = tree_traits<Tree>::drain_step(*owner_.tree_);
    cost.io_read += step_cost.io / 2;
    cost.io_write += step_cost.io - step_cost.io / 2;
    cost.memory += step_cost.memory;
    cost.cpu += step_cost.cpu;
    ++owner_.last_drain_steps_;
  }

  tree_backend& owner_;
  std::vector<block_id> order_;  // install order (the eviction order)
  std::size_t next_install_ = 0;
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
  const std::uint64_t logical = config_.logical_block_bytes != 0
                                    ? config_.logical_block_bytes
                                    : tree_->record_bytes();
  return tree_traits<Tree>::slots(*tree_) * logical + map_->oram_bytes();
}

template <class Tree>
std::uint64_t tree_backend<Tree>::control_memory_bytes() const {
  // Trusted state: the map residue, the stash, the residency bitmap,
  // and whatever per-slot state the scheme keeps.
  return map_->trusted_bytes() +
         tree_->stash_ref().size() *
             (config_.payload_bytes + sizeof(stash_entry)) +
         cached_.size() + tree_traits<Tree>::extra_trusted_bytes(*tree_);
}

template <class Tree>
void tree_backend<Tree>::check_consistency() const {
  tree_->check_consistency();

  invariant(cached_count_ <= config_.block_count, "cached counter overran");
  std::uint64_t cached_blocks = 0;
  for (block_id id = 0; id < config_.block_count; ++id) {
    const bool cached = cached_[id] != 0;
    invariant(cached != tree_->contains(id),
              "residency bitmap disagrees with the tree");
    cached_blocks += cached ? 1 : 0;
  }
  invariant(cached_blocks == cached_count_,
            "cached counter out of sync with the bitmap");
  invariant(tree_->resident_blocks() ==
                config_.block_count - cached_count_,
            "tree resident count disagrees with the bitmap");

  // Every storage-resident block's map entry matches the tree's leaf
  // (cached blocks may carry stale entries until re-install).
  map_->for_each_assigned([&](block_id id, leaf_id leaf) {
    invariant(id < config_.block_count, "map entry outside the universe");
    if (cached_[id] != 0) {
      return;
    }
    invariant(tree_->contains(id),
              "map names a block the tree does not hold");
    invariant(leaf == tree_->leaf_of(id),
              "recursive map disagrees with the tree's position map");
  });
}

template class tree_backend<path_oram>;
template class tree_backend<ring_oram>;

}  // namespace horam::oram
