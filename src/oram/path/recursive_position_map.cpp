#include "oram/path/recursive_position_map.h"

#include <algorithm>
#include <cstring>

#include "util/contracts.h"
#include "util/math.h"

namespace horam::oram {

namespace {

/// Smallest power-of-two leaf count whose tree holds `blocks` records.
std::uint64_t leaves_for(std::uint64_t blocks, std::uint32_t z) {
  std::uint64_t leaves = 1;
  while (leaves * z * 2 - z < blocks) {  // capacity = Z*(2*leaves - 1)
    leaves *= 2;
  }
  return leaves;
}

}  // namespace

recursive_position_map::recursive_position_map(
    const recursive_map_config& config, sim::block_device& memory_device,
    const sim::cpu_model& cpu, util::random_source& rng,
    access_trace* trace, std::span<const leaf_id> initial)
    : config_(config), rng_(rng) {
  expects(config_.universe > 0, "map universe must be positive");
  expects(config_.entries_per_block >= 2,
          "recursion needs at least two entries per block");
  expects(config_.direct_threshold >= 1, "threshold must be positive");
  expects(initial.size() <= config_.universe,
          "more initial entries than the universe");

  // Build the level chain: level 0 covers the data blocks; level k+1
  // covers the map blocks of level k; stop when a level fits the
  // trusted threshold. Level 0 packs the caller's initial values, every
  // deeper level the leaves the build just drew for the shallower
  // level's blocks; entries without a value read as absent.
  std::vector<leaf_id> packed(initial.begin(), initial.end());
  std::uint64_t entries = config_.universe;
  while (entries > config_.direct_threshold) {
    const std::uint64_t blocks =
        util::ceil_div(entries, config_.entries_per_block);

    path_oram_config level_config;
    level_config.leaf_count = leaves_for(blocks, config_.bucket_size);
    level_config.bucket_size = config_.bucket_size;
    level_config.payload_bytes =
        config_.entries_per_block * sizeof(leaf_id);
    level_config.id_universe = blocks;
    level_config.seal = config_.seal;
    level_config.key_seed =
        config_.key_seed + 0x101 * (levels_.size() + 1);
    levels_.push_back(std::make_unique<path_oram>(
        level_config, memory_device, nullptr, cpu, rng, trace,
        tree_role::backend));

    packed.resize(blocks * config_.entries_per_block, absent);
    std::vector<leaf_id> drawn;
    levels_.back()->initialize_full(
        blocks,
        [&](block_id block, std::span<std::uint8_t> payload) {
          std::memcpy(payload.data(),
                      packed.data() + block * config_.entries_per_block,
                      payload.size());
        },
        &drawn);
    packed = std::move(drawn);
    entries = blocks;
  }
  residue_ = std::move(packed);
  residue_.resize(entries, absent);
}

std::uint64_t recursive_position_map::oram_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& level : levels_) {
    total += level->capacity_blocks() * level->config().payload_bytes;
  }
  return total;
}

cost_split recursive_position_map::descend(std::optional<block_id> route,
                                           const edit_fn& edit) {
  const std::span<std::uint8_t> residue{
      reinterpret_cast<std::uint8_t*>(residue_.data()),
      residue_.size() * sizeof(leaf_id)};
  if (levels_.empty()) {
    edit(0, residue);
    return {};
  }
  const std::uint64_t per_block = config_.entries_per_block;
  // Moves the blocks of `level` the descent reaches (for a walk, the one
  // its id routes through) whose leaves `payload` holds, entry k naming
  // block held + k, to fresh leaves drawn now: each entry is read as its
  // block's leaf and rewritten with the fresh one, and the block's
  // request joins next_requests_.
  const auto hand_down = [&](std::size_t level, block_id held,
                             std::span<std::uint8_t> payload) {
    block_id first = 0;
    block_id end = levels_[level]->config().id_universe;
    if (route.has_value()) {
      first = *route / per_block;
      for (std::size_t k = 0; k < level; ++k) {
        first /= per_block;
      }
      end = first + 1;
    }
    end = std::min<block_id>(end, held + payload.size() / sizeof(leaf_id));
    for (block_id block = std::max(first, held); block < end; ++block) {
      std::uint8_t* entry = payload.data() + (block - held) * sizeof(leaf_id);
      path_oram::request& req = next_requests_.emplace_back();
      req.id = block;
      std::memcpy(&req.leaf, entry, sizeof(leaf_id));
      req.next_leaf =
          util::uniform_below(rng_, levels_[level]->config().leaf_count);
      std::memcpy(entry, &req.next_leaf, sizeof(leaf_id));
    }
  };

  next_requests_.clear();
  hand_down(levels_.size() - 1, 0, residue);
  cost_split cost;
  for (std::size_t level = levels_.size(); level-- > 0;) {
    requests_.swap(next_requests_);
    next_requests_.clear();
    // access_batch() serves its requests in list order, so the k-th
    // call edits the k-th request's block.
    std::size_t served = 0;
    const std::function<void(std::span<std::uint8_t>)> update =
        [&](std::span<std::uint8_t> payload) {
          const block_id held = requests_[served++].id * per_block;
          level == 0 ? edit(held, payload)
                     : hand_down(level - 1, held, payload);
        };
    for (path_oram::request& req : requests_) {
      req.updater = &update;
    }
    for (std::size_t at = 0; at < requests_.size(); at += kPassBatch) {
      cost += levels_[level]->access_batch(std::span(requests_).subspan(
          at, std::min<std::size_t>(kPassBatch, requests_.size() - at)));
    }
  }
  return cost;
}

cost_split recursive_position_map::lookup(block_id id,
                                          std::optional<leaf_id>& out) {
  expects(id < config_.universe, "block id outside the universe");
  leaf_id value = absent;
  const cost_split cost =
      descend(id, [&](block_id first, std::span<std::uint8_t> payload) {
        std::memcpy(&value, payload.data() + (id - first) * sizeof(leaf_id),
                    sizeof(leaf_id));
      });
  out = value == absent ? std::nullopt : std::optional<leaf_id>(value);
  return cost;
}

cost_split recursive_position_map::assign(block_id id, leaf_id leaf) {
  expects(id < config_.universe, "block id outside the universe");
  expects(leaf != absent, "reserved leaf value");
  return descend(id, [&](block_id first, std::span<std::uint8_t> payload) {
    std::memcpy(payload.data() + (id - first) * sizeof(leaf_id), &leaf,
                sizeof(leaf_id));
  });
}

cost_split recursive_position_map::assign_all(
    std::span<const entry> entries) {
  for (const entry& e : entries) {
    expects(e.id < config_.universe, "block id outside the universe");
    expects(e.leaf != absent, "reserved leaf value");
  }
  // Group the entries by level-0 map block; the stable sort keeps a
  // later entry for an id after the earlier one, so it is written last.
  const std::uint64_t per_block = config_.entries_per_block;
  pass_entries_.assign(entries.begin(), entries.end());
  std::stable_sort(pass_entries_.begin(), pass_entries_.end(),
                   [per_block](const entry& a, const entry& b) {
                     return a.id / per_block < b.id / per_block;
                   });
  auto next = pass_entries_.cbegin();
  return descend(std::nullopt, [&](block_id first,
                                   std::span<std::uint8_t> payload) {
    const block_id end = first + payload.size() / sizeof(leaf_id);
    for (; next != pass_entries_.cend() && next->id < end; ++next) {
      std::memcpy(payload.data() + (next->id - first) * sizeof(leaf_id),
                  &next->leaf, sizeof(leaf_id));
    }
  });
}

void recursive_position_map::for_each_assigned(
    const std::function<void(block_id, leaf_id)>& visit) const {
  // The level-0 entries: the residue, or one device-free scan of level
  // 0, whose block b packs the entries from b * entries_per_block on.
  std::vector<leaf_id> entries = residue_;
  if (!levels_.empty()) {
    entries.assign(
        levels_[0]->config().id_universe * config_.entries_per_block, absent);
    levels_[0]->for_each_resident(
        [&](block_id block, leaf_id, std::span<const std::uint8_t> payload) {
          std::memcpy(entries.data() + block * config_.entries_per_block,
                      payload.data(), payload.size());
        });
  }
  for (block_id id = 0; id < config_.universe; ++id) {
    if (entries[id] != absent) {
      visit(id, entries[id]);
    }
  }
}

void recursive_position_map::check_consistency() const {
  // The leaves the deeper entries name for the level being checked.
  std::vector<leaf_id> named = residue_;
  for (std::size_t level = levels_.size(); level-- > 0;) {
    const path_oram& tree = *levels_[level];
    tree.check_consistency();
    invariant(tree.position_map_bytes() == 0,
              "a map level keeps a position map");
    invariant(tree.resident_blocks() == tree.config().id_universe,
              "a map level lost a block");
    std::vector<leaf_id> shallower(tree.config().id_universe *
                                   config_.entries_per_block);
    tree.for_each_resident([&](block_id block, leaf_id leaf,
                               std::span<const std::uint8_t> payload) {
      invariant(named[block] == leaf,
                "map block's record disagrees with the deeper entry");
      std::memcpy(shallower.data() + block * config_.entries_per_block,
                  payload.data(), payload.size());
    });
    named = std::move(shallower);
  }
}

}  // namespace horam::oram
