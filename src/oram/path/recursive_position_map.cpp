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
    : config_(config) {
  expects(config_.universe > 0, "map universe must be positive");
  expects(config_.entries_per_block >= 2,
          "recursion needs at least two entries per block");
  expects(config_.direct_threshold >= 1, "threshold must be positive");
  expects(initial.empty() || initial.size() <= config_.universe,
          "more initial entries than the universe");

  // Build the level chain: level 0 covers the data blocks; level k+1
  // covers the map blocks of level k; stop when a level fits the
  // trusted threshold.
  std::uint64_t entries = config_.universe;
  while (entries > config_.direct_threshold) {
    level_entries_.push_back(entries);
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
        level_config, memory_device, nullptr, cpu, rng, trace));

    // Initialise every map block: level 0 packs the caller's initial
    // values (the authoritative entries); deeper levels and unseeded
    // entries start all-absent so lookups are total.
    const bool authoritative = levels_.size() == 1;
    levels_.back()->initialize_full(
        blocks, [&](block_id block, std::span<std::uint8_t> payload) {
          std::memset(payload.data(), 0xff, payload.size());
          if (!authoritative || initial.empty()) {
            return;
          }
          for (std::uint64_t k = 0; k < config_.entries_per_block; ++k) {
            const std::uint64_t id =
                block * config_.entries_per_block + k;
            if (id >= initial.size()) {
              break;
            }
            std::memcpy(payload.data() + k * sizeof(leaf_id),
                        &initial[id], sizeof(leaf_id));
          }
        });
    entries = blocks;
  }
  residue_.assign(entries, absent);
  if (levels_.empty() && !initial.empty()) {
    std::copy(initial.begin(), initial.end(), residue_.begin());
  }
  payload_scratch_.resize(config_.entries_per_block * sizeof(leaf_id));
  invariant(!levels_.empty() || config_.universe <= config_.direct_threshold,
            "chain construction failed");
}

std::uint64_t recursive_position_map::oram_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& level : levels_) {
    total += level->capacity_blocks() * level->config().payload_bytes;
  }
  return total;
}

cost_split recursive_position_map::walk(block_id id,
                                        std::optional<leaf_id> write,
                                        leaf_id& current) {
  expects(id < config_.universe, "block id outside the universe");
  if (levels_.empty()) {
    current = residue_[id];
    if (write.has_value()) {
      residue_[id] = *write;
    }
    return {};
  }

  // Walk deepest-first, mirroring the real protocol's order: the
  // residue seeds the deepest map ORAM access, each level's entry
  // locates the next-shallower map block, level 0 yields the answer.
  // (Deeper levels carry pattern and cost; the authoritative value
  // lives in level 0's packed payloads.) A write also refreshes the
  // deeper levels' pattern-bearing entries.
  cost_split cost;
  for (std::size_t level = levels_.size(); level-- > 0;) {
    // Index of the entry this id routes through at `level`.
    std::uint64_t index = id;
    for (std::size_t k = 0; k < level; ++k) {
      index /= config_.entries_per_block;
    }
    const std::uint64_t offset =
        (index % config_.entries_per_block) * sizeof(leaf_id);
    const std::optional<leaf_id> value =
        level == 0 || !write.has_value() ? write
                                         : std::optional<leaf_id>(0);
    current = absent;
    cost += levels_[level]->access_rmw(
        index / config_.entries_per_block,
        [&](std::span<std::uint8_t> payload) {
          std::memcpy(&current, payload.data() + offset, sizeof(leaf_id));
          if (value.has_value()) {
            std::memcpy(payload.data() + offset, &*value, sizeof(leaf_id));
          }
        });
  }
  return cost;
}

cost_split recursive_position_map::lookup(block_id id,
                                          std::optional<leaf_id>& out) {
  leaf_id value = absent;
  const cost_split cost = walk(id, std::nullopt, value);
  out = value == absent ? std::nullopt : std::optional<leaf_id>(value);
  return cost;
}

cost_split recursive_position_map::assign(block_id id, leaf_id leaf) {
  expects(leaf != absent, "reserved leaf value");
  leaf_id ignored = absent;
  return walk(id, leaf, ignored);
}

cost_split recursive_position_map::assign_all(
    std::span<const entry> entries) {
  for (const entry& e : entries) {
    expects(e.id < config_.universe, "block id outside the universe");
    expects(e.leaf != absent, "reserved leaf value");
  }
  if (levels_.empty()) {
    for (const entry& e : entries) {
      residue_[e.id] = e.leaf;
    }
    return {};
  }

  // Group the entries by level-0 map block; the stable sort keeps a
  // later entry for an id after the earlier one, so it is written last.
  const std::uint64_t per_block = config_.entries_per_block;
  pass_entries_.assign(entries.begin(), entries.end());
  std::stable_sort(pass_entries_.begin(), pass_entries_.end(),
                   [per_block](const entry& a, const entry& b) {
                     return a.id / per_block < b.id / per_block;
                   });

  cost_split cost;
  auto next = pass_entries_.cbegin();
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    const std::uint64_t entries_here = level_entries_[level];
    const std::uint64_t blocks = util::ceil_div(entries_here, per_block);
    for (std::uint64_t first = 0; first < blocks; first += kPassBatch) {
      const std::uint64_t count = std::min(kPassBatch, blocks - first);
      pass_updaters_.clear();
      for (block_id block = first; block < first + count; ++block) {
        if (level == 0) {
          const auto begin = next;
          while (next != pass_entries_.cend() &&
                 next->id / per_block == block) {
            ++next;
          }
          pass_updaters_.emplace_back(
              [begin, end = next, per_block](std::span<std::uint8_t> payload) {
                for (auto it = begin; it != end; ++it) {
                  std::memcpy(payload.data() +
                                  (it->id % per_block) * sizeof(leaf_id),
                              &it->leaf, sizeof(leaf_id));
                }
              });
        } else {
          // Every entry this block holds covers a map block of the
          // shallower level, and the pass has just rewritten them all.
          const std::uint64_t held =
              std::min(per_block, entries_here - block * per_block);
          pass_updaters_.emplace_back(
              [held](std::span<std::uint8_t> payload) {
                std::memset(payload.data(), 0, held * sizeof(leaf_id));
              });
        }
      }
      pass_requests_.assign(count, path_oram::request{});
      for (std::uint64_t k = 0; k < count; ++k) {
        pass_requests_[k].id = first + k;
        pass_requests_[k].updater = &pass_updaters_[k];
      }
      cost += levels_[level]->access_batch(pass_requests_);
    }
  }
  return cost;
}

void recursive_position_map::for_each_assigned(
    const std::function<void(block_id, leaf_id)>& visit) const {
  if (levels_.empty()) {
    for (block_id id = 0; id < residue_.size(); ++id) {
      if (residue_[id] != absent) {
        visit(id, residue_[id]);
      }
    }
    return;
  }
  // One device-free scan of the authoritative level-0 ORAM; each map
  // block packs entries_per_block consecutive entries.
  levels_[0]->for_each_resident(
      [&](block_id block, leaf_id /*block_leaf*/,
          std::span<const std::uint8_t> payload) {
        for (std::uint64_t k = 0; k < config_.entries_per_block; ++k) {
          const block_id id = block * config_.entries_per_block + k;
          if (id >= config_.universe) {
            break;
          }
          leaf_id value = absent;
          std::memcpy(&value, payload.data() + k * sizeof(leaf_id),
                      sizeof(leaf_id));
          if (value != absent) {
            visit(id, value);
          }
        }
      });
}

}  // namespace horam::oram
