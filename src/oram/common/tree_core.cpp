#include "oram/common/tree_core.h"

#include <algorithm>

#include "util/contracts.h"
#include "util/math.h"

namespace horam::oram {

sim::sim_time commit_sweeps(storage::block_store& store) {
  sim::sim_time t = 0;
  const std::uint64_t slots = store.slot_count();
  for (std::uint64_t first = 0; first < slots;
       first += sweep_chunk_records) {
    t += store.commit_range(first,
                            std::min(sweep_chunk_records, slots - first));
  }
  return t;
}

tree_core::tree_core(std::uint64_t leaf_count, std::uint32_t real_slots,
                     std::size_t payload_bytes, std::uint64_t id_universe,
                     tree_role role, const sim::cpu_model& cpu,
                     util::random_source& rng)
    : cpu_(cpu),
      rng_(rng),
      id_universe_(id_universe),
      leaf_count_(leaf_count),
      real_slots_(real_slots),
      payload_bytes_(payload_bytes),
      level_count_(static_cast<std::uint32_t>(
          util::floor_log2(leaf_count) + 1)),
      bucket_count_(2 * leaf_count - 1) {
  expects(util::is_pow2(leaf_count), "leaf count must be 2^k");
  expects(real_slots > 0, "real slots per bucket (Z) must be positive");
  expects(id_universe > 0, "id universe must be positive");
  expects(id_universe < 0xffffffffULL && leaf_count < 0xffffffffULL,
          "tree ids and leaves must fit a record word's 32-bit halves");
  if (role == tree_role::keyed) {
    // A tree whose real slots cover under half its id universe (the
    // controller's cache tree) keys its map by the blocks it holds.
    positions_.emplace(id_universe, leaf_count,
                       2 * bucket_count_ * real_slots < id_universe);
  }
  selected_.reserve(real_slots);
}

cost_split tree_core::install(block_id id,
                              std::span<const std::uint8_t> payload) {
  return install(id, payload, random_leaf());
}

cost_split tree_core::install(block_id id,
                              std::span<const std::uint8_t> payload,
                              leaf_id leaf) {
  expects(id < id_universe_, "block id outside the universe");
  expects(!stash_.contains(id) && !(keyed() && positions_->contains(id)),
          "block already resident");
  expects(leaf < leaf_count_, "install leaf out of range");
  if (keyed()) {
    positions_->assign(id, leaf);
  }
  stash_.put(id, leaf, payload);
  ++resident_;
  ++stats_.installs;
  return install_cost();
}

cost_split tree_core::install_cost() const {
  cost_split cost;
  cost.cpu += cpu_.word_ops_time(4);
  return cost;
}

void tree_core::clear_client() {
  if (keyed()) {
    positions_->clear();
  }
  stash_.clear();
  resident_ = 0;
}

std::vector<std::uint8_t> tree_core::build_client(
    std::uint64_t count, const filler_fn& filler,
    std::vector<leaf_id>* leaves_out,
    const std::function<void(std::uint64_t, std::span<const block_ref>)>&
        place) {
  expects(count <= id_universe_, "more blocks than the universe");
  expects(count <= capacity_blocks(), "tree cannot hold that many blocks");

  // Assign leaves and group ids by leaf (counting sort).
  std::vector<leaf_id> leaves(count);
  std::vector<std::uint64_t> leaf_counts(leaf_count_, 0);
  for (block_id id = 0; id < count; ++id) {
    leaves[id] = random_leaf();
    ++leaf_counts[leaves[id]];
    if (keyed()) {
      positions_->assign(id, leaves[id]);
    }
  }
  std::vector<std::uint64_t> leaf_offsets(leaf_count_ + 1, 0);
  for (leaf_id l = 0; l < leaf_count_; ++l) {
    leaf_offsets[l + 1] = leaf_offsets[l] + leaf_counts[l];
  }
  std::vector<block_id> ids_by_leaf(count);
  {
    std::vector<std::uint64_t> cursor(leaf_offsets.begin(),
                                      leaf_offsets.end() - 1);
    for (block_id id = 0; id < count; ++id) {
      ids_by_leaf[cursor[leaves[id]]++] = id;
    }
  }

  // Materialise payloads once (indexable by id during the build).
  std::vector<std::uint8_t> payloads(count * payload_bytes_, 0);
  const auto payload_of = [&](block_id id) -> std::span<std::uint8_t> {
    return {payloads.data() + id * payload_bytes_, payload_bytes_};
  };
  for (block_id id = 0; id < count; ++id) {
    filler(id, payload_of(id));
  }

  // Bottom-up greedy placement: post-order DFS; each node keeps up to Z
  // pending blocks (all of which have this bucket on their path) and
  // passes the rest to its parent.
  const std::function<std::vector<block_id>(std::uint32_t, std::uint64_t)>
      build = [&](std::uint32_t level,
                  std::uint64_t node_in_level) -> std::vector<block_id> {
    std::vector<block_id> pending;
    if (level == level_count_ - 1) {
      const std::uint64_t first = leaf_offsets[node_in_level];
      const std::uint64_t last = leaf_offsets[node_in_level + 1];
      pending.assign(ids_by_leaf.begin() + static_cast<std::ptrdiff_t>(first),
                     ids_by_leaf.begin() + static_cast<std::ptrdiff_t>(last));
    } else {
      pending = build(level + 1, 2 * node_in_level);
      std::vector<block_id> right = build(level + 1, 2 * node_in_level + 1);
      pending.insert(pending.end(), right.begin(), right.end());
    }

    const std::uint64_t take =
        std::min<std::uint64_t>(real_slots_, pending.size());
    selected_.clear();
    for (std::uint64_t k = 0; k < take; ++k) {
      const block_id id = pending[pending.size() - 1 - k];
      selected_.push_back(
          block_ref{pack_record(id, leaves[id]), payload_of(id)});
    }
    place(((std::uint64_t{1} << level) - 1) + node_in_level, selected_);
    pending.resize(pending.size() - take);
    return pending;
  };
  for (const block_id id : build(0, 0)) {
    stash_.put(id, leaves[id], payload_of(id));
  }

  resident_ = count;
  if (leaves_out != nullptr) {
    *leaves_out = std::move(leaves);
  }
  return payloads;
}

void tree_core::plan_union(std::span<const leaf_id> leaves) {
  union_buckets_.clear();
  union_level_begin_.clear();
  for (std::uint32_t level = 0; level < level_count_; ++level) {
    const std::size_t first = union_buckets_.size();
    union_level_begin_.push_back(first);
    for (const leaf_id leaf : leaves) {
      union_buckets_.push_back(bucket_on_path(leaf, level));
    }
    const auto level_begin =
        union_buckets_.begin() + static_cast<std::ptrdiff_t>(first);
    std::sort(level_begin, union_buckets_.end());
    union_buckets_.erase(std::unique(level_begin, union_buckets_.end()),
                         union_buckets_.end());
  }
  union_level_begin_.push_back(union_buckets_.size());
}

void tree_core::stash_opened(std::span<const block_ref> reals) {
  for (const block_ref& real : reals) {
    stash_.put(record_block(real.id), record_leaf(real.id), real.payload);
  }
}

void tree_core::write_back_union(
    const std::function<void(std::size_t, std::span<const block_ref>)>&
        place) {
  for_each_union_leaf_first([&](std::size_t i, std::uint32_t level) {
    // Any leaf below the bucket selects the same candidates.
    const leaf_id below =
        (union_buckets_[i] - ((std::uint64_t{1} << level) - 1))
        << (level_count_ - 1 - level);
    place(i, select_for_bucket(below, level));
    for (const block_ref& real : selected_) {
      stash_.erase(record_block(real.id));
    }
  });
}

std::span<const block_ref> tree_core::select_for_bucket(leaf_id leaf,
                                                        std::uint32_t level) {
  selected_.clear();
  for (const auto& [id, entry] : stash_) {
    if (paths_share_bucket(entry.leaf, leaf, level)) {
      selected_.push_back(
          block_ref{pack_record(id, entry.leaf), entry.payload});
      if (selected_.size() == real_slots_) {
        break;
      }
    }
  }
  return selected_;
}

void tree_core::check_client(
    const std::function<void(const stored_fn&)>& scan_tree) const {
  std::vector<std::uint8_t> seen(id_universe_, 0);
  std::uint64_t found = 0;
  const auto resident = [&](block_id id, leaf_id leaf) {
    invariant(id < id_universe_, "resident block outside the universe");
    invariant(seen[id] == 0, "block stored twice (tree slots or stash)");
    seen[id] = 1;
    ++found;
    invariant(leaf < leaf_count_, "block names a leaf outside the tree");
    invariant(!keyed() || (positions_->contains(id) &&
                           positions_->leaf_of(id) == leaf),
              "block's leaf disagrees with the position map");
  };

  scan_tree([&](block_id id, leaf_id leaf, std::uint64_t bucket) {
    resident(id, leaf);
    const unsigned level = util::floor_log2(bucket + 1);
    invariant(bucket == bucket_on_path(leaf, level),
              "block stored off the path to its record's leaf");
  });
  for (const auto& [id, entry] : stash_) {
    resident(id, entry.leaf);
    invariant(entry.payload.size() == payload_bytes_,
              "stash payload has the wrong size");
  }

  invariant(found == resident_, "resident counter out of sync");
  invariant(!keyed() || positions_->size() == resident_,
            "position map size disagrees with the resident count");
}

}  // namespace horam::oram
