// Test-only access to the record stores and trusted state of the
// backends (friends of storage_layer, hier_backend, path_oram,
// recursive_position_map and ring_oram): a digest of every
// stored byte for the store goldens, and fault injection into chosen
// records.
#ifndef HORAM_TESTS_BACKEND_TEST_ACCESS_H
#define HORAM_TESTS_BACKEND_TEST_ACCESS_H

#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/storage_layer.h"
#include "oram/common/bucket_codec.h"
#include "oram/hier/hier_backend.h"
#include "oram/path/path_oram.h"
#include "oram/path/recursive_position_map.h"
#include "oram/ring/ring_oram.h"
#include "storage/block_store.h"

namespace horam {

/// FNV-1a over every stored byte of `store`, folded into `hash`.
inline std::uint64_t store_digest(
    const storage::block_store& store,
    std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (const std::uint8_t byte : store.peek_range(0, store.slot_count())) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct storage_layer_test_access {
  static const storage::block_store& store(const storage_layer& layer) {
    return layer.store_->records();
  }
  /// Store slot holding the storage-resident block `id`.
  static std::uint64_t slot_of(const storage_layer& layer, oram::block_id id) {
    const storage_layer::location loc = layer.location_of(id);
    return loc.partition * layer.geometry().slots_per_partition() + loc.code;
  }
  /// XORs `mask` into byte `offset` of the record at store slot `slot`.
  /// The partitioned store hands out a read-only view; fault injection
  /// writes through it, as block_store::corrupt bypasses the device.
  static void corrupt(const storage_layer& layer, std::uint64_t slot,
                      std::size_t offset, std::uint8_t mask) {
    const_cast<storage::block_store&>(store(layer))
        .corrupt(slot, offset, mask);
  }
  /// Copies the stored record of store slot `from` over the one at
  /// `to`: a store that moves a sealed record instead of altering it.
  static void copy_slot(const storage_layer& layer, std::uint64_t from,
                        std::uint64_t to) {
    const std::vector<std::uint8_t> source(store(layer).peek(from).begin(),
                                           store(layer).peek(from).end());
    const std::span<const std::uint8_t> target = store(layer).peek(to);
    for (std::size_t byte = 0; byte < source.size(); ++byte) {
      corrupt(layer, to, byte,
              static_cast<std::uint8_t>(source[byte] ^ target[byte]));
    }
  }
  /// Local slot codes of `partition`'s unaccessed slots that hold no
  /// live block, in pool order.
  static std::vector<std::uint32_t> dead_pooled(const storage_layer& layer,
                                                std::uint64_t partition) {
    std::vector<std::uint32_t> dead;
    for (std::uint64_t position = 0; position < layer.pool_size(partition);
         ++position) {
      const std::uint32_t code = layer.pool_at(partition, position);
      if (!layer.live(partition, code)) {
        dead.push_back(code);
      }
    }
    return dead;
  }
};

}  // namespace horam

namespace horam::oram {

struct hier_backend_test_access {
  static const storage::block_store& store(const hier_backend& backend) {
    return *backend.store_;
  }
  /// 1-based level the index maps `id` to (0 = not on storage).
  static std::uint32_t level_of(const hier_backend& backend, block_id id) {
    return backend.index_.level_of(id);
  }
  /// Store slot holding the storage-resident block `id`.
  static std::uint64_t slot_of(const hier_backend& backend, block_id id) {
    return backend.level_base(level_of(backend, id)) +
           backend.index_.slot_of(id);
  }
  /// XORs `mask` into byte `offset` of the record at store slot `slot`.
  static void corrupt(const hier_backend& backend, std::uint64_t slot,
                      std::size_t offset, std::uint8_t mask) {
    backend.store_->corrupt(slot, offset, mask);
  }
  /// Copies the stored record of store slot `from` over the one at
  /// `to`, bypassing the device like corrupt(): a store that moves a
  /// sealed record instead of altering it.
  static void copy_slot(const hier_backend& backend, std::uint64_t from,
                        std::uint64_t to) {
    const std::span<const std::uint8_t> source = backend.store_->peek(from);
    const std::span<const std::uint8_t> target = backend.store_->peek(to);
    for (std::size_t byte = 0; byte < source.size(); ++byte) {
      backend.store_->corrupt(to, byte,
                              static_cast<std::uint8_t>(source[byte] ^
                                                        target[byte]));
    }
  }
  /// Dummy-pool state of one level in its current epoch.
  struct dummy_pool {
    bool active = false;
    std::uint64_t used = 0;
    std::uint64_t capacity = 0;
  };
  static dummy_pool pool(const hier_backend& backend, std::uint32_t level) {
    const hier_backend::level_state& lvl = backend.levels_.at(level - 1);
    return {lvl.active, lvl.dummies_used, lvl.dummy_capacity};
  }
  /// Periods s_i between two scheduled merges into 1-based `level`,
  /// from the level capacities and the period's n/2 loads: s_1 = 1 and
  /// s_(i+1) = s_i * b_i with radix b_i = floor(r_i / (s_i * n/2)) + 1.
  /// Level L's s_L is the bottom cycle.
  static std::uint64_t epoch_periods(const hier_backend& backend,
                                     std::uint32_t level) {
    const std::uint64_t period_loads = backend.config_.period_loads();
    std::uint64_t periods = 1;
    for (std::uint32_t l = 1; l < level; ++l) {
      periods *= backend.level_real_capacity(l) / (periods * period_loads) + 1;
    }
    return periods;
  }
  /// 1-based level merge `period` targets: the deepest level i <= L
  /// whose s_i divides period + 1 — level 1 plus the trailing zero
  /// digits of period + 1 in radices (b_1, b_2, ...).
  static std::uint32_t merge_target(const hier_backend& backend,
                                    std::uint64_t period) {
    std::uint32_t target = 1;
    while (target < backend.level_count() &&
           (period + 1) % epoch_periods(backend, target + 1) == 0) {
      ++target;
    }
    return target;
  }
};

/// Reaches the stored records of a real tree bucket, for fault
/// injection, and the tree's stores, for the store goldens.
struct path_oram_test_access {
  /// Current leaf of a resident block of a keyed tree.
  static leaf_id leaf_of(const path_oram& tree, block_id id) {
    return tree.positions_->leaf_of(id);
  }
  static const bucket_codec& codec(const path_oram& tree) {
    return tree.codec_;
  }
  /// The slot ids the bucket's stored image holds now.
  static std::vector<block_id> ids(const path_oram& tree,
                                   std::uint64_t bucket) {
    std::vector<block_id> ids(tree.config_.bucket_size);
    tree.codec_.decode(tree.peek_bucket(bucket), ids, {});
    return ids;
  }
  /// XORs `mask` into byte `offset` of the bucket's stored image.
  static void corrupt(const path_oram& tree, std::uint64_t bucket,
                      std::size_t offset, std::uint8_t mask) {
    storage::block_store& store =
        tree.bucket_in_memory(bucket) ? *tree.memory_store_ : *tree.io_store_;
    const std::size_t record = tree.record_bytes();
    store.corrupt(tree.bucket_first_slot(bucket) + offset / record,
                  offset % record, mask);
  }
  /// The memory lane's store, then the storage lane's (absent lanes
  /// skipped).
  static std::vector<const storage::block_store*> stores(
      const path_oram& tree) {
    std::vector<const storage::block_store*> out;
    for (const auto* store : {tree.memory_store_.get(), tree.io_store_.get()}) {
      if (store != nullptr) {
        out.push_back(store);
      }
    }
    return out;
  }
};

struct recursive_position_map_test_access {
  /// The map ORAM of every recursion level, level 0 first.
  static std::vector<const path_oram*> levels(
      const recursive_position_map& map) {
    std::vector<const path_oram*> out;
    for (const auto& level : map.levels_) {
      out.push_back(level.get());
    }
    return out;
  }
  /// The trusted residue: the leaves of the deepest level's blocks.
  static const std::vector<leaf_id>& residue(
      const recursive_position_map& map) {
    return map.residue_;
  }
  /// Rewrites entry `k` of map block `block` at `level` as `value` with
  /// one access that keeps the block under its leaf, so nothing else of
  /// the chain changes.
  static void set_entry(recursive_position_map& map, std::size_t level,
                        block_id block, std::uint64_t k, leaf_id value) {
    path_oram& tree = *map.levels_[level];
    std::optional<leaf_id> leaf;
    tree.for_each_resident(
        [&](block_id id, leaf_id at, std::span<const std::uint8_t>) {
          if (id == block) {
            leaf = at;
          }
        });
    const std::function<void(std::span<std::uint8_t>)> write =
        [&](std::span<std::uint8_t> payload) {
          std::memcpy(payload.data() + k * sizeof(leaf_id), &value,
                      sizeof(leaf_id));
        };
    path_oram::request req;
    req.id = block;
    req.leaf = leaf.value();
    req.next_leaf = leaf.value();
    req.updater = &write;
    tree.access_batch({&req, 1});
  }
};

struct ring_oram_test_access {
  static const storage::block_store& store(const ring_oram& tree) {
    return *tree.io_store_;
  }
  /// Leaf of the next deterministic eviction.
  static leaf_id next_eviction_leaf(const ring_oram& tree) {
    return tree.reverse_lex_leaf(tree.evict_counter_);
  }
  static std::uint64_t bucket_on_path(const ring_oram& tree, leaf_id leaf,
                                      std::uint32_t level) {
    return tree.bucket_on_path(leaf, level);
  }
  /// The leaf the tree holds `id` under, as its stash entry or its slot
  /// record names it (the tree keeps no map; a test stands in for the
  /// caller's), or nullopt when the tree does not hold it.
  static std::optional<leaf_id> leaf_of(const ring_oram& tree, block_id id) {
    if (tree.stash_ref().contains(id)) {
      return tree.stash_ref().at(id).leaf;
    }
    const std::uint32_t spb = tree.slots_per_bucket();
    for (std::uint64_t bucket = 0; bucket < tree.bucket_count(); ++bucket) {
      const std::uint64_t first = bucket * tree.config().real_slots;
      for (std::uint32_t i = 0; i < tree.real_counts_[bucket]; ++i) {
        if (tree.real_ids_[first + i] == id) {
          return ring_oram::record_leaf(tree.codec_.decode(
              tree.io_store_->peek(bucket * spb + tree.real_offsets_[first + i]),
              {}));
        }
      }
    }
    return std::nullopt;
  }
  /// Every slot's trusted metadata, (block id, read bit), rebuilt from
  /// the per-bucket records: a slot not listed as a live real reads as
  /// dummy_block_id.
  static std::vector<std::pair<block_id, bool>> slot_metadata(
      const ring_oram& tree) {
    const std::uint32_t spb = tree.slots_per_bucket();
    std::vector<std::pair<block_id, bool>> out(tree.total_slots());
    for (std::uint64_t bucket = 0; bucket < tree.bucket_count(); ++bucket) {
      for (std::uint32_t k = 0; k < spb; ++k) {
        out[bucket * spb + k] = {dummy_block_id, tree.is_read(bucket, k)};
      }
      const std::uint64_t first = bucket * tree.config().real_slots;
      for (std::uint32_t i = 0; i < tree.real_counts_[bucket]; ++i) {
        out[bucket * spb + tree.real_offsets_[first + i]].first =
            tree.real_ids_[first + i];
      }
    }
    return out;
  }
  /// XORs `mask` into byte `offset` of the record at store slot `slot`.
  static void corrupt(const ring_oram& tree, std::uint64_t slot,
                      std::size_t offset, std::uint8_t mask) {
    tree.io_store_->corrupt(slot, offset, mask);
  }

  /// One bucket read of an eviction or an early reshuffle, replayed from
  /// the trace: the bucket, the in-bucket offsets it read (as traced),
  /// whether the bucket's own rewrite followed at once (a reshuffle),
  /// and the bucket's state just before the read: its consumed offsets
  /// and, unless the same operation had already rewritten it, its live
  /// reals' offsets.
  struct bucket_read {
    std::uint64_t bucket = 0;
    std::vector<std::uint32_t> offsets;
    bool reshuffle = false;
    bool reals_known = false;
    std::vector<std::uint32_t> real_offsets;
    std::vector<std::uint32_t> consumed_offsets;
  };

  /// Replays `events` — what operations on `tree` traced after
  /// slot_metadata() returned `slots` — and returns their bucket reads in
  /// order. An online read (the slot events after a path access of this
  /// tree) consumes its slots; a bucket's rewrite leaves every slot
  /// unread with reals the trace does not show. A reshuffle is a bucket
  /// read alone, its rewrite next; an eviction reads its whole union
  /// before the first rewrite.
  static std::vector<bucket_read> bucket_reads(
      const ring_oram& tree, std::vector<std::pair<block_id, bool>> slots,
      std::span<const trace_event> events) {
    const std::uint32_t spb = tree.slots_per_bucket();
    std::vector<bool> rewritten(tree.bucket_count(), false);
    std::vector<bucket_read> reads;
    std::size_t last_read_end = 0;
    bool last_read_alone = false;
    for (std::size_t i = 0; i < events.size();) {
      const trace_event& event = events[i];
      if (event.kind == event_kind::memory_path_access &&
          event.b == tree.config().leaf_count) {
        for (std::uint32_t level = 1; level <= tree.level_count(); ++level) {
          slots[events[i + level].a] = {dummy_block_id, true};
        }
        i += 1 + tree.level_count();
        continue;
      }
      if (event.kind == event_kind::storage_write_sweep) {
        const std::uint64_t bucket = event.a / spb;
        rewritten[bucket] = true;
        for (std::uint64_t s = event.a; s < event.a + event.b; ++s) {
          slots[s] = {dummy_block_id, false};
        }
        if (last_read_end == i && last_read_alone &&
            reads.back().bucket == bucket) {
          reads.back().reshuffle = true;
        }
        ++i;
        continue;
      }
      if (event.kind != event_kind::storage_read_slot) {
        ++i;
        continue;
      }
      last_read_alone = last_read_end != i;
      bucket_read read;
      read.bucket = event.a / spb;
      read.reals_known = !rewritten[read.bucket];
      for (std::uint32_t k = 0; k < spb; ++k) {
        const auto& [id, consumed] = slots[read.bucket * spb + k];
        if (id != dummy_block_id) {
          read.real_offsets.push_back(k);
        }
        if (consumed) {
          read.consumed_offsets.push_back(k);
        }
      }
      for (; i < events.size() &&
             events[i].kind == event_kind::storage_read_slot &&
             events[i].a / spb == read.bucket;
           ++i) {
        read.offsets.push_back(static_cast<std::uint32_t>(events[i].a % spb));
        slots[events[i].a].second = true;
      }
      reads.push_back(std::move(read));
      last_read_end = i;
    }
    return reads;
  }
};

}  // namespace horam::oram

#endif  // HORAM_TESTS_BACKEND_TEST_ACCESS_H
