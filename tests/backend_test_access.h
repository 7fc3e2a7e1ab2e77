// Test-only access to the record stores and trusted state of the
// per-slot backends (friends of storage_layer, hier_backend,
// sqrt_backend and ring_oram, in the manner of path_oram_test_access):
// a digest of every stored byte for the store goldens, and fault
// injection into chosen records.
#ifndef HORAM_TESTS_BACKEND_TEST_ACCESS_H
#define HORAM_TESTS_BACKEND_TEST_ACCESS_H

#include <cstdint>
#include <utility>
#include <vector>

#include "core/storage_layer.h"
#include "oram/hier/hier_backend.h"
#include "oram/ring/ring_oram.h"
#include "oram/sqrt/sqrt_backend.h"
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
    const storage_layer::location& loc = layer.locations_[id];
    return loc.partition * layer.geometry().slots_per_partition() +
           layer.code_of(loc);
  }
  /// XORs `mask` into byte `offset` of the record at store slot `slot`.
  /// The partitioned store hands out a read-only view; fault injection
  /// writes through it, as block_store::corrupt bypasses the device.
  static void corrupt(const storage_layer& layer, std::uint64_t slot,
                      std::size_t offset, std::uint8_t mask) {
    const_cast<storage::block_store&>(store(layer))
        .corrupt(slot, offset, mask);
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
};

struct sqrt_backend_test_access {
  /// Array A, array B and the Melbourne scratch, in device order.
  static std::vector<const storage::block_store*> stores(
      const sqrt_backend& backend) {
    return {backend.array_a_.get(), backend.array_b_.get(),
            backend.scratch_.get()};
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
  /// Every slot's trusted metadata: (block id, read bit).
  static std::vector<std::pair<block_id, bool>> slot_metadata(
      const ring_oram& tree) {
    std::vector<std::pair<block_id, bool>> out;
    out.reserve(tree.slots_.size());
    for (const ring_oram::slot_meta& meta : tree.slots_) {
      out.emplace_back(meta.id, meta.read);
    }
    return out;
  }
  /// XORs `mask` into byte `offset` of the record at store slot `slot`.
  static void corrupt(const ring_oram& tree, std::uint64_t slot,
                      std::size_t offset, std::uint8_t mask) {
    tree.io_store_->corrupt(slot, offset, mask);
  }
};

}  // namespace horam::oram

#endif  // HORAM_TESTS_BACKEND_TEST_ACCESS_H
