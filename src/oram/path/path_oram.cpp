#include "oram/path/path_oram.h"

#include <algorithm>
#include <cstring>

#include "util/contracts.h"
#include "util/math.h"

namespace horam::oram {

namespace {

/// Chunk size (records) for sequential sweeps, to bound host buffers.
constexpr std::uint64_t sweep_chunk_records = 1 << 14;

/// Charges the streaming write of a whole store composed in place
/// through stage_range(), in sweep_chunk_records sweeps.
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

}  // namespace

path_oram::path_oram(const path_oram_config& config,
                     sim::block_device& memory_device,
                     sim::block_device* io_device, const sim::cpu_model& cpu,
                     util::random_source& rng, access_trace* trace)
    : config_(config),
      level_count_(static_cast<std::uint32_t>(
          util::floor_log2(config.leaf_count) + 1)),
      memory_levels_(std::min(config.memory_levels, level_count_)),
      bucket_count_(2 * config.leaf_count - 1),
      memory_bucket_count_((std::uint64_t{1} << memory_levels_) - 1),
      codec_(config.bucket_size, config.payload_bytes, config.seal,
             config.key_seed),
      memory_device_(memory_device),
      cpu_(cpu),
      rng_(rng),
      trace_(trace),
      positions_(config.id_universe) {
  expects(util::is_pow2(config.leaf_count), "leaf count must be 2^k");
  expects(config.bucket_size > 0, "bucket size must be positive");
  expects(config.id_universe > 0, "id universe must be positive");

  const std::uint64_t logical =
      config.logical_block_bytes != 0 ? config.logical_block_bytes
                                      : codec_.record_bytes();
  expects(logical >= codec_.record_bytes(),
          "logical block smaller than the encoded record");
  logical_bytes_ = logical;

  if (memory_bucket_count_ > 0) {
    memory_store_ = std::make_unique<storage::block_store>(
        memory_device, /*base_offset=*/0,
        memory_bucket_count_ * config.bucket_size, codec_.record_bytes(),
        logical);
  }
  const std::uint64_t io_buckets = bucket_count_ - memory_bucket_count_;
  if (io_buckets > 0) {
    expects(io_device != nullptr,
            "tree deeper than memory_levels needs a storage device");
    io_store_ = std::make_unique<storage::block_store>(
        *io_device, /*base_offset=*/0, io_buckets * config.bucket_size,
        codec_.record_bytes(), logical);
    if (config.layout == storage::storage_layout::page) {
      storage::page_layout_config page_config;
      page_config.total_levels = level_count_;
      page_config.first_level = memory_levels_;
      page_config.bucket_size = config.bucket_size;
      page_config.logical_block_bytes = logical;
      page_config.page_bytes = config.page_bytes;
      page_ = std::make_unique<storage::page_layout>(page_config);
      invariant(page_->total_slots() == io_store_->slot_count(),
                "page layout does not cover the storage lane exactly");
      valid_ = std::make_unique<storage::valid_bit_tree>(io_buckets);
      segment_buffers_.resize(page_->group_count());
      for (std::uint32_t g = 0; g < page_->group_count(); ++g) {
        segment_buffers_[g].resize(page_->segment_records(g) *
                                   codec_.record_bytes());
      }
    }
  }

  bucket_ids_.resize(config.bucket_size);
  bucket_payloads_.resize(config.bucket_size * config.payload_bytes);
  bucket_reals_.reserve(config.bucket_size);
  path_window_.resize(static_cast<std::size_t>(level_count_) *
                      config.bucket_size * codec_.record_bytes());

  // Start with a physically dummy-filled tree.
  reset();
}

std::uint64_t path_oram::bucket_on_path(leaf_id leaf,
                                        std::uint32_t level) const {
  return ((std::uint64_t{1} << level) - 1) +
         (leaf >> (level_count_ - 1 - level));
}

bool path_oram::paths_share_bucket(leaf_id a, leaf_id b,
                                   std::uint32_t level) const {
  const std::uint32_t shift = level_count_ - 1 - level;
  return (a >> shift) == (b >> shift);
}

bool path_oram::bucket_in_memory(std::uint64_t bucket) const noexcept {
  return bucket < memory_bucket_count_;
}

std::uint64_t path_oram::bucket_first_slot(std::uint64_t bucket) const {
  const std::uint64_t z = config_.bucket_size;
  if (bucket_in_memory(bucket)) {
    return bucket * z;
  }
  if (!page_) {
    return (bucket - memory_bucket_count_) * z;
  }
  const unsigned level = util::floor_log2(bucket + 1);
  const std::uint64_t position = bucket - ((std::uint64_t{1} << level) - 1);
  return page_->bucket_first_slot(level, position);
}

std::span<const std::uint8_t> path_oram::peek_bucket(
    std::uint64_t bucket) const {
  const storage::block_store& store =
      bucket_in_memory(bucket) ? *memory_store_ : *io_store_;
  return store.peek_range(bucket_first_slot(bucket), config_.bucket_size);
}

std::span<std::uint8_t> path_oram::stage_bucket(std::uint64_t bucket) {
  storage::block_store& store =
      bucket_in_memory(bucket) ? *memory_store_ : *io_store_;
  return store.stage_range(bucket_first_slot(bucket), config_.bucket_size);
}

std::span<const std::uint8_t> path_oram::slot_payload(
    std::uint32_t k) const {
  return std::span<const std::uint8_t>(bucket_payloads_)
      .subspan(std::size_t{k} * config_.payload_bytes, config_.payload_bytes);
}

cost_split path_oram::read_bucket(std::uint64_t bucket,
                                  std::span<std::uint8_t> out) {
  cost_split cost;
  const std::uint64_t z = config_.bucket_size;
  const std::uint64_t first = bucket_first_slot(bucket);
  if (bucket_in_memory(bucket)) {
    cost.memory += memory_store_->read_range(first, z, out);
    trace(trace_, event_kind::memory_bucket_read, bucket);
  } else {
    cost.io += io_store_->read_range(first, z, out);
    trace(trace_, event_kind::storage_read_slot, bucket);
  }
  return cost;
}

cost_split path_oram::write_bucket(std::uint64_t bucket,
                                   std::span<const std::uint8_t> records) {
  cost_split cost;
  const std::uint64_t z = config_.bucket_size;
  const std::uint64_t first = bucket_first_slot(bucket);
  if (bucket_in_memory(bucket)) {
    cost.memory += memory_store_->write_range(first, z, records);
    trace(trace_, event_kind::memory_bucket_write, bucket);
  } else {
    cost.io += io_store_->write_range(first, z, records);
    trace(trace_, event_kind::storage_write_slot, bucket);
  }
  return cost;
}

std::span<std::uint8_t> path_oram::window_bucket(std::uint32_t level) {
  const std::size_t bucket_bytes = codec_.bucket_bytes();
  return {path_window_.data() + level * bucket_bytes, bucket_bytes};
}

bool path_oram::segment_valid(storage::segment_ref segment) const {
  const std::uint32_t top = page_->group_top_level(segment.group);
  for (std::uint32_t d = 0; d < page_->group_height(segment.group); ++d) {
    const std::uint32_t level = top + d;
    for (std::uint64_t j = 0; j < (std::uint64_t{1} << d); ++j) {
      const std::uint64_t position = (segment.index << d) | j;
      const std::uint64_t bucket =
          ((std::uint64_t{1} << level) - 1) + position;
      if (valid_->test(bucket - memory_bucket_count_)) {
        return true;
      }
    }
  }
  return false;
}

void path_oram::mark_segment_valid(storage::segment_ref segment) {
  const std::uint32_t top = page_->group_top_level(segment.group);
  for (std::uint32_t d = 0; d < page_->group_height(segment.group); ++d) {
    const std::uint32_t level = top + d;
    for (std::uint64_t j = 0; j < (std::uint64_t{1} << d); ++j) {
      const std::uint64_t position = (segment.index << d) | j;
      const std::uint64_t bucket =
          ((std::uint64_t{1} << level) - 1) + position;
      valid_->set(bucket - memory_bucket_count_);
    }
  }
}

cost_split path_oram::load_path(leaf_id leaf) {
  cost_split cost;
  const std::size_t bucket_bytes = codec_.bucket_bytes();

  if (!page_) {
    for (std::uint32_t level = 0; level < level_count_; ++level) {
      cost += read_bucket(bucket_on_path(leaf, level), window_bucket(level));
    }
    return cost;
  }

  // Memory levels stay bucket-granular on the memory lane.
  for (std::uint32_t level = 0; level < memory_levels_; ++level) {
    cost += read_bucket(bucket_on_path(leaf, level), window_bucket(level));
  }
  // Storage levels arrive one segment per group, root side first. A
  // segment no bucket of which was ever written holds only dummies, so
  // its device read is skipped and the buffer restored from the host
  // image — an invariant reset()/initialize_full() maintain. Which
  // segments a path touches (and which are skipped) depends only on the
  // leaf and the public write-back history, never on block identities.
  for (std::uint32_t g = 0; g < page_->group_count(); ++g) {
    const storage::segment_ref segment = page_->path_segment(g, leaf);
    const std::uint64_t first = page_->segment_first_slot(segment);
    const std::uint64_t records = page_->segment_records(g);
    std::vector<std::uint8_t>& buffer = segment_buffers_[g];
    if (segment_valid(segment)) {
      cost.io += io_store_->read_range(first, records, buffer);
      trace(trace_, event_kind::storage_read_sweep, first, records);
    } else {
      const std::span<const std::uint8_t> host =
          io_store_->peek_range(first, records);
      std::memcpy(buffer.data(), host.data(), host.size());
    }
    const std::uint32_t top = page_->group_top_level(g);
    for (std::uint32_t d = 0; d < page_->group_height(g); ++d) {
      const std::uint32_t level = top + d;
      const std::uint64_t position = leaf >> (level_count_ - 1 - level);
      const std::uint64_t index =
          page_->bucket_index_in_segment(level, position);
      std::memcpy(window_bucket(level).data(),
                  buffer.data() + index * bucket_bytes, bucket_bytes);
    }
  }
  return cost;
}

cost_split path_oram::store_path(leaf_id leaf) {
  cost_split cost;
  const std::size_t bucket_bytes = codec_.bucket_bytes();

  if (!page_) {
    for (std::uint32_t down = 0; down < level_count_; ++down) {
      const std::uint32_t level = level_count_ - 1 - down;
      cost += write_bucket(bucket_on_path(leaf, level), window_bucket(level));
    }
    return cost;
  }

  // Leaf-to-root: deepest group's segment first, then up, then the
  // memory buckets. Path buckets are spliced into the segment buffer
  // load_path filled; sibling bytes go back unchanged. The write makes
  // every covered bucket's device image authoritative, so the whole
  // segment turns valid.
  for (std::uint32_t up = 0; up < page_->group_count(); ++up) {
    const std::uint32_t g = page_->group_count() - 1 - up;
    const storage::segment_ref segment = page_->path_segment(g, leaf);
    std::vector<std::uint8_t>& buffer = segment_buffers_[g];
    const std::uint32_t top = page_->group_top_level(g);
    for (std::uint32_t d = 0; d < page_->group_height(g); ++d) {
      const std::uint32_t level = top + d;
      const std::uint64_t position = leaf >> (level_count_ - 1 - level);
      const std::uint64_t index =
          page_->bucket_index_in_segment(level, position);
      std::memcpy(buffer.data() + index * bucket_bytes,
                  window_bucket(level).data(), bucket_bytes);
    }
    const std::uint64_t first = page_->segment_first_slot(segment);
    const std::uint64_t records = page_->segment_records(g);
    cost.io += io_store_->write_range(first, records, buffer);
    trace(trace_, event_kind::storage_write_sweep, first, records);
    mark_segment_valid(segment);
  }
  for (std::uint32_t down = 0; down < memory_levels_; ++down) {
    const std::uint32_t level = memory_levels_ - 1 - down;
    cost += write_bucket(bucket_on_path(leaf, level), window_bucket(level));
  }
  return cost;
}

bool path_oram::contains(block_id id) const { return positions_.contains(id); }

cost_split path_oram::path_access(
    leaf_id leaf, block_id requested, op_kind op,
    std::span<const std::uint8_t> write_data,
    std::span<std::uint8_t> read_out,
    const std::function<void(std::span<std::uint8_t>)>* updater,
    bool extract_requested) {
  cost_split cost;
  // One access = one dependent exchange per lane: the whole path is
  // read, served from the stash and written back before the caller can
  // issue anything that depends on the result. A recursive map walk of
  // k levels is k of these scopes, so it counts k round trips.
  sim::trip_scope round_trip(&memory_device_,
                             io_store_ ? &io_store_->device() : nullptr);
  trace(trace_, event_kind::memory_path_access, leaf, config_.leaf_count);

  const std::uint32_t z = config_.bucket_size;
  const std::size_t record_bytes = codec_.record_bytes();

  // Read the path root-to-leaf into the window, then move every real
  // block into the stash (root-to-leaf, slot order).
  cost += load_path(leaf);
  for (std::uint32_t level = 0; level < level_count_; ++level) {
    codec_.decode(window_bucket(level), bucket_ids_, bucket_payloads_);
    for (std::uint32_t k = 0; k < z; ++k) {
      const block_id id = bucket_ids_[k];
      if (id == dummy_block_id) {
        continue;
      }
      invariant(positions_.contains(id),
                "tree holds a block missing from the position map");
      stash_.put(id, positions_.leaf_of(id), slot_payload(k));
    }
  }

  // Serve the request from the stash.
  if (requested != dummy_block_id) {
    if (!stash_.contains(requested)) {
      // First-ever touch: the block materialises zero-filled.
      const std::vector<std::uint8_t> zeros(config_.payload_bytes, 0);
      stash_.put(requested, positions_.leaf_of(requested), zeros);
    }
    stash_entry& entry = stash_.at(requested);
    // The request was remapped before the path read; a block that was
    // already sheltering in the stash must follow its new leaf, or the
    // write-back would strand it off its position-map path.
    entry.leaf = positions_.leaf_of(requested);
    if (op == op_kind::write) {
      expects(write_data.size() <= config_.payload_bytes,
              "write larger than the block payload");
      std::fill(entry.payload.begin(), entry.payload.end(), 0);
      std::memcpy(entry.payload.data(), write_data.data(),
                  write_data.size());
    } else if (!read_out.empty()) {
      expects(read_out.size() >= config_.payload_bytes,
              "read buffer too small");
      std::memcpy(read_out.data(), entry.payload.data(),
                  config_.payload_bytes);
    }
    if (updater != nullptr) {
      (*updater)(std::span<std::uint8_t>(entry.payload.data(),
                                         entry.payload.size()));
    }
    if (extract_requested) {
      // The live copy leaves the tree: drop it from the stash and the
      // position map before the write-back re-places the path.
      stash_.erase(requested);
      positions_.remove(requested);
    }
  }

  // Greedy write-back, deepest bucket first, composed into the window
  // and flushed as one store_path (same device order as composing and
  // writing level by level; under `page`, one transfer per segment).
  for (std::uint32_t down = 0; down < level_count_; ++down) {
    const std::uint32_t level = level_count_ - 1 - down;
    bucket_reals_.clear();
    for (const auto& [id, entry] : stash_) {
      if (paths_share_bucket(entry.leaf, leaf, level)) {
        bucket_reals_.push_back(bucket_codec::entry{id, entry.payload});
        if (bucket_reals_.size() == z) {
          break;
        }
      }
    }
    codec_.encode(bucket_reals_, window_bucket(level));
    for (const bucket_codec::entry& real : bucket_reals_) {
      stash_.erase(real.id);
    }
  }
  cost += store_path(leaf);

  // Control-layer cost: decrypt + re-encrypt the full path, plus map and
  // stash bookkeeping.
  const std::uint64_t records_touched = 2ULL * level_count_ * z;
  cost.cpu += cpu_.crypto_time(records_touched, record_bytes);
  cost.cpu += cpu_.word_ops_time(records_touched + stash_.size());
  return cost;
}

cost_split path_oram::access(op_kind op, block_id id,
                             std::span<const std::uint8_t> write_data,
                             std::span<std::uint8_t> read_out) {
  expects(id < positions_.universe(), "block id outside the universe");
  expects(id != dummy_block_id, "cannot access the dummy id");

  leaf_id old_leaf = 0;
  if (positions_.contains(id)) {
    old_leaf = positions_.leaf_of(id);
  } else {
    old_leaf = util::uniform_below(rng_, config_.leaf_count);
    ++resident_;
  }
  // Remap before the path read so repeated accesses never repeat leaves.
  positions_.assign(id, util::uniform_below(rng_, config_.leaf_count));
  ++stats_.real_accesses;
  return path_access(old_leaf, id, op, write_data, read_out);
}

cost_split path_oram::access_rmw(
    block_id id,
    const std::function<void(std::span<std::uint8_t>)>& updater) {
  expects(id < positions_.universe(), "block id outside the universe");
  expects(static_cast<bool>(updater), "rmw needs an updater");

  leaf_id old_leaf = 0;
  if (positions_.contains(id)) {
    old_leaf = positions_.leaf_of(id);
  } else {
    old_leaf = util::uniform_below(rng_, config_.leaf_count);
    ++resident_;
  }
  positions_.assign(id, util::uniform_below(rng_, config_.leaf_count));
  ++stats_.real_accesses;
  return path_access(old_leaf, id, op_kind::read, {}, {}, &updater);
}

cost_split path_oram::extract(block_id id,
                              std::span<std::uint8_t> read_out) {
  expects(id < positions_.universe(), "block id outside the universe");
  expects(positions_.contains(id), "extract of a non-resident block");
  // No remap: the block leaves the tree, so its (about to be read) path
  // is never correlated with a future access.
  const leaf_id old_leaf = positions_.leaf_of(id);
  ++stats_.real_accesses;
  const cost_split cost = path_access(old_leaf, id, op_kind::read, {},
                                      read_out, nullptr,
                                      /*extract_requested=*/true);
  --resident_;
  return cost;
}

cost_split path_oram::dummy_access() {
  ++stats_.dummy_accesses;
  const leaf_id leaf = util::uniform_below(rng_, config_.leaf_count);
  return path_access(leaf, dummy_block_id, op_kind::read, {}, {});
}

cost_split path_oram::install(block_id id,
                              std::span<const std::uint8_t> payload) {
  return install(id, payload, util::uniform_below(rng_, config_.leaf_count));
}

cost_split path_oram::install(block_id id,
                              std::span<const std::uint8_t> payload,
                              leaf_id leaf) {
  expects(id < positions_.universe(), "block id outside the universe");
  expects(!positions_.contains(id), "block already resident");
  expects(leaf < config_.leaf_count, "install leaf out of range");
  positions_.assign(id, leaf);
  stash_.put(id, leaf, payload);
  ++resident_;
  ++stats_.installs;

  cost_split cost;
  cost.cpu += cpu_.word_ops_time(4);
  return cost;
}

cost_split path_oram::evict_all(std::vector<evicted_block>& out) {
  cost_split cost;
  // The whole-tree sweep is one streamed batch on each lane.
  sim::trip_scope round_trip(&memory_device_,
                             io_store_ ? &io_store_->device() : nullptr);
  ++stats_.evictions;
  out.clear();

  const std::size_t record_bytes = codec_.record_bytes();
  const std::size_t bucket_bytes = codec_.bucket_bytes();

  // 1) Stream the whole tree (sequential sweeps) and decode.
  const auto take_reals = [&](std::span<const std::uint8_t> bucket) {
    codec_.decode(bucket, bucket_ids_, bucket_payloads_);
    for (std::uint32_t k = 0; k < config_.bucket_size; ++k) {
      if (bucket_ids_[k] == dummy_block_id) {
        continue;
      }
      const std::span<const std::uint8_t> payload = slot_payload(k);
      out.push_back(evicted_block{
          bucket_ids_[k],
          std::vector<std::uint8_t>(payload.begin(), payload.end())});
    }
  };
  std::vector<std::uint8_t> chunk;
  const auto sweep = [&](storage::block_store& store, bool memory_lane) {
    // A sweep chunk need not end on a bucket boundary: the head of a
    // bucket it cuts waits at the front of the buffer for the rest.
    std::size_t carry = 0;
    const std::uint64_t slots = store.slot_count();
    for (std::uint64_t first = 0; first < slots;
         first += sweep_chunk_records) {
      const std::uint64_t count =
          std::min(sweep_chunk_records, slots - first);
      chunk.resize(carry + count * record_bytes);
      const sim::sim_time t = store.read_range(
          first, count, std::span<std::uint8_t>(chunk).subspan(carry));
      (memory_lane ? cost.memory : cost.io) += t;
      const std::size_t whole = chunk.size() / bucket_bytes;
      for (std::size_t b = 0; b < whole; ++b) {
        take_reals(std::span<const std::uint8_t>(
            chunk.data() + b * bucket_bytes, bucket_bytes));
      }
      carry = chunk.size() - whole * bucket_bytes;
      std::memmove(chunk.data(), chunk.data() + whole * bucket_bytes, carry);
    }
  };
  if (memory_store_) {
    sweep(*memory_store_, /*memory_lane=*/true);
  }
  if (io_store_ && !page_) {
    sweep(*io_store_, /*memory_lane=*/false);
  } else if (io_store_) {
    // Page layout: stream segment by segment, skipping never-written
    // segments outright — they hold only dummies, so the scan loses
    // nothing and the device is spared the transfer. The skip pattern
    // is the (public) valid-bit occupancy, not a function of block
    // identities.
    for (std::uint32_t g = 0; g < page_->group_count(); ++g) {
      const std::uint64_t records = page_->segment_records(g);
      chunk.resize(records * record_bytes);
      for (std::uint64_t s = 0; s < page_->segment_count(g); ++s) {
        const storage::segment_ref segment{g, s};
        if (!segment_valid(segment)) {
          continue;
        }
        cost.io += io_store_->read_range(page_->segment_first_slot(segment),
                                         records, chunk);
        for (std::size_t b = 0; b < page_->segment_buckets(g); ++b) {
          take_reals(std::span<const std::uint8_t>(
              chunk.data() + b * bucket_bytes, bucket_bytes));
        }
      }
    }
  }

  // Stash contents are part of the eviction too.
  for (const auto& [id, entry] : stash_) {
    out.push_back(evicted_block{id, entry.payload});
  }

  // 2) Oblivious shuffle of the eviction buffer. Correctness-wise a
  // uniform shuffle; cost-wise the K-oblivious cache shuffle the paper
  // selects: two passes over all tree slots (spray + clean), each pass
  // decrypting and re-encrypting every record and moving it through
  // memory once.
  const std::uint64_t total_slots = capacity_blocks();
  cost.cpu += cpu_.crypto_time(4 * total_slots, record_bytes);
  const std::uint64_t sweep_bytes = total_slots * logical_bytes_;
  cost.memory += memory_device_.read(0, sweep_bytes);
  cost.memory += memory_device_.write(0, sweep_bytes);
  cost.memory += memory_device_.read(0, sweep_bytes);
  cost.memory += memory_device_.write(0, sweep_bytes);

  std::vector<std::uint64_t> order = util::random_permutation(
      rng_, static_cast<std::uint64_t>(out.size()));
  std::vector<evicted_block> shuffled(out.size());
  for (std::uint64_t i = 0; i < out.size(); ++i) {
    shuffled[order[i]] = std::move(out[i]);
  }
  out = std::move(shuffled);

  // 3) Dummies were dropped during the decode scan; clear logical state.
  invariant(out.size() == resident_, "eviction lost blocks");
  positions_.clear();
  stash_.clear();
  resident_ = 0;
  return cost;
}

void path_oram::for_each_resident(
    const std::function<void(block_id, leaf_id,
                             std::span<const std::uint8_t>)>& visit)
    const {
  // Heap order, whatever the device-side layout.
  const std::size_t payload_bytes = config_.payload_bytes;
  std::vector<block_id> ids(config_.bucket_size);
  std::vector<std::uint8_t> payloads(config_.bucket_size * payload_bytes);
  for (std::uint64_t bucket = 0; bucket < bucket_count_; ++bucket) {
    codec_.decode(peek_bucket(bucket), ids, payloads);
    for (std::uint32_t k = 0; k < config_.bucket_size; ++k) {
      if (ids[k] == dummy_block_id) {
        continue;
      }
      visit(ids[k], positions_.leaf_of(ids[k]),
            std::span<const std::uint8_t>(payloads).subspan(
                k * payload_bytes, payload_bytes));
    }
  }
  for (const auto& [id, entry] : stash_) {
    visit(id, entry.leaf, entry.payload);
  }
}

void path_oram::check_consistency() const {
  std::vector<block_id> ids(config_.bucket_size);
  std::vector<std::uint8_t> seen(positions_.universe(), 0);
  std::uint64_t found = 0;

  for (std::uint64_t bucket = 0; bucket < bucket_count_; ++bucket) {
    const std::uint32_t reals = codec_.decode(peek_bucket(bucket), ids, {});
    // Never-written storage buckets are skipped on the device under
    // page; their host image must therefore still be all-dummy, or a
    // skip would lose data.
    invariant(reals == 0 || bucket_in_memory(bucket) || !page_ ||
                  valid_->test(bucket - memory_bucket_count_),
              "invalid bucket holds a real block");
    const unsigned level = util::floor_log2(bucket + 1);
    for (const block_id id : ids) {
      if (id == dummy_block_id) {
        continue;
      }
      invariant(id < positions_.universe(),
                "tree holds an out-of-universe block");
      invariant(positions_.contains(id),
                "tree holds a block missing from the position map");
      invariant(seen[id] == 0, "block stored in two tree slots");
      seen[id] = 1;
      ++found;
      invariant(bucket == bucket_on_path(positions_.leaf_of(id), level),
                "block stored off its position-map path");
    }
  }

  for (const auto& [id, entry] : stash_) {
    invariant(id < positions_.universe(),
              "stash holds an out-of-universe block");
    invariant(positions_.contains(id),
              "stash holds a block missing from the position map");
    invariant(entry.leaf == positions_.leaf_of(id),
              "stash leaf disagrees with the position map");
    invariant(seen[id] == 0, "block in both the tree and the stash");
    seen[id] = 1;
    ++found;
    invariant(entry.payload.size() == config_.payload_bytes,
              "stash payload has the wrong size");
  }

  invariant(found == resident_, "resident counter out of sync");
  invariant(positions_.size() == resident_,
            "position map size disagrees with the resident count");
}

cost_split path_oram::reset() {
  cost_split cost;
  sim::trip_scope round_trip(&memory_device_,
                             io_store_ ? &io_store_->device() : nullptr);
  const std::size_t record_bytes = codec_.record_bytes();
  const std::size_t bucket_bytes = codec_.bucket_bytes();

  // Dummy buckets are composed where they live, then committed.
  const auto rewrite = [&](storage::block_store& store, sim::sim_time& lane) {
    const std::uint64_t slots = store.slot_count();
    const std::span<std::uint8_t> image = store.stage_range(0, slots);
    for (std::size_t at = 0; at < image.size(); at += bucket_bytes) {
      codec_.encode_dummy(image.subspan(at, bucket_bytes));
    }
    lane += commit_sweeps(store);
    cost.cpu += cpu_.crypto_time(slots, record_bytes);
  };
  if (memory_store_) {
    rewrite(*memory_store_, cost.memory);
  }
  if (io_store_ && !page_) {
    rewrite(*io_store_, cost.io);
  } else if (io_store_) {
    // Page layout: clearing the valid bits IS the reinitialisation —
    // every bucket reads as all-dummy without a single device write (or
    // the crypto to produce buckets the device never has to see). The
    // host image is primed with one encoded dummy bucket so skipped
    // reads and audit peeks stay decodable.
    const std::span<std::uint8_t> image =
        io_store_->stage_range(0, io_store_->slot_count());
    codec_.encode_dummy(image.first(bucket_bytes));
    for (std::size_t at = bucket_bytes; at < image.size();
         at += bucket_bytes) {
      std::memcpy(image.data() + at, image.data(), bucket_bytes);
    }
    valid_->clear();
  }

  positions_.clear();
  stash_.clear();
  resident_ = 0;
  return cost;
}

cost_split path_oram::initialize_full(
    std::uint64_t count,
    const std::function<void(block_id, std::span<std::uint8_t>)>& filler,
    std::vector<leaf_id>* leaves_out) {
  expects(count <= positions_.universe(), "more blocks than the universe");
  expects(count <= capacity_blocks(), "tree cannot hold that many blocks");
  cost_split cost;
  sim::trip_scope round_trip(&memory_device_,
                             io_store_ ? &io_store_->device() : nullptr);

  // Assign leaves and group ids by leaf (counting sort).
  std::vector<leaf_id> leaves(count);
  std::vector<std::uint64_t> leaf_counts(config_.leaf_count, 0);
  for (block_id id = 0; id < count; ++id) {
    leaves[id] = util::uniform_below(rng_, config_.leaf_count);
    ++leaf_counts[leaves[id]];
    positions_.assign(id, leaves[id]);
  }
  std::vector<std::uint64_t> leaf_offsets(config_.leaf_count + 1, 0);
  for (leaf_id l = 0; l < config_.leaf_count; ++l) {
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
  std::vector<std::uint8_t> payloads(count * config_.payload_bytes, 0);
  for (block_id id = 0; id < count; ++id) {
    filler(id, std::span<std::uint8_t>(
                   payloads.data() + id * config_.payload_bytes,
                   config_.payload_bytes));
  }

  // Bottom-up greedy placement: post-order DFS; each node packs up to Z
  // pending blocks (all of which have this bucket on their path) and
  // passes the rest to its parent. Every bucket is encoded once, where
  // it lives in its store.
  const std::uint64_t z = config_.bucket_size;
  const std::size_t record_bytes = codec_.record_bytes();
  std::vector<std::uint8_t> real_in_bucket(bucket_count_, 0);

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

    const std::uint64_t bucket =
        ((std::uint64_t{1} << level) - 1) + node_in_level;
    const std::uint64_t take = std::min<std::uint64_t>(z, pending.size());
    if (take > 0) {
      real_in_bucket[bucket] = 1;
    }
    bucket_reals_.clear();
    for (std::uint64_t k = 0; k < take; ++k) {
      const block_id id = pending[pending.size() - 1 - k];
      bucket_reals_.push_back(bucket_codec::entry{
          id, std::span<const std::uint8_t>(
                  payloads.data() + id * config_.payload_bytes,
                  config_.payload_bytes)});
    }
    codec_.encode(bucket_reals_, stage_bucket(bucket));
    pending.resize(pending.size() - take);
    return pending;
  };
  std::vector<block_id> overflow = build(0, 0);
  for (const block_id id : overflow) {
    stash_.put(id, leaves[id],
               std::span<const std::uint8_t>(
                   payloads.data() + id * config_.payload_bytes,
                   config_.payload_bytes));
  }

  // Commit the composed image as sequential sweeps on both lanes.
  if (memory_store_) {
    cost.memory += commit_sweeps(*memory_store_);
  }
  if (io_store_ && !page_) {
    cost.io += commit_sweeps(*io_store_);
  } else if (io_store_) {
    // Page layout: only segments holding a real block reach the device;
    // all-dummy segments stay host-side and invalid, so the bulk of the
    // initial image is never transferred. Which segments qualify
    // depends on the uniform leaf draw alone.
    valid_->clear();
    for (std::uint32_t g = 0; g < page_->group_count(); ++g) {
      const std::uint32_t top = page_->group_top_level(g);
      for (std::uint64_t s = 0; s < page_->segment_count(g); ++s) {
        const storage::segment_ref segment{g, s};
        bool has_real = false;
        for (std::uint32_t d = 0; d < page_->group_height(g); ++d) {
          const std::uint32_t level = top + d;
          for (std::uint64_t j = 0; j < (std::uint64_t{1} << d); ++j) {
            const std::uint64_t bucket =
                ((std::uint64_t{1} << level) - 1) + ((s << d) | j);
            has_real = has_real || real_in_bucket[bucket] != 0;
          }
        }
        if (has_real) {
          cost.io += io_store_->commit_range(
              page_->segment_first_slot(segment), page_->segment_records(g));
          mark_segment_valid(segment);
        }
      }
    }
  }
  cost.cpu += cpu_.crypto_time(bucket_count_ * z, record_bytes);

  resident_ = count;
  if (leaves_out != nullptr) {
    *leaves_out = leaves;
  }
  return cost;
}

}  // namespace horam::oram
