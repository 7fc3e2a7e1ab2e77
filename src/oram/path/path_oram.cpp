#include "oram/path/path_oram.h"

#include <algorithm>
#include <cstring>

#include "util/contracts.h"
#include "util/math.h"

namespace horam::oram {

path_oram::path_oram(const path_oram_config& config,
                     sim::block_device& memory_device,
                     sim::block_device* io_device, const sim::cpu_model& cpu,
                     util::random_source& rng, access_trace* trace,
                     tree_role role)
    : tree_core(config.leaf_count, config.bucket_size, config.payload_bytes,
                config.id_universe, role, cpu, rng),
      config_(config),
      memory_levels_(std::min(config.memory_levels, level_count())),
      memory_bucket_count_((std::uint64_t{1} << memory_levels_) - 1),
      codec_(config.bucket_size, config.payload_bytes, config.seal,
             config.key_seed),
      memory_device_(memory_device),
      logical_bytes_(
          logical_block_bytes(config.logical_block_bytes,
                              codec_.record_bytes())),
      trace_(trace) {
  if (memory_bucket_count_ > 0) {
    memory_store_ = std::make_unique<storage::block_store>(
        memory_device, /*base_offset=*/0,
        memory_bucket_count_ * config.bucket_size, codec_.record_bytes(),
        logical_bytes_);
  }
  const std::uint64_t io_buckets = bucket_count() - memory_bucket_count_;
  if (io_buckets > 0) {
    expects(io_device != nullptr,
            "tree deeper than memory_levels needs a storage device");
    io_store_ = std::make_unique<storage::block_store>(
        *io_device, /*base_offset=*/0, io_buckets * config.bucket_size,
        codec_.record_bytes(), logical_bytes_);
    if (config.layout == storage::storage_layout::page) {
      storage::page_layout_config page_config;
      page_config.total_levels = level_count();
      page_config.first_level = memory_levels_;
      page_config.bucket_size = config.bucket_size;
      page_config.logical_block_bytes = logical_bytes_;
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

  // The whole-tree sweeps decode a path's worth of buckets at a time;
  // plan_union() grows the window for larger batches.
  path_ids_.resize(std::size_t{level_count()} * config.bucket_size);
  path_payloads_.resize(path_ids_.size() * config.payload_bytes);
  zero_payload_.resize(config.payload_bytes, 0);

  // Start with a physically dummy-filled tree.
  reset();
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
    std::size_t slot) const {
  return std::span<const std::uint8_t>(path_payloads_)
      .subspan(slot * config_.payload_bytes, config_.payload_bytes);
}

void path_oram::seal_in_windows(std::span<std::uint8_t> image) {
  const std::size_t bucket_bytes = codec_.bucket_bytes();
  std::vector<std::span<std::uint8_t>> batch;
  batch.reserve(level_count());
  for (std::size_t at = 0; at < image.size(); at += bucket_bytes) {
    batch.push_back(image.subspan(at, bucket_bytes));
    codec_.encode_plain({}, batch.back());
    if (batch.size() == level_count() || at + bucket_bytes == image.size()) {
      codec_.seal_many(batch);
      batch.clear();
    }
  }
}

void path_oram::take_reals(std::span<const std::uint8_t> buckets,
                           std::vector<evicted_block>& out) {
  const std::size_t bucket_bytes = codec_.bucket_bytes();
  std::vector<std::span<const std::uint8_t>> batch;
  batch.reserve(level_count());
  for (std::size_t at = 0; at < buckets.size(); at += bucket_bytes) {
    batch.push_back(buckets.subspan(at, bucket_bytes));
    if (batch.size() < level_count() && at + bucket_bytes < buckets.size()) {
      continue;
    }
    const std::size_t slots = batch.size() * config_.bucket_size;
    codec_.decode_many(batch, std::span<block_id>(path_ids_).first(slots),
                       std::span<std::uint8_t>(path_payloads_)
                           .first(slots * config_.payload_bytes));
    for (std::size_t slot = 0; slot < slots; ++slot) {
      if (path_ids_[slot] == dummy_block_id) {
        continue;
      }
      const std::span<const std::uint8_t> payload = slot_payload(slot);
      out.push_back(evicted_block{
          record_block(path_ids_[slot]),
          std::vector<std::uint8_t>(payload.begin(), payload.end())});
    }
    batch.clear();
  }
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

std::span<std::uint8_t> path_oram::window_bucket(std::size_t i) {
  const std::size_t bucket_bytes = codec_.bucket_bytes();
  return {path_window_.data() + i * bucket_bytes, bucket_bytes};
}

void path_oram::size_window() {
  const std::size_t buckets = union_buckets().size();
  const std::size_t slots = buckets * config_.bucket_size;
  if (path_ids_.size() < slots) {
    path_ids_.resize(slots);
    path_payloads_.resize(slots * config_.payload_bytes);
  }
  path_window_.resize(
      std::max(path_window_.size(), buckets * codec_.bucket_bytes()));
  root_first_.clear();
  for (std::size_t i = 0; i < buckets; ++i) {
    root_first_.push_back(window_bucket(i));
  }
}

void path_oram::for_each_segment_bucket(
    storage::segment_ref segment,
    const std::function<void(std::uint64_t)>& visit) const {
  const std::uint32_t top = page_->group_top_level(segment.group);
  for (std::uint32_t d = 0; d < page_->group_height(segment.group); ++d) {
    const std::uint32_t level = top + d;
    for (std::uint64_t j = 0; j < (std::uint64_t{1} << d); ++j) {
      visit(((std::uint64_t{1} << level) - 1) + ((segment.index << d) | j));
    }
  }
}

bool path_oram::segment_valid(storage::segment_ref segment) const {
  bool valid = false;
  for_each_segment_bucket(segment, [&](std::uint64_t bucket) {
    valid = valid || valid_->test(bucket - memory_bucket_count_);
  });
  return valid;
}

void path_oram::mark_segment_valid(storage::segment_ref segment) {
  for_each_segment_bucket(segment, [&](std::uint64_t bucket) {
    valid_->set(bucket - memory_bucket_count_);
  });
}

cost_split path_oram::load_union() {
  cost_split cost;
  const std::size_t bucket_bytes = codec_.bucket_bytes();

  if (!page_) {
    for (std::size_t i = 0; i < union_buckets().size(); ++i) {
      cost += read_bucket(union_buckets()[i], window_bucket(i));
    }
    return cost;
  }

  // Page layout: one path, so union position i is level i.
  const leaf_id leaf = batch_leaves_.front();
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
      const std::uint64_t position = leaf >> (level_count() - 1 - level);
      const std::uint64_t index =
          page_->bucket_index_in_segment(level, position);
      std::memcpy(window_bucket(level).data(),
                  buffer.data() + index * bucket_bytes, bucket_bytes);
    }
  }
  return cost;
}

cost_split path_oram::store_union() {
  cost_split cost;
  const std::size_t bucket_bytes = codec_.bucket_bytes();

  if (!page_) {
    for_each_union_leaf_first([&](std::size_t i, std::uint32_t) {
      cost += write_bucket(union_buckets()[i], window_bucket(i));
    });
    return cost;
  }

  const leaf_id leaf = batch_leaves_.front();
  // Leaf-to-root: deepest group's segment first, then up, then the
  // memory buckets. Path buckets are spliced into the segment buffer
  // load_union filled; sibling bytes go back unchanged. The write makes
  // every covered bucket's device image authoritative, so the whole
  // segment turns valid.
  for (std::uint32_t up = 0; up < page_->group_count(); ++up) {
    const std::uint32_t g = page_->group_count() - 1 - up;
    const storage::segment_ref segment = page_->path_segment(g, leaf);
    std::vector<std::uint8_t>& buffer = segment_buffers_[g];
    const std::uint32_t top = page_->group_top_level(g);
    for (std::uint32_t d = 0; d < page_->group_height(g); ++d) {
      const std::uint32_t level = top + d;
      const std::uint64_t position = leaf >> (level_count() - 1 - level);
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

cost_split path_oram::access_batch(std::span<const request> batch) {
  expects(!batch.empty(), "empty access batch");
  expects(!page_ || batch.size() == 1,
          "the page layout serves one path per access");
  for (const request& req : batch) {
    if (req.id == dummy_block_id) {
      continue;
    }
    expects(req.id < config_.id_universe, "block id outside the universe");
    expects(!req.extract || !keyed(), "a keyed tree never extracts");
    expects(keyed() || std::max(req.leaf, req.next_leaf) < config_.leaf_count,
            "caller's leaf outside the tree");
    expects(req.op != op_kind::write ||
                req.write_data.size() <= config_.payload_bytes,
            "write larger than the block payload");
    expects(req.read_out.empty() ||
                req.read_out.size() >= config_.payload_bytes,
            "read buffer too small");
  }

  cost_split cost;
  // One batch = one dependent exchange per lane: the union is read,
  // served from the stash and written back before the caller can issue
  // anything that depends on the result. A recursive map walk of k
  // levels is k of these scopes, so it counts k round trips.
  sim::trip_scope round_trip(&memory_device_,
                             io_store_ ? &io_store_->device() : nullptr);

  // Draw the leaves in list order, as one access after another would.
  // A backend tree reads the leaf its caller names: an extracted block
  // leaves the tree, and any other moves to the caller's fresh leaf.
  batch_leaves_.clear();
  for (const request& req : batch) {
    if (req.id == dummy_block_id) {
      ++stats_.dummy_accesses;
      batch_leaves_.push_back(random_leaf());
    } else if (keyed()) {
      batch_leaves_.push_back(remap(req.id));
    } else {
      ++stats_.real_accesses;
      batch_leaves_.push_back(req.leaf);
    }
    trace(trace_, event_kind::memory_path_access, batch_leaves_.back(),
          config_.leaf_count);
  }

  // Read the union root level first into the window and open it in one
  // batch (every MAC first), then hand every real block to the stash
  // (window order, slot order).
  plan_union(batch_leaves_);
  size_window();
  const std::size_t slots = union_buckets().size() * config_.bucket_size;
  cost += load_union();
  codec_.decode_many(root_first_,
                     std::span<block_id>(path_ids_).first(slots),
                     std::span<std::uint8_t>(path_payloads_)
                         .first(slots * config_.payload_bytes));
  window_reals_.clear();
  for (std::size_t slot = 0; slot < slots; ++slot) {
    if (path_ids_[slot] != dummy_block_id) {
      window_reals_.push_back(block_ref{path_ids_[slot], slot_payload(slot)});
    }
  }
  // Refuse a backend tree's real request whose block is neither in the
  // stash under its leaf nor opened from the union with that leaf in its
  // record before any block changes hands: the tree and the stash stay
  // as they were.
  for (const request& req : batch) {
    expects(keyed() || req.id == dummy_block_id ||
                (stash_.contains(req.id)
                     ? stash_.at(req.id).leaf == req.leaf
                     : std::ranges::any_of(window_reals_, [&](auto& real) {
                         return real.id == pack_record(req.id, req.leaf);
                       })),
            "block is not on the path to the caller's leaf");
  }
  stash_opened(window_reals_);

  // Serve the requests from the stash, in list order.
  for (const request& req : batch) {
    if (req.id == dummy_block_id) {
      continue;
    }
    if (keyed() && !stash_.contains(req.id)) {
      // First-ever touch: the block materialises zero-filled.
      stash_.put(req.id, 0, zero_payload_);
    }
    stash_entry& entry = stash_.at(req.id);
    // The request was remapped before the read; a block opened under its
    // record's old leaf or sheltering in the stash must follow its new
    // leaf, or the write-back would strand it off its path.
    if (!req.extract) {
      entry.leaf = keyed() ? positions_->leaf_of(req.id) : req.next_leaf;
    }
    if (!req.read_out.empty()) {
      std::memcpy(req.read_out.data(), entry.payload.data(),
                  config_.payload_bytes);
    }
    if (req.op == op_kind::write) {
      std::fill(entry.payload.begin(), entry.payload.end(), 0);
      std::memcpy(entry.payload.data(), req.write_data.data(),
                  req.write_data.size());
    }
    if (req.updater != nullptr) {
      (*req.updater)(std::span<std::uint8_t>(entry.payload.data(),
                                             entry.payload.size()));
    }
    if (req.extract) {
      // The live copy leaves the tree: drop it from the stash before
      // the write-back re-places the union.
      stash_.erase(req.id);
      --resident_;
    }
  }

  // Greedy write-back over the union, deepest level first, composed
  // into the window, sealed in that order in one batch and flushed as
  // one store_union (same nonces and device order as composing, sealing
  // and writing bucket by bucket; under `page`, one transfer per
  // segment).
  leaf_first_.clear();
  write_back_union([&](std::size_t i, std::span<const block_ref> reals) {
    codec_.encode_plain(reals, window_bucket(i));
    leaf_first_.push_back(window_bucket(i));
  });
  codec_.seal_many(leaf_first_);
  cost += store_union();

  // Control-layer cost: decrypt + re-encrypt every union bucket, plus
  // map and stash bookkeeping.
  const std::uint64_t records_touched = 2ULL * slots;
  cost.cpu += cpu_.crypto_time(records_touched, codec_.record_bytes());
  cost.cpu += cpu_.word_ops_time(records_touched + stash_.size());
  return cost;
}

leaf_id path_oram::remap(block_id id) {
  leaf_id old_leaf = 0;
  if (positions_->contains(id)) {
    old_leaf = positions_->leaf_of(id);
  } else {
    old_leaf = random_leaf();
    ++resident_;
  }
  // Remap before the path read so repeated accesses never repeat leaves.
  positions_->assign(id, random_leaf());
  ++stats_.real_accesses;
  return old_leaf;
}

cost_split path_oram::access(op_kind op, block_id id,
                             std::span<const std::uint8_t> write_data,
                             std::span<std::uint8_t> read_out) {
  expects(id != dummy_block_id, "cannot access the dummy id");
  request req;
  req.id = id;
  req.op = op;
  req.write_data = write_data;
  if (op == op_kind::read) {
    req.read_out = read_out;
  }
  return access_batch({&req, 1});
}

cost_split path_oram::extract(block_id id, leaf_id leaf,
                              std::span<std::uint8_t> read_out) {
  expects(id != dummy_block_id, "cannot access the dummy id");
  request req;
  req.id = id;
  req.leaf = leaf;
  req.read_out = read_out;
  req.extract = true;
  return access_batch({&req, 1});
}

cost_split path_oram::dummy_access() {
  const request req;
  return access_batch({&req, 1});
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

  // 1) Stream the whole tree (sequential sweeps) and decode it a path
  // window's worth of buckets at a time.
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
      take_reals(std::span<const std::uint8_t>(chunk).first(whole *
                                                            bucket_bytes),
                 out);
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
        take_reals(chunk, out);
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
  clear_client();
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
  for (std::uint64_t bucket = 0; bucket < bucket_count(); ++bucket) {
    codec_.decode(peek_bucket(bucket), ids, payloads);
    for (std::uint32_t k = 0; k < config_.bucket_size; ++k) {
      if (ids[k] == dummy_block_id) {
        continue;
      }
      visit(record_block(ids[k]), record_leaf(ids[k]),
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
  check_client([&](const stored_fn& stored) {
    for (std::uint64_t bucket = 0; bucket < bucket_count(); ++bucket) {
      const std::uint32_t reals =
          codec_.decode(peek_bucket(bucket), ids, {});
      // Never-written storage buckets are skipped on the device under
      // page; their host image must therefore still be all-dummy, or a
      // skip would lose data.
      invariant(reals == 0 || bucket_in_memory(bucket) || !page_ ||
                    valid_->test(bucket - memory_bucket_count_),
                "invalid bucket holds a real block");
      for (const block_id word : ids) {
        if (word != dummy_block_id) {
          stored(record_block(word), record_leaf(word), bucket);
        }
      }
    }
  });
}

cost_split path_oram::reset() {
  cost_split cost;
  sim::trip_scope round_trip(&memory_device_,
                             io_store_ ? &io_store_->device() : nullptr);
  const std::size_t record_bytes = codec_.record_bytes();
  const std::size_t bucket_bytes = codec_.bucket_bytes();

  // Dummy buckets are composed where they live, sealed a path window's
  // worth at a time in heap order, then committed.
  const auto rewrite = [&](storage::block_store& store, sim::sim_time& lane) {
    const std::uint64_t slots = store.slot_count();
    seal_in_windows(store.stage_range(0, slots));
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

  clear_client();
  return cost;
}

cost_split path_oram::initialize_full(
    std::uint64_t count, const filler_fn& filler,
    std::vector<leaf_id>* leaves_out) {
  cost_split cost;
  sim::trip_scope round_trip(&memory_device_,
                             io_store_ ? &io_store_->device() : nullptr);

  // Every bucket is composed once, where it lives in its store, as the
  // placement hands it over, and sealed in post-order batches of a path
  // window's size (the nonce order of sealing each bucket as it is
  // composed).
  std::vector<std::uint8_t> real_in_bucket(bucket_count(), 0);
  std::vector<std::span<std::uint8_t>> unsealed;
  unsealed.reserve(level_count());
  build_client(count, filler, leaves_out,
               [&](std::uint64_t bucket, std::span<const block_ref> reals) {
                 real_in_bucket[bucket] = reals.empty() ? 0 : 1;
                 unsealed.push_back(stage_bucket(bucket));
                 codec_.encode_plain(reals, unsealed.back());
                 if (unsealed.size() == level_count()) {
                   codec_.seal_many(unsealed);
                   unsealed.clear();
                 }
               });
  codec_.seal_many(unsealed);

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
      for (std::uint64_t s = 0; s < page_->segment_count(g); ++s) {
        const storage::segment_ref segment{g, s};
        bool has_real = false;
        for_each_segment_bucket(segment, [&](std::uint64_t bucket) {
          has_real = has_real || real_in_bucket[bucket] != 0;
        });
        if (has_real) {
          cost.io += io_store_->commit_range(
              page_->segment_first_slot(segment), page_->segment_records(g));
          mark_segment_valid(segment);
        }
      }
    }
  }
  cost.cpu += cpu_.crypto_time(capacity_blocks(), codec_.record_bytes());
  return cost;
}

}  // namespace horam::oram
