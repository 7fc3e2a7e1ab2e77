#include "core/storage_layer.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/contracts.h"
#include "util/math.h"

namespace horam {

namespace {

constexpr std::uint32_t no_pool_position =
    std::numeric_limits<std::uint32_t>::max();

/// Survivor records a due partition opens per decode_many() call: wide
/// enough to fill the SIMD lanes, small enough to bound the codec's
/// scratch.
constexpr std::size_t open_batch_records = 64;

}  // namespace

storage_layer::storage_layer(
    const horam_config& config, sim::block_device& device,
    const sim::cpu_model& cpu, util::random_source& rng,
    oram::access_trace* trace,
    const std::function<void(oram::block_id, std::span<std::uint8_t>)>*
        filler)
    : config_(config),
      codec_(config.payload_bytes, config.seal, config.key_seed ^ 0x5a),
      cpu_(cpu),
      rng_(rng),
      trace_(trace),
      pool_weight_(config.partition_count()) {
  config_.validate();

  const std::uint64_t partitions = config_.partition_count();
  const std::uint64_t expected =
      util::ceil_div(config_.block_count, partitions);
  const std::uint64_t main_capacity = std::max(
      expected, static_cast<std::uint64_t>(
                    config_.partition_slack * static_cast<double>(expected) +
                    1.0));

  // Append segments hold a period's evicted blocks for one partition;
  // capacity covers the binomial tail and up to shuffle_every_periods
  // pending segments.
  const std::uint64_t mean_hot =
      util::ceil_div(config_.period_loads(), partitions);
  segment_capacity_ = static_cast<std::uint64_t>(2.5 * static_cast<double>(
                                                           mean_hot)) +
                      2;
  const std::uint64_t append_capacity =
      config_.shuffle_every_periods > 1
          ? segment_capacity_ * config_.shuffle_every_periods
          : 0;

  store_ = std::make_unique<storage::partitioned_store>(
      device, /*base_offset=*/0,
      storage::partition_geometry{partitions, main_capacity,
                                  append_capacity},
      codec_.record_bytes(),
      oram::logical_block_bytes(config_.logical_block_bytes,
                                codec_.record_bytes()));

  expects(config_.block_count < empty_slot,
          "the partitioned layer needs block ids below 2^32 - 1");
  expects(partitions < (std::uint64_t{1} << 24),
          "the partitioned layer needs fewer than 2^24 partitions");
  locations_.resize(config_.block_count);
  contents_.assign(partitions,
                   std::vector<std::uint32_t>(main_capacity + append_capacity,
                                              empty_slot));
  pool_.resize(partitions);
  pool_position_.assign(partitions,
                        std::vector<std::uint32_t>(
                            main_capacity + append_capacity,
                            no_pool_position));
  pending_segments_.assign(partitions, 0);
  record_scratch_.resize(codec_.record_bytes());
  payload_scratch_.resize(config_.payload_bytes);

  // Initial permuted layout: a random deal of ids across partitions,
  // random slot order inside each.
  const std::vector<std::uint64_t> order =
      util::random_permutation(rng_, config_.block_count);
  std::vector<std::uint8_t> image(main_capacity * codec_.record_bytes());
  std::vector<std::uint8_t> payload(config_.payload_bytes, 0);
  std::uint64_t cursor = 0;
  for (std::uint64_t p = 0; p < partitions; ++p) {
    const std::uint64_t count =
        std::min(expected, config_.block_count - cursor);
    const std::vector<std::uint64_t> slots =
        util::random_permutation(rng_, main_capacity);
    std::vector<oram::block_id> slot_block(main_capacity,
                                           oram::dummy_block_id);
    for (std::uint64_t k = 0; k < count; ++k) {
      const oram::block_id id = order[cursor + k];
      slot_block[slots[k]] = id;
    }
    cursor += count;
    seal_spans_.clear();
    for (std::uint64_t i = 0; i < main_capacity; ++i) {
      seal_spans_.push_back(std::span<std::uint8_t>(
          image.data() + i * codec_.record_bytes(), codec_.record_bytes()));
      const oram::block_id id = slot_block[i];
      if (id == oram::dummy_block_id) {
        codec_.encode_plain(oram::dummy_block_id, {}, seal_spans_.back());
        continue;
      }
      std::fill(payload.begin(), payload.end(), 0);
      if (filler != nullptr) {
        (*filler)(id, payload);
      }
      codec_.encode_plain(id, payload, seal_spans_.back());
      contents_[p][i] = static_cast<std::uint32_t>(id);
      locations_[id] = location{residence::main_slot,
                                static_cast<std::uint32_t>(p),
                                static_cast<std::uint32_t>(i)};
    }
    codec_.seal_many(seal_spans_);
    store_->write_partition(p, image);
    for (std::uint32_t i = 0; i < main_capacity; ++i) {
      pool_insert(p, i);
    }
  }
  invariant(cursor == config_.block_count, "initial deal lost blocks");
  device.reset_stats();
}

std::uint32_t storage_layer::code_of(const location& loc) const {
  return loc.where == residence::main_slot
             ? loc.index
             : static_cast<std::uint32_t>(store_->geometry().main_capacity) +
                   loc.index;
}

void storage_layer::pool_insert(std::uint64_t partition,
                                std::uint32_t code) {
  invariant(pool_position_[partition][code] == no_pool_position,
            "slot already in the unaccessed pool");
  pool_position_[partition][code] =
      static_cast<std::uint32_t>(pool_[partition].size());
  pool_[partition].push_back(code);
  pool_weight_.add(partition, 1);
}

void storage_layer::pool_remove(std::uint64_t partition,
                                std::uint32_t code) {
  const std::uint32_t position = pool_position_[partition][code];
  invariant(position != no_pool_position, "slot not in the unaccessed pool");
  const std::uint32_t last = pool_[partition].back();
  pool_[partition][position] = last;
  pool_position_[partition][last] = position;
  pool_[partition].pop_back();
  pool_position_[partition][code] = no_pool_position;
  pool_weight_.add(partition, -1);
}

oram::cost_split storage_layer::consume_slot(std::uint64_t partition,
                                             std::uint32_t code,
                                             oram::block_id& decoded_out) {
  oram::cost_split cost;
  const std::uint64_t main_capacity = store_->geometry().main_capacity;
  if (code < main_capacity) {
    cost.io += store_->read_slot(partition, code, record_scratch_);
  } else {
    cost.io += store_->read_append_slot(partition, code - main_capacity,
                                        record_scratch_);
  }
  trace(trace_, oram::event_kind::storage_read_slot,
        partition * store_->geometry().slots_per_partition() + code);
  decoded_out = codec_.decode(record_scratch_, payload_scratch_);
  cost.cpu += cpu_.crypto_time(1, codec_.record_bytes());
  return cost;
}

void storage_layer::mark_cached(oram::block_id id) {
  location& loc = locations_[id];
  invariant(loc.where != residence::memory, "block already cached");
  contents_[loc.partition][code_of(loc)] = empty_slot;
  loc.where = residence::memory;
}

bool storage_layer::in_storage(oram::block_id id) const {
  expects(id < config_.block_count, "block id out of range");
  return locations_[id].where != residence::memory;
}

oram::cost_split storage_layer::masking_reads(std::uint64_t partition) {
  // One extra read per pending segment, drawn from the partition's dead
  // unaccessed slots so live blocks are not consumed. Dead slots are
  // uniformly interspersed by the layout permutation, so the reads are
  // indistinguishable from real ones.
  oram::cost_split cost;
  const std::uint32_t masks = pending_segments_[partition];
  for (std::uint32_t m = 0; m < masks; ++m) {
    auto& pool = pool_[partition];
    std::uint32_t chosen = no_pool_position;
    for (int attempt = 0; attempt < 16 && !pool.empty(); ++attempt) {
      const std::uint32_t candidate = pool[static_cast<std::size_t>(
          util::uniform_below(rng_, pool.size()))];
      if (contents_[partition][candidate] == empty_slot) {
        chosen = candidate;
        break;
      }
    }
    if (chosen == no_pool_position) {
      for (const std::uint32_t candidate : pool) {
        if (contents_[partition][candidate] == empty_slot) {
          chosen = candidate;
          break;
        }
      }
    }
    if (chosen == no_pool_position) {
      break;  // no dead slot left; skip the mask (degenerate configs)
    }
    pool_remove(partition, chosen);
    oram::block_id discarded = oram::dummy_block_id;
    cost += consume_slot(partition, chosen, discarded);
    ++stats_.masking_reads;
  }
  return cost;
}

storage_layer::load_result storage_layer::load_block(oram::block_id id) {
  expects(in_storage(id), "block is not on storage");
  load_result result;
  ++stats_.real_loads;

  const location loc = locations_[id];
  const std::uint32_t target_code = code_of(loc);
  pool_remove(loc.partition, target_code);
  result.cost += masking_reads(loc.partition);

  oram::block_id decoded = oram::dummy_block_id;
  result.cost += consume_slot(loc.partition, target_code, decoded);
  invariant(decoded == id, "permutation list out of sync with storage");
  result.id = id;
  result.payload.assign(payload_scratch_.begin(), payload_scratch_.end());
  mark_cached(id);
  return result;
}

storage_layer::load_result storage_layer::dummy_load() {
  load_result result;
  ++stats_.dummy_loads;

  const std::int64_t total = pool_weight_.total();
  if (total == 0) {
    // Degenerate configuration: every slot was touched this period.
    // Keep the bus busy with a repeat read (pattern deviation counted).
    ++stats_.exhausted_dummy_loads;
    const std::uint64_t p =
        util::uniform_below(rng_, store_->geometry().partition_count);
    const std::uint32_t code = static_cast<std::uint32_t>(
        util::uniform_below(rng_, store_->geometry().main_capacity));
    oram::block_id discarded = oram::dummy_block_id;
    result.cost += consume_slot(p, code, discarded);
    return result;
  }

  const std::int64_t offset =
      static_cast<std::int64_t>(util::uniform_below(
          rng_, static_cast<std::uint64_t>(total)));
  const std::size_t partition = pool_weight_.find_by_offset(offset);
  const std::int64_t within =
      offset - pool_weight_.prefix_sum(partition);
  const std::uint32_t code =
      pool_[partition][static_cast<std::size_t>(within)];
  pool_remove(partition, code);
  result.cost += masking_reads(partition);

  oram::block_id decoded = oram::dummy_block_id;
  result.cost += consume_slot(partition, code, decoded);

  // A live block found by a dummy load is cached for free (prefetch).
  if (decoded != oram::dummy_block_id &&
      contents_[partition][code] == decoded) {
    result.id = decoded;
    result.payload.assign(payload_scratch_.begin(), payload_scratch_.end());
    mark_cached(decoded);
    ++stats_.prefetched_blocks;
  }
  return result;
}

storage_layer::shuffle_plan storage_layer::plan_shuffle(
    const std::vector<oram::evicted_block>& evicted,
    std::uint64_t period_index) {
  trace(trace_, oram::event_kind::shuffle_begin, period_index);

  const std::uint64_t partitions = store_->geometry().partition_count;
  const std::uint64_t main_capacity = store_->geometry().main_capacity;
  const std::uint32_t cadence = config_.shuffle_every_periods;
  const auto is_due = [&](std::uint64_t p) {
    return cadence == 1 || (p % cadence) == (period_index % cadence);
  };

  // Current live occupancy per partition (merge capacity planning).
  std::vector<std::uint64_t> live(partitions, 0);
  for (std::uint64_t p = 0; p < partitions; ++p) {
    for (const std::uint32_t id : contents_[p]) {
      live[p] += id != empty_slot ? 1 : 0;
    }
  }

  // Assign every evicted block to a uniformly random partition with
  // room (rejection sampling; total capacity exceeds N, so placement
  // always succeeds for due partitions — segments can overflow).
  shuffle_plan plan;
  plan.hot.resize(partitions);
  std::vector<std::uint64_t> segment_fill(partitions, 0);
  for (const oram::evicted_block& block : evicted) {
    expects(block.id < config_.block_count, "evicted id out of range");
    invariant(locations_[block.id].where == residence::memory,
              "evicted block the layout says is on storage");
    bool placed = false;
    for (int attempt = 0; attempt < 64 && !placed; ++attempt) {
      const std::uint64_t p = util::uniform_below(rng_, partitions);
      if (is_due(p)) {
        if (live[p] + plan.hot[p].size() < main_capacity) {
          plan.hot[p].push_back(block.id);
          placed = true;
        }
      } else if (segment_fill[p] < segment_capacity_ &&
                 pending_segments_[p] + 1 <= cadence) {
        ++segment_fill[p];
        plan.hot[p].push_back(block.id);
        placed = true;
      }
    }
    if (!placed) {
      // Deterministic fallback: first due partition with room.
      for (std::uint64_t p = 0; p < partitions && !placed; ++p) {
        if (is_due(p) && live[p] + plan.hot[p].size() < main_capacity) {
          plan.hot[p].push_back(block.id);
          placed = true;
        }
      }
    }
    if (!placed) {
      ++stats_.overflow_blocks;
      plan.overflow.push_back(block.id);
    }
  }
  return plan;
}

shuffle_cost storage_layer::shuffle_partition_step(
    std::uint64_t p, std::uint64_t period_index,
    std::span<const oram::evicted_block> hot,
    std::vector<oram::evicted_block>& overflow_out) {
  shuffle_cost cost;
  const std::uint64_t main_capacity = store_->geometry().main_capacity;
  const std::size_t record_bytes = codec_.record_bytes();
  const std::uint32_t cadence = config_.shuffle_every_periods;
  const bool due =
      cadence == 1 || (p % cadence) == (period_index % cadence);

  if (!due) {
    // Append this period's segment (exact size; the assignment is
    // fresh uniform randomness, so its size is data-independent).
    if (hot.empty()) {
      return cost;
    }
    const std::uint64_t base = store_->appended_count(p);
    std::vector<std::uint8_t>& segment = shuffle_out_scratch_;
    segment.resize(hot.size() * record_bytes);
    seal_spans_.clear();
    for (std::uint64_t k = 0; k < hot.size(); ++k) {
      seal_spans_.push_back(std::span<std::uint8_t>(
          segment.data() + k * record_bytes, record_bytes));
      codec_.encode_plain(hot[k].id, hot[k].payload, seal_spans_.back());
      const std::uint32_t append_index =
          static_cast<std::uint32_t>(base + k);
      locations_[hot[k].id] =
          location{residence::append_slot,
                   static_cast<std::uint32_t>(p), append_index};
      const std::uint32_t code =
          static_cast<std::uint32_t>(main_capacity) + append_index;
      contents_[p][code] = hot[k].id;
      if (pool_position_[p][code] != no_pool_position) {
        pool_remove(p, code);  // stale pool entry from a prior epoch
      }
      pool_insert(p, code);
    }
    codec_.seal_many(seal_spans_);
    cost.io_write += store_->append(p, segment);
    cost.cpu += cpu_.crypto_time(hot.size(), record_bytes);
    ++pending_segments_[p];
    ++stats_.append_segments;
    trace(trace_, oram::event_kind::storage_write_sweep,
          p * store_->geometry().slots_per_partition() + main_capacity +
              base,
          hot.size());
    return cost;
  }

  // Due partition: stream in (cold data + pending appends), merge
  // with its hot share in trusted memory, re-permute, stream out.
  std::vector<std::uint8_t>& image = shuffle_image_scratch_;
  std::uint64_t records_read = 0;
  cost.io_read += store_->read_partition(p, image, records_read);
  trace(trace_, oram::event_kind::storage_read_sweep,
        p * store_->geometry().slots_per_partition(), records_read);
  cost.cpu += cpu_.crypto_time(records_read, record_bytes);

  // Survivors open in batches, all before any block moves, and decode
  // in place: survivor i's payload lands at image[i * payload_bytes],
  // over records already read, and the staged entry points there.
  open_spans_.clear();
  for (std::uint64_t code = 0; code < records_read; ++code) {
    if (contents_[p][code] != empty_slot) {
      open_spans_.push_back(std::span<const std::uint8_t>(
          image.data() + code * record_bytes, record_bytes));
    }
  }
  const std::size_t survivors = open_spans_.size();
  ids_scratch_.resize(survivors);
  for (std::size_t first = 0; first < survivors;
       first += open_batch_records) {
    const std::size_t n = std::min(open_batch_records, survivors - first);
    codec_.decode_many(std::span(open_spans_).subspan(first, n),
                       std::span(ids_scratch_).subspan(first, n),
                       std::span(image).subspan(first * config_.payload_bytes,
                                                n * config_.payload_bytes));
  }
  struct staged {
    oram::block_id id;
    std::span<const std::uint8_t> payload;
  };
  std::vector<staged> blocks;
  blocks.reserve(survivors + hot.size());
  for (std::uint64_t code = 0; code < records_read; ++code) {
    if (contents_[p][code] == empty_slot) {
      continue;
    }
    const oram::block_id id = contents_[p][code];
    const std::size_t i = blocks.size();
    invariant(ids_scratch_[i] == id, "partition contents out of sync");
    blocks.push_back(staged{
        id, std::span<const std::uint8_t>(image).subspan(
                i * config_.payload_bytes, config_.payload_bytes)});
  }
  for (const oram::evicted_block& block : hot) {
    blocks.push_back(staged{block.id, block.payload});
  }
  // With partial shuffling, survivors + pending appends + new hot data
  // can exceed the main region; the excess waits in the control-layer
  // shelter until the next period (bounded by the capacity slack).
  while (blocks.size() > main_capacity) {
    const staged& excess = blocks.back();
    locations_[excess.id] = location{residence::memory, 0, 0};
    overflow_out.push_back(oram::evicted_block{
        excess.id, std::vector<std::uint8_t>(excess.payload.begin(),
                                             excess.payload.end())});
    blocks.pop_back();
    ++stats_.overflow_blocks;
  }

  // Fresh in-partition permutation (in-memory shuffle; the paper uses
  // CacheShuffle here — with the partition resident in trusted memory
  // it reduces to a uniform in-memory shuffle).
  const std::vector<std::uint64_t> slot_order =
      util::random_permutation(rng_, main_capacity);
  std::fill(contents_[p].begin(), contents_[p].end(), empty_slot);
  // Each slot is sealed once: block k where slot_order puts it, and a
  // dummy in every slot left over; one batch, nonces in k order.
  std::vector<std::uint8_t>& out = shuffle_out_scratch_;
  out.resize(main_capacity * record_bytes);
  seal_spans_.clear();
  for (std::uint64_t k = 0; k < main_capacity; ++k) {
    const std::uint32_t index =
        static_cast<std::uint32_t>(slot_order[k]);
    seal_spans_.push_back(std::span<std::uint8_t>(
        out.data() + index * record_bytes, record_bytes));
    if (k >= blocks.size()) {
      codec_.encode_plain(oram::dummy_block_id, {}, seal_spans_.back());
      continue;
    }
    codec_.encode_plain(blocks[k].id, blocks[k].payload, seal_spans_.back());
    contents_[p][index] = static_cast<std::uint32_t>(blocks[k].id);
    locations_[blocks[k].id] = location{
        residence::main_slot, static_cast<std::uint32_t>(p), index};
  }
  codec_.seal_many(seal_spans_);
  cost.cpu += cpu_.crypto_time(main_capacity, record_bytes);
  cost.cpu += cpu_.word_ops_time(main_capacity);

  cost.io_write += store_->write_partition(p, out);
  trace(trace_, oram::event_kind::shuffle_partition, p);
  trace(trace_, oram::event_kind::storage_write_sweep,
        p * store_->geometry().slots_per_partition(), main_capacity);
  ++stats_.partitions_shuffled;

  // Every slot of the re-permuted partition is fresh again.
  for (std::uint32_t code = 0;
       code < contents_[p].size(); ++code) {
    const bool in_pool = pool_position_[p][code] != no_pool_position;
    if (code < main_capacity) {
      if (!in_pool) {
        pool_insert(p, code);
      }
    } else if (in_pool) {
      pool_remove(p, code);  // append region is empty after the merge
    }
  }
  pending_segments_[p] = 0;
  return cost;
}

/// Shuffle job over the partitioned layout: whole partitions are the
/// slice unit, processed strictly left to right (§4.3.2) until the
/// device budget is spent. Hot blocks stay staged (and servable) until
/// their partition lands; blocks no partition takes are kept.
class partitioned_shuffle_job final : public staged_shuffle_job {
 public:
  partitioned_shuffle_job(storage_layer& owner,
                          std::vector<oram::evicted_block> evicted,
                          std::uint64_t period_index)
      : owner_(owner),
        period_(period_index),
        plan_(owner.plan_shuffle(evicted, period_index)) {
    for (oram::evicted_block& block : evicted) {
      stage(block.id, std::move(block.payload));
    }
    for (const oram::block_id id : plan_.overflow) {
      keep(id);
    }
  }

  [[nodiscard]] bool done() const noexcept override {
    return next_partition_ >= plan_.hot.size();
  }

 private:
  void run_unit(shuffle_cost& slice) override {
    const std::uint64_t p = next_partition_++;
    std::vector<oram::evicted_block> hot;
    hot.reserve(plan_.hot[p].size());
    for (const oram::block_id id : plan_.hot[p]) {
      hot.push_back(oram::evicted_block{id, unstage(id)});
    }
    std::vector<oram::evicted_block> excess;
    slice += owner_.shuffle_partition_step(p, period_, hot, excess);
    for (oram::evicted_block& block : excess) {
      stage(block.id, std::move(block.payload));
      keep(block.id);
    }
  }

  storage_layer& owner_;
  std::uint64_t period_;
  storage_layer::shuffle_plan plan_;
  std::uint64_t next_partition_ = 0;
};

std::unique_ptr<shuffle_job> storage_layer::begin_shuffle(
    std::vector<oram::evicted_block> evicted, std::uint64_t period_index) {
  return std::make_unique<partitioned_shuffle_job>(
      *this, std::move(evicted), period_index);
}

std::uint64_t storage_layer::physical_bytes() const {
  return store_->geometry().total_slots() *
         oram::logical_block_bytes(config_.logical_block_bytes,
                                   codec_.record_bytes());
}

std::uint64_t storage_layer::control_memory_bytes() const {
  // Permutation list (residence, partition and slot per block), slot
  // contents, and the unaccessed-slot pools with their position index.
  // A pool can hold every slot of its partition, so it is priced at
  // that size, like its index.
  std::uint64_t bytes = locations_.size() * sizeof(location);
  for (std::uint64_t p = 0; p < contents_.size(); ++p) {
    bytes += contents_[p].size() * sizeof(contents_[p][0]) +
             pool_position_[p].size() *
                 (sizeof(pool_position_[p][0]) + sizeof(pool_[p][0]));
  }
  return bytes;
}

std::uint64_t storage_layer::pending_segments(
    std::uint64_t partition) const {
  expects(partition < pending_segments_.size(), "partition out of range");
  return pending_segments_[partition];
}

std::uint64_t storage_layer::unaccessed_slot_count() const {
  return static_cast<std::uint64_t>(pool_weight_.total());
}

void storage_layer::check_consistency() const {
  const std::uint64_t partitions = store_->geometry().partition_count;
  const std::uint64_t main_capacity = store_->geometry().main_capacity;

  // 1) Locations vs slot contents: every storage-resident block must
  // sit exactly where its permutation-list entry says.
  std::uint64_t storage_resident = 0;
  for (oram::block_id id = 0; id < config_.block_count; ++id) {
    const location& loc = locations_[id];
    if (loc.where == residence::memory) {
      continue;
    }
    ++storage_resident;
    invariant(loc.partition < partitions,
              "location points outside the partition space");
    const std::uint32_t code = code_of(loc);
    invariant(code < contents_[loc.partition].size(),
              "location points outside the slot space");
    invariant(contents_[loc.partition][code] == id,
              "slot contents disagree with the permutation list");
  }

  // 2) Contents vs locations (the other direction), and live census.
  std::uint64_t live = 0;
  for (std::uint64_t p = 0; p < partitions; ++p) {
    for (std::uint32_t code = 0; code < contents_[p].size(); ++code) {
      if (contents_[p][code] == empty_slot) {
        continue;
      }
      const oram::block_id id = contents_[p][code];
      ++live;
      invariant(id < config_.block_count, "slot holds an unknown block");
      invariant(locations_[id].where != residence::memory,
                "slot holds a block the list says is cached");
      invariant(code_of(locations_[id]) == code &&
                    locations_[id].partition == p,
                "slot holds a block mapped elsewhere");
    }
  }
  invariant(live == storage_resident,
            "live census disagrees with the permutation list");

  // 3) Pools vs their position index and the Fenwick weights.
  std::int64_t pooled = 0;
  for (std::uint64_t p = 0; p < partitions; ++p) {
    invariant(pool_weight_.prefix_sum(p + 1) - pool_weight_.prefix_sum(p) ==
                  static_cast<std::int64_t>(pool_[p].size()),
              "Fenwick weight disagrees with the pool size");
    pooled += static_cast<std::int64_t>(pool_[p].size());
    for (std::uint32_t position = 0; position < pool_[p].size();
         ++position) {
      const std::uint32_t code = pool_[p][position];
      invariant(pool_position_[p][code] == position,
                "pool position index out of sync");
      // Pool entries only reference the main region or used appends.
      invariant(code < main_capacity ||
                    code - main_capacity < store_->appended_count(p),
                "pool references an unused append slot");
    }
  }
  invariant(pooled == pool_weight_.total(),
            "Fenwick total disagrees with the pools");
}

}  // namespace horam
