#include "core/storage_layer.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "crypto/key_schedule.h"
#include "util/contracts.h"
#include "util/math.h"

namespace horam {

namespace {

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
      codec_(1, config.payload_bytes, config.seal,
             crypto::key_schedule(config.key_seed)
                 .seal({crypto::store_kind::partitioned})),
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

  slots_per_partition_ = main_capacity + append_capacity;
  expects(partitions <= std::uint64_t{1} << 32 &&
              slots_per_partition_ <= std::uint64_t{1} << 32,
          "the partitioned layer needs 32-bit partition indices and slot "
          "codes");
  partition_bits_ = static_cast<unsigned>(std::bit_width(partitions - 1));
  const auto code_bits =
      static_cast<unsigned>(std::bit_width(slots_per_partition_ - 1));
  expects(2 + partition_bits_ + code_bits <= 64,
          "permutation-list entries must fit 64 bits");
  locations_ =
      util::packed_array(config_.block_count, 2 + partition_bits_ + code_bits);
  const std::uint64_t total_slots = partitions * slots_per_partition_;
  live_ = util::packed_array(total_slots, 1);
  // Pool entries and positions are below slots_per_partition_; the
  // all-ones value of that width marks a slot outside its pool.
  const auto pool_bits =
      static_cast<unsigned>(std::bit_width(slots_per_partition_));
  pool_ = util::packed_array(total_slots, pool_bits);
  pool_position_ = util::packed_array(total_slots, pool_bits,
                                      (std::uint64_t{1} << pool_bits) - 1);
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
      live_.set(slot_index(p, static_cast<std::uint32_t>(i)), 1);
      set_location(id, location{residence::main_slot,
                                static_cast<std::uint32_t>(p),
                                static_cast<std::uint32_t>(i)});
    }
    codec_.seal_many(seal_spans_);
    store_->write_partition(p, image);
    // Every main slot enters the empty pool in slot order, as
    // pool_insert(p, 0 .. main_capacity - 1) would place them.
    for (std::uint32_t i = 0; i < main_capacity; ++i) {
      pool_.set(slot_index(p, i), i);
      pool_position_.set(slot_index(p, i), i);
    }
    pool_weight_.add(p, static_cast<std::int64_t>(main_capacity));
  }
  invariant(cursor == config_.block_count, "initial deal lost blocks");
  device.reset_stats();
}

storage_layer::location storage_layer::location_of(oram::block_id id) const {
  const std::uint64_t entry = locations_.get(id);
  location loc;
  loc.where = static_cast<residence>(entry & 3);
  loc.partition = static_cast<std::uint32_t>(
      (entry >> 2) & ((std::uint64_t{1} << partition_bits_) - 1));
  loc.code = static_cast<std::uint32_t>(entry >> (2 + partition_bits_));
  return loc;
}

void storage_layer::set_location(oram::block_id id, const location& loc) {
  locations_.set(id, static_cast<std::uint64_t>(loc.where) |
                         (std::uint64_t{loc.partition} << 2) |
                         (std::uint64_t{loc.code} << (2 + partition_bits_)));
}

std::uint64_t storage_layer::live_count(std::uint64_t partition) const {
  std::uint64_t count = 0;
  for (std::uint32_t code = 0; code < slots_per_partition_; ++code) {
    count += live(partition, code) ? 1 : 0;
  }
  return count;
}

void storage_layer::check_live_slot(std::uint64_t partition,
                                    std::uint32_t code,
                                    oram::block_id id) const {
  invariant(id < config_.block_count,
            "a live slot holds no block of the dataset");
  const location loc = location_of(id);
  invariant(loc.where != residence::memory && loc.partition == partition &&
                loc.code == code,
            "a live slot holds a block the permutation list places "
            "elsewhere");
}

void storage_layer::pool_insert(std::uint64_t partition,
                                std::uint32_t code) {
  invariant(!in_pool(partition, code), "slot already in the unaccessed pool");
  const std::uint64_t position = pool_size(partition);
  pool_position_.set(slot_index(partition, code), position);
  pool_.set(slot_index(partition, 0) + position, code);
  pool_weight_.add(partition, 1);
}

void storage_layer::pool_remove(std::uint64_t partition,
                                std::uint32_t code) {
  invariant(in_pool(partition, code), "slot not in the unaccessed pool");
  const std::uint64_t position =
      pool_position_.get(slot_index(partition, code));
  const std::uint32_t last = pool_at(partition, pool_size(partition) - 1);
  pool_.set(slot_index(partition, 0) + position, last);
  pool_position_.set(slot_index(partition, last), position);
  pool_position_.set(slot_index(partition, code),
                     pool_position_.max_value());
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
  const location loc = location_of(id);
  invariant(loc.where != residence::memory, "block already cached");
  live_.set(slot_index(loc.partition, loc.code), 0);
  set_location(id, location{});
}

bool storage_layer::in_storage(oram::block_id id) const {
  expects(id < config_.block_count, "block id out of range");
  return location_of(id).where != residence::memory;
}

oram::cost_split storage_layer::masking_reads(std::uint64_t partition) {
  // One extra read per pending segment, drawn uniformly from the
  // partition's dead unaccessed slots so live blocks are not consumed.
  // Dead slots are uniformly interspersed by the layout permutation, so
  // the reads are indistinguishable from real ones.
  oram::cost_split cost;
  const std::uint32_t masks = pending_segments_[partition];
  for (std::uint32_t m = 0; m < masks; ++m) {
    const std::uint64_t pooled = pool_size(partition);
    std::uint64_t dead = 0;
    for (std::uint64_t position = 0; position < pooled; ++position) {
      dead += live(partition, pool_at(partition, position)) ? 0 : 1;
    }
    if (dead == 0) {
      break;  // no dead slot left; skip the mask (degenerate configs)
    }
    std::uint64_t rank = util::uniform_below(rng_, dead);
    std::uint32_t chosen = 0;
    for (std::uint64_t position = 0;; ++position) {
      chosen = pool_at(partition, position);
      if (!live(partition, chosen) && rank-- == 0) {
        break;
      }
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

  const location loc = location_of(id);
  pool_remove(loc.partition, loc.code);
  result.cost += masking_reads(loc.partition);

  oram::block_id decoded = oram::dummy_block_id;
  result.cost += consume_slot(loc.partition, loc.code, decoded);
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
      pool_at(partition, static_cast<std::uint64_t>(within));
  pool_remove(partition, code);
  result.cost += masking_reads(partition);

  oram::block_id decoded = oram::dummy_block_id;
  result.cost += consume_slot(partition, code, decoded);

  // A live block found by a dummy load is cached for free (prefetch).
  if (live(partition, code)) {
    check_live_slot(partition, code, decoded);
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
    live[p] = live_count(p);
  }

  // Assign every evicted block to a uniformly random partition with
  // room (rejection sampling; total capacity exceeds N, so placement
  // always succeeds for due partitions — segments can overflow).
  shuffle_plan plan;
  plan.hot.resize(partitions);
  std::vector<std::uint64_t> segment_fill(partitions, 0);
  for (const oram::evicted_block& block : evicted) {
    expects(block.id < config_.block_count, "evicted id out of range");
    invariant(location_of(block.id).where == residence::memory,
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
      const auto code =
          static_cast<std::uint32_t>(main_capacity + base + k);
      set_location(hot[k].id, location{residence::append_slot,
                                       static_cast<std::uint32_t>(p), code});
      live_.set(slot_index(p, code), 1);
      if (in_pool(p, code)) {
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
  for (std::uint32_t code = 0; code < records_read; ++code) {
    if (live(p, code)) {
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
  for (std::uint32_t code = 0; code < records_read; ++code) {
    if (!live(p, code)) {
      continue;
    }
    const std::size_t i = blocks.size();
    const oram::block_id id = ids_scratch_[i];
    check_live_slot(p, code, id);
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
    set_location(excess.id, location{});
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
  for (std::uint32_t code = 0; code < slots_per_partition_; ++code) {
    live_.set(slot_index(p, code), 0);
  }
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
    live_.set(slot_index(p, index), 1);
    set_location(blocks[k].id, location{residence::main_slot,
                                        static_cast<std::uint32_t>(p),
                                        index});
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
  for (std::uint32_t code = 0; code < slots_per_partition_; ++code) {
    const bool pooled = in_pool(p, code);
    if (code < main_capacity) {
      if (!pooled) {
        pool_insert(p, code);
      }
    } else if (pooled) {
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
  // Permutation list, live bits, the unaccessed-slot pools with their
  // position index, and the pools' Fenwick weights. A pool can hold
  // every slot of its partition, so it is priced at that size, like
  // its index.
  return locations_.memory_bytes() + live_.memory_bytes() +
         pool_.memory_bytes() + pool_position_.memory_bytes() +
         pool_weight_.memory_bytes();
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

  // 1) Locations vs live bits: every storage-resident block must sit
  // in a live slot of its region that no other block claims.
  util::packed_array claimed(partitions * slots_per_partition_, 1);
  std::uint64_t storage_resident = 0;
  for (oram::block_id id = 0; id < config_.block_count; ++id) {
    const location loc = location_of(id);
    if (loc.where == residence::memory) {
      continue;
    }
    ++storage_resident;
    invariant(loc.partition < partitions,
              "location points outside the partition space");
    invariant(loc.code < slots_per_partition_,
              "location points outside the slot space");
    invariant((loc.where == residence::main_slot) == (loc.code < main_capacity),
              "location's residence disagrees with its slot region");
    invariant(live(loc.partition, loc.code),
              "a storage-resident block's slot is not live");
    const std::uint64_t slot = slot_index(loc.partition, loc.code);
    invariant(claimed.get(slot) == 0, "two blocks located in one slot");
    claimed.set(slot, 1);
  }

  // 2) Live census: with the slots claimed distinct, equal counts mean
  // every live slot is some block's location.
  std::uint64_t live_slots = 0;
  for (std::uint64_t p = 0; p < partitions; ++p) {
    live_slots += live_count(p);
  }
  invariant(live_slots == storage_resident,
            "live census disagrees with the permutation list");

  // 3) Pools vs their position index and the Fenwick weights.
  std::int64_t pooled = 0;
  for (std::uint64_t p = 0; p < partitions; ++p) {
    const std::uint64_t size = pool_size(p);
    invariant(size <= slots_per_partition_, "pool larger than its partition");
    pooled += static_cast<std::int64_t>(size);
    for (std::uint64_t position = 0; position < size; ++position) {
      const std::uint32_t code = pool_at(p, position);
      invariant(code < slots_per_partition_, "pool entry outside the slots");
      invariant(pool_position_.get(slot_index(p, code)) == position,
                "pool position index out of sync");
      // Pool entries only reference the main region or used appends.
      invariant(code < main_capacity ||
                    code - main_capacity < store_->appended_count(p),
                "pool references an unused append slot");
    }
    std::uint64_t indexed = 0;
    for (std::uint32_t code = 0; code < slots_per_partition_; ++code) {
      indexed += in_pool(p, code) ? 1 : 0;
    }
    invariant(indexed == size, "pool position index lists a stale slot");
  }
  invariant(pooled == pool_weight_.total(),
            "Fenwick total disagrees with the pools");
}

}  // namespace horam
