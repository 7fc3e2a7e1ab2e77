#include "oram/sqrt/sqrt_backend.h"

#include <algorithm>
#include <utility>

#include "util/contracts.h"
#include "util/math.h"

namespace horam::oram {

sqrt_backend::sqrt_backend(
    const horam_config& config, sim::block_device& device,
    const sim::cpu_model& cpu, util::random_source& rng,
    access_trace* trace,
    const std::function<void(block_id, std::span<std::uint8_t>)>* filler)
    : config_(config),
      codec_(config.payload_bytes, config.seal, config.key_seed ^ 0x5371),
      cpu_(cpu),
      rng_(rng),
      trace_(trace) {
  config_.validate();

  // One dummy per potential dummy load of an access period (n/2 loads),
  // with the classic sqrt(N) as a floor.
  dummy_count_ = std::max(util::isqrt_ceil(config_.block_count),
                          config_.period_loads());

  const std::uint64_t slots = total_slots();
  const std::uint64_t logical =
      logical_block_bytes(config_.logical_block_bytes, codec_.record_bytes());
  const std::uint64_t scratch_slots =
      shuffle::melbourne_scratch_records(slots, reshuffle_);

  // Region layout on the device: array A | array B | Melbourne scratch.
  array_a_ = std::make_unique<storage::block_store>(
      device, 0, slots, codec_.record_bytes(), logical);
  array_b_ = std::make_unique<storage::block_store>(
      device, slots * logical, slots, codec_.record_bytes(), logical);
  scratch_ = std::make_unique<storage::block_store>(
      device, 2 * slots * logical, scratch_slots, codec_.record_bytes(),
      logical);

  record_scratch_.resize(codec_.record_bytes());
  payload_scratch_.resize(config_.payload_bytes);
  chunk_buf_.resize(kSealChunk * codec_.record_bytes());
  cached_.assign(config_.block_count, 0);

  // Initial permuted layout: virtual index v at a uniformly random
  // slot, sealed a chunk of virtual indices at a time.
  slot_of_ = util::random_permutation(rng_, slots);
  for (std::uint64_t first = 0; first < slots; first += kSealChunk) {
    const std::uint64_t n = std::min(kSealChunk, slots - first);
    for (std::uint64_t j = 0; j < n; ++j) {
      const std::uint64_t v = first + j;
      if (v < config_.block_count) {
        std::fill(payload_scratch_.begin(), payload_scratch_.end(), 0);
        if (filler != nullptr) {
          (*filler)(v, payload_scratch_);
        }
        codec_.encode_plain(v, payload_scratch_, chunk_record(j));
      } else {
        codec_.encode_plain(dummy_block_id, {}, chunk_record(j));
      }
    }
    seal_chunk(n);
    for (std::uint64_t j = 0; j < n; ++j) {
      array_a_->write(slot_of_[first + j], chunk_record(j));
    }
  }
  device.reset_stats();
}

std::span<std::uint8_t> sqrt_backend::chunk_record(std::uint64_t j) {
  const std::size_t rec = codec_.record_bytes();
  return std::span(chunk_buf_).subspan(j * rec, rec);
}

void sqrt_backend::seal_chunk(std::uint64_t n) {
  seal_spans_.clear();
  for (std::uint64_t j = 0; j < n; ++j) {
    seal_spans_.push_back(chunk_record(j));
  }
  codec_.seal_many(seal_spans_);
}

bool sqrt_backend::in_storage(block_id id) const {
  expects(id < config_.block_count, "block id out of range");
  return cached_[id] == 0;
}

cost_split sqrt_backend::read_slot(std::uint64_t slot,
                                   block_id& decoded_out) {
  cost_split cost;
  cost.io += active().read(slot, record_scratch_);
  trace(trace_, event_kind::storage_read_slot, slot);
  decoded_out = codec_.decode(record_scratch_, payload_scratch_);
  cost.cpu += cpu_.crypto_time(1, codec_.record_bytes());
  return cost;
}

oram_backend::load_result sqrt_backend::load_block(block_id id) {
  expects(in_storage(id), "block is not on storage");
  load_result result;
  ++stats_.real_loads;

  block_id decoded = dummy_block_id;
  result.cost += read_slot(slot_of_[id], decoded);
  invariant(decoded == id, "permutation list out of sync with storage");
  result.id = id;
  result.payload.assign(payload_scratch_.begin(), payload_scratch_.end());
  cached_[id] = 1;
  return result;
}

oram_backend::load_result sqrt_backend::dummy_load() {
  load_result result;
  ++stats_.dummy_loads;

  if (used_dummies_ < dummy_count_) {
    // The classic sqrt-ORAM cover read: the next unused dummy. slot_of_
    // is a fresh uniform permutation, so the sequence of dummy slots is
    // uniform without replacement — indistinguishable from misses.
    block_id decoded = dummy_block_id;
    result.cost +=
        read_slot(slot_of_[config_.block_count + used_dummies_], decoded);
    ++used_dummies_;
    return result;
  }

  // Degenerate: more dummy loads than dummies this period (only
  // reachable when driven outside the controller's period cadence).
  ++stats_.exhausted_dummy_loads;
  const std::uint64_t slot = util::uniform_below(rng_, total_slots());
  block_id decoded = dummy_block_id;
  result.cost += read_slot(slot, decoded);
  if (decoded != dummy_block_id && cached_[decoded] == 0) {
    result.id = decoded;
    result.payload.assign(payload_scratch_.begin(), payload_scratch_.end());
    cached_[decoded] = 1;
    ++stats_.prefetched_blocks;
  }
  return result;
}

/// One-unit shuffle job: the hot set stays staged (and servable) until
/// the single step runs reshuffle().
class sqrt_backend::reshuffle_job final : public horam::staged_shuffle_job {
 public:
  reshuffle_job(sqrt_backend& owner, std::vector<evicted_block> evicted,
                std::uint64_t period_index)
      : owner_(owner), period_(period_index) {
    order_.reserve(evicted.size());
    for (evicted_block& block : evicted) {
      order_.push_back(block.id);
      stage(block.id, std::move(block.payload));
    }
  }

  [[nodiscard]] bool done() const noexcept override { return ran_; }

 private:
  void run_unit(horam::shuffle_cost& slice) override {
    std::vector<evicted_block> evicted;
    evicted.reserve(order_.size());
    for (const block_id id : order_) {
      evicted.push_back(evicted_block{id, unstage(id)});
    }
    slice += owner_.reshuffle(evicted, period_);
    ran_ = true;
  }

  sqrt_backend& owner_;
  std::uint64_t period_;
  std::vector<block_id> order_;  // fold-back order (the eviction order)
  bool ran_ = false;
};

std::unique_ptr<horam::shuffle_job> sqrt_backend::begin_shuffle(
    std::vector<evicted_block> evicted, std::uint64_t period_index) {
  return std::make_unique<reshuffle_job>(*this, std::move(evicted),
                                         period_index);
}

horam::shuffle_cost sqrt_backend::reshuffle(
    const std::vector<evicted_block>& evicted, std::uint64_t period_index) {
  horam::shuffle_cost cost;
  trace(trace_, event_kind::shuffle_begin, period_index);

  storage::block_store& source = active_is_a_ ? *array_a_ : *array_b_;
  storage::block_store& target = active_is_a_ ? *array_b_ : *array_a_;

  // Fold the hot set back into the array: each evicted block rewrites
  // its own (already revealed, about to be re-permuted) slot. Records
  // are sealed a chunk at a time, in eviction order.
  for (std::size_t first = 0; first < evicted.size(); first += kSealChunk) {
    const std::size_t n = std::min<std::size_t>(kSealChunk,
                                                evicted.size() - first);
    for (std::size_t j = 0; j < n; ++j) {
      const evicted_block& block = evicted[first + j];
      expects(block.id < config_.block_count, "evicted id out of range");
      invariant(cached_[block.id] != 0,
                "evicted block the list says is on storage");
      codec_.encode_plain(block.id, block.payload, chunk_record(j));
      cached_[block.id] = 0;
    }
    seal_chunk(n);
    for (std::size_t j = 0; j < n; ++j) {
      const block_id id = evicted[first + j].id;
      cost.io_write += source.write(slot_of_[id], chunk_record(j));
      trace(trace_, event_kind::storage_write_slot, slot_of_[id]);
    }
  }
  cost.cpu += cpu_.crypto_time(evicted.size(), codec_.record_bytes());
  invariant(std::count(cached_.begin(), cached_.end(), std::uint8_t{1}) ==
                0,
            "shuffle period did not receive the whole hot set");

  // Oblivious reshuffle of the whole array (real + dummy blocks). The
  // Melbourne passes read and write symmetric volumes; split evenly.
  const shuffle::external_shuffle_result result =
      shuffle::melbourne_shuffle(source, *scratch_, target, rng_,
                                 reshuffle_);
  cost.io_read += result.io_time / 2;
  cost.io_write += result.io_time - result.io_time / 2;
  cost.cpu += cpu_.crypto_time(
      result.stats.bytes_moved / codec_.record_bytes(),
      codec_.record_bytes());
  trace(trace_, event_kind::storage_read_sweep, 0, total_slots());
  trace(trace_, event_kind::storage_write_sweep, 0, total_slots());

  // New permutation list: virtual v moves from slot s to pi[s].
  for (std::uint64_t v = 0; v < slot_of_.size(); ++v) {
    slot_of_[v] = result.pi[slot_of_[v]];
  }
  cost.cpu += cpu_.word_ops_time(slot_of_.size());

  active_is_a_ = !active_is_a_;
  used_dummies_ = 0;
  ++stats_.partitions_shuffled;  // the whole array counts as one
  return cost;
}

std::uint64_t sqrt_backend::physical_bytes() const {
  return (array_a_->slot_count() + array_b_->slot_count() +
          scratch_->slot_count()) *
         logical_block_bytes(config_.logical_block_bytes,
                             codec_.record_bytes());
}

std::uint64_t sqrt_backend::control_memory_bytes() const {
  return slot_of_.size() * 8 + cached_.size();
}

void sqrt_backend::check_consistency() const {
  invariant(used_dummies_ <= dummy_count_, "dummy counter overran");

  // slot_of_ is a permutation of the physical slots.
  std::vector<std::uint8_t> seen(total_slots(), 0);
  for (const std::uint64_t slot : slot_of_) {
    invariant(slot < total_slots(), "slot index out of range");
    invariant(seen[slot] == 0, "two virtual indices share a slot");
    seen[slot] = 1;
  }

  // Every storage-resident block's slot decodes to the block itself.
  std::vector<std::uint8_t> payload(config_.payload_bytes);
  for (block_id id = 0; id < config_.block_count; ++id) {
    if (cached_[id] != 0) {
      continue;
    }
    const block_id decoded =
        codec_.decode(active().peek(slot_of_[id]), payload);
    invariant(decoded == id,
              "slot contents disagree with the permutation list");
  }
}

}  // namespace horam::oram
