#include "oram/ring/ring_oram.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "util/contracts.h"
#include "util/math.h"

namespace horam::oram {

namespace {

/// Real records a bulk build queues before sealing them as one batch.
constexpr std::size_t sweep_seal_records = 512;

/// splitmix64 finaliser — the pad stream's mixing function.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Bit k of a slot bitmask of 64-bit words.
bool has_slot(const std::uint64_t* words, std::uint32_t k) {
  return ((words[k / 64] >> (k % 64)) & 1) != 0;
}
void add_slot(std::uint64_t* words, std::uint32_t k) {
  words[k / 64] |= std::uint64_t{1} << (k % 64);
}

}  // namespace

ring_oram::ring_oram(const ring_oram_config& config,
                     sim::block_device& io_device, const sim::cpu_model& cpu,
                     util::random_source& rng, access_trace* trace)
    : tree_core(config.leaf_count, config.real_slots, config.payload_bytes,
                config.id_universe, tree_role::backend, cpu, rng),
      config_(config),
      codec_(config.payload_bytes, config.seal, config.key_seed),
      trace_(trace) {
  expects(config.spare_slots > 0, "spare slots (S) must be positive");
  expects(config.eviction_rate > 0, "eviction rate (A) must be positive");
  expects(config.real_slots + config.spare_slots <= max_slots_per_bucket,
          "Z + S must be at most 256 slots per bucket (8-bit slot offsets)");

  io_store_ = std::make_unique<storage::block_store>(
      io_device, /*base_offset=*/0, total_slots(), codec_.record_bytes(),
      logical_block_bytes(config.logical_block_bytes, codec_.record_bytes()));

  mask_words_ = static_cast<std::uint32_t>(
      util::ceil_div(slots_per_bucket(), 64));
  real_ids_.resize(bucket_count() * config.real_slots);
  real_offsets_.resize(bucket_count() * config.real_slots);
  real_counts_.resize(bucket_count());
  read_masks_.resize(bucket_count() * mask_words_);
  epochs_.resize(bucket_count());

  const std::size_t record_bytes = codec_.record_bytes();
  chosen_slots_.reserve(level_count());
  bucket_slots_.reserve(config.real_slots);
  slot_order_.resize(slots_per_bucket());
  bucket_scratch_.resize(slots_per_bucket() * record_bytes);
  record_scratch_.resize(record_bytes);
  combined_scratch_.resize(record_bytes);
  pad_scratch_.resize(record_bytes);
  extracted_payload_.resize(config.payload_bytes);

  // Start with a physically pad-filled tree.
  reset();
}

leaf_id ring_oram::reverse_lex_leaf(std::uint64_t counter) const {
  const std::uint32_t bits = level_count() - 1;
  std::uint64_t g = counter & (config_.leaf_count - 1);
  leaf_id leaf = 0;
  for (std::uint32_t i = 0; i < bits; ++i) {
    leaf = (leaf << 1) | (g & 1);
    g >>= 1;
  }
  return leaf;
}

ring_oram::slot_mask ring_oram::real_mask(std::uint64_t bucket) const {
  slot_mask mask{};
  const std::uint64_t first = bucket * config_.real_slots;
  for (std::uint32_t i = 0; i < real_counts_[bucket]; ++i) {
    const std::uint32_t k = real_offsets_[first + i];
    add_slot(mask.data(), k);
  }
  return mask;
}

bool ring_oram::is_read(std::uint64_t bucket, std::uint32_t k) const {
  return has_slot(&read_masks_[bucket * mask_words_], k);
}

std::uint32_t ring_oram::read_count(std::uint64_t bucket) const {
  std::uint32_t count = 0;
  for (std::uint32_t w = 0; w < mask_words_; ++w) {
    count += std::popcount(read_masks_[bucket * mask_words_ + w]);
  }
  return count;
}

void ring_oram::remove_real(std::uint64_t bucket, std::uint32_t k) {
  const std::uint64_t first = bucket * config_.real_slots;
  const std::uint32_t count = real_counts_[bucket];
  std::uint32_t i = 0;
  while (i < count && real_offsets_[first + i] != k) {
    ++i;
  }
  invariant(i < count, "no live real at that slot");
  for (; i + 1 < count; ++i) {
    real_ids_[first + i] = real_ids_[first + i + 1];
    real_offsets_[first + i] = real_offsets_[first + i + 1];
  }
  --real_counts_[bucket];
}

std::uint32_t ring_oram::unread_dummies(std::uint64_t bucket,
                                        const slot_mask& reals) {
  const std::uint32_t spb = slots_per_bucket();
  std::uint32_t count = 0;
  for (std::uint32_t w = 0; w < mask_words_; ++w) {
    const std::uint32_t width = std::min<std::uint32_t>(64, spb - w * 64);
    std::uint64_t unread = ~(reals[w] | read_masks_[bucket * mask_words_ + w]);
    if (width < 64) {
      unread &= (std::uint64_t{1} << width) - 1;
    }
    for (; unread != 0; unread &= unread - 1) {
      slot_order_[count++] = w * 64 + std::countr_zero(unread);
    }
  }
  return count;
}

std::uint64_t ring_oram::metadata_bytes() const noexcept {
  return real_ids_.size() * sizeof(real_ids_[0]) +
         real_offsets_.size() * sizeof(real_offsets_[0]) +
         real_counts_.size() * sizeof(real_counts_[0]) +
         read_masks_.size() * sizeof(read_masks_[0]) +
         epochs_.size() * sizeof(epochs_[0]);
}

void ring_oram::fill_pad(std::uint64_t slot, std::uint64_t epoch,
                         std::span<std::uint8_t> out) const {
  const std::uint64_t seed =
      mix64(config_.key_seed ^ mix64(slot) ^ mix64(epoch ^ 0x5061644cULL));
  for (std::size_t i = 0; i < codec_.record_bytes(); i += 8) {
    const std::uint64_t word = mix64(seed + 1 + i / 8);
    const std::size_t n = std::min<std::size_t>(8, codec_.record_bytes() - i);
    std::memcpy(out.data() + i, &word, n);
  }
}

std::uint64_t ring_oram::real_slot_on_path(leaf_id leaf, block_id id) const {
  for (std::uint32_t level = 0; level < level_count(); ++level) {
    const std::uint64_t bucket = bucket_on_path(leaf, level);
    const std::uint64_t first = bucket * config_.real_slots;
    for (std::uint32_t i = 0; i < real_counts_[bucket]; ++i) {
      if (real_ids_[first + i] == id) {
        const std::uint32_t k = real_offsets_[first + i];
        invariant(!is_read(bucket, k), "real slot already consumed");
        return bucket * slots_per_bucket() + k;
      }
    }
  }
  return total_slots();
}

cost_split ring_oram::path_read(leaf_id leaf, block_id target) {
  cost_split cost;
  const std::uint64_t real_slot = real_slot_on_path(leaf, target);
  const bool found = real_slot != total_slots();
  trace(trace_, event_kind::memory_path_access, leaf, config_.leaf_count);

  const std::uint32_t spb = slots_per_bucket();
  const std::size_t record_bytes = codec_.record_bytes();

  // Choose one slot per path bucket: the real slot when the target
  // lives there, a uniformly random unread dummy otherwise. Real slots
  // are placed at uniformly random slots on every bucket rewrite, so
  // the two choices are identically distributed on the bus.
  chosen_slots_.clear();
  for (std::uint32_t level = 0; level < level_count(); ++level) {
    const std::uint64_t bucket = bucket_on_path(leaf, level);
    if (real_slot / spb == bucket) {
      chosen_slots_.push_back(real_slot);
      continue;
    }
    const std::uint32_t candidates = unread_dummies(bucket, real_mask(bucket));
    invariant(candidates > 0,
              "bucket ran out of unread dummies before its reshuffle");
    chosen_slots_.push_back(bucket * spb +
                            slot_order_[util::uniform_below(rng_, candidates)]);
  }

  // The adversary's view: which physical slots were requested. Both
  // read modes name the same slots; XOR only changes how many blocks
  // cross the bus.
  for (const std::uint64_t slot : chosen_slots_) {
    trace(trace_, event_kind::storage_read_slot, slot);
  }

  if (config_.xor_reads) {
    // One combined transfer; the real record is recovered by XORing
    // out the (deterministic, client-computable) pads of every chosen
    // dummy slot.
    cost.io += io_store_->read_xor(chosen_slots_, combined_scratch_);
    if (found) {
      for (const std::uint64_t slot : chosen_slots_) {
        if (slot == real_slot) {
          continue;
        }
        fill_pad(slot, epochs_[slot / spb], pad_scratch_);
        for (std::size_t i = 0; i < record_bytes; ++i) {
          combined_scratch_[i] ^= pad_scratch_[i];
        }
      }
    }
  } else {
    // Fallback: one device read per chosen slot.
    for (const std::uint64_t slot : chosen_slots_) {
      cost.io += io_store_->read(slot, record_scratch_);
      if (slot == real_slot) {
        std::memcpy(combined_scratch_.data(), record_scratch_.data(),
                    record_bytes);
      }
    }
  }
  if (found) {
    // The target's record must name the leaf the caller passed.
    invariant(codec_.decode(combined_scratch_, extracted_payload_) ==
                  pack_record(target, leaf),
              "path read recovered the wrong block");
  }

  // Consume the chosen slots; an extracted real slot becomes a spent
  // dummy until the bucket's next rewrite.
  for (const std::uint64_t slot : chosen_slots_) {
    const std::uint64_t bucket = slot / spb;
    const std::uint32_t k = static_cast<std::uint32_t>(slot % spb);
    add_slot(&read_masks_[bucket * mask_words_], k);
    if (found && slot == real_slot) {
      remove_real(bucket, k);
    }
  }

  // Control-layer cost: pad regeneration + decode along the path, plus
  // metadata bookkeeping.
  cost.cpu += cpu_.crypto_time(level_count() + 1, record_bytes);
  cost.cpu += cpu_.word_ops_time(static_cast<std::uint64_t>(level_count()) *
                                     spb +
                                 stash_.size());

  // Early reshuffles: any path bucket out of spare slots is rewritten
  // now, which keeps an unread dummy available for every future access.
  for (std::uint32_t level = 0; level < level_count(); ++level) {
    const std::uint64_t bucket = bucket_on_path(leaf, level);
    if (read_count(bucket) >= config_.spare_slots) {
      cost += reshuffle_bucket(bucket);
    }
  }

  // Every A accesses owe one deterministic eviction — a public
  // schedule that depends only on the access count. The read does not
  // run it: evict_owed() does, after the requests have completed.
  ++access_count_;
  if (access_count_ % config_.eviction_rate == 0) {
    ++owed_evictions_;
  }
  return cost;
}

cost_split ring_oram::extract(block_id id, leaf_id leaf,
                              std::span<std::uint8_t> read_out) {
  expects(id < config_.id_universe, "block id outside the universe");
  expects(leaf < config_.leaf_count, "extract leaf out of range");
  expects(read_out.size() >= config_.payload_bytes,
          "read buffer too small");
  // Trusted memory alone refuses a block neither sheltering under `leaf`
  // nor in a bucket on its path, before any draw or bus work (one in a
  // bucket shared with its own leaf's path fails the record check).
  const bool sheltered = stash_.contains(id);
  expects(sheltered ? stash_.at(id).leaf == leaf
                    : real_slot_on_path(leaf, id) != total_slots(),
          "extracted block is not on the path to that leaf");
  ++stats_.real_accesses;
  // One access = one dependent exchange: the slot choices are known up
  // front from trusted metadata, and any reshuffle the access triggers
  // rides the same public schedule.
  sim::trip_scope round_trip(&io_store_->device());

  // No remap: the block leaves the tree, so its (about to be read) path
  // is never correlated with a future access.
  if (sheltered) {
    // Sheltering in the stash: serve from trusted memory and take the
    // block out before the all-dummy cover path read, which keeps the
    // bus shape. An eviction owed meanwhile can no longer place it.
    std::memcpy(extracted_payload_.data(), stash_.at(id).payload.data(),
                config_.payload_bytes);
    stash_.erase(id);
  }
  const cost_split cost = path_read(leaf, sheltered ? dummy_block_id : id);
  std::memcpy(read_out.data(), extracted_payload_.data(),
              config_.payload_bytes);
  --resident_;
  return cost;
}

cost_split ring_oram::dummy_access() {
  ++stats_.dummy_accesses;
  sim::trip_scope round_trip(&io_store_->device());
  const leaf_id leaf = random_leaf();
  return path_read(leaf, dummy_block_id);
}

cost_split ring_oram::force_evict(std::uint64_t count) {
  sim::trip_scope round_trip(&io_store_->device());
  return evict_union(count);
}

cost_split ring_oram::evict_owed(std::uint64_t limit) {
  const std::uint64_t count = std::min(limit, owed_evictions_);
  if (count == 0) {
    return {};
  }
  sim::trip_scope round_trip(&io_store_->device());
  owed_evictions_ -= count;
  return evict_union(count);
}

void ring_oram::compose_bucket(std::uint64_t bucket,
                               std::span<const block_ref> reals,
                               std::span<std::uint8_t> out) {
  const std::uint32_t spb = slots_per_bucket();
  const std::size_t record_bytes = codec_.record_bytes();
  expects(reals.size() <= config_.real_slots, "bucket overfull");
  expects(out.size() >= spb * record_bytes, "bucket buffer too small");

  const std::uint64_t epoch = ++epochs_[bucket];
  std::fill_n(read_masks_.begin() + bucket * mask_words_, mask_words_, 0);

  // Fresh secret permutation: the reals land at uniformly random
  // distinct slots (partial Fisher–Yates), everything else is a pad.
  for (std::uint32_t k = 0; k < spb; ++k) {
    slot_order_[k] = k;
  }
  for (std::uint32_t i = 0; i < reals.size(); ++i) {
    const std::uint32_t j = static_cast<std::uint32_t>(
        util::uniform_in(rng_, i, spb - 1));
    std::swap(slot_order_[i], slot_order_[j]);
  }

  // Reals are composed here, in draw order, and queued for the
  // caller's batch seal; the record lists them in slot order (insertion
  // sort). Only the slots left over get the next epoch's pad.
  const std::uint64_t base = bucket * spb;
  const std::uint64_t first = bucket * config_.real_slots;
  slot_mask reals_at{};
  for (std::uint32_t i = 0; i < reals.size(); ++i) {
    const std::uint32_t k = slot_order_[i];
    std::uint32_t j = i;
    for (; j > 0 && real_offsets_[first + j - 1] > k; --j) {
      real_ids_[first + j] = real_ids_[first + j - 1];
      real_offsets_[first + j] = real_offsets_[first + j - 1];
    }
    real_ids_[first + j] =
        static_cast<std::uint32_t>(record_block(reals[i].id));
    real_offsets_[first + j] = static_cast<std::uint8_t>(k);
    add_slot(reals_at.data(), k);
    seal_queue_.push_back(
        std::span<std::uint8_t>(out.data() + k * record_bytes, record_bytes));
    codec_.encode_plain(reals[i].id, reals[i].payload, seal_queue_.back());
  }
  real_counts_[bucket] = static_cast<std::uint8_t>(reals.size());
  for (std::uint32_t k = 0; k < spb; ++k) {
    if (!has_slot(reals_at.data(), k)) {
      fill_pad(base + k, epoch,
               std::span<std::uint8_t>(out.data() + k * record_bytes,
                                       record_bytes));
    }
  }
}

void ring_oram::seal_queued() {
  codec_.seal_many(seal_queue_);
  seal_queue_.clear();
}

cost_split ring_oram::read_reals(std::span<const std::uint64_t> buckets) {
  cost_split cost;
  const std::uint32_t spb = slots_per_bucket();
  const std::uint32_t z = config_.real_slots;
  const std::size_t record_bytes = codec_.record_bytes();
  real_records_.clear();
  expected_ids_.clear();
  for (const std::uint64_t bucket : buckets) {
    // Ring ORAM's ReadBucket: exactly Z unread slots, every live real
    // plus Z - r unread dummies drawn uniformly (partial Fisher–Yates).
    // A bucket is reshuffled once S of its Z + S slots are read, so Z
    // unread slots always remain and the chosen set is a uniform
    // Z-subset of them whatever the occupancy.
    slot_mask chosen = real_mask(bucket);
    const std::uint32_t reals = real_counts_[bucket];
    const std::uint32_t candidates = unread_dummies(bucket, chosen);
    invariant(candidates + reals >= z,
              "bucket has fewer than Z unread slots before its reshuffle");
    for (std::uint32_t i = 0; i < z - reals; ++i) {
      const std::uint32_t j = static_cast<std::uint32_t>(
          util::uniform_in(rng_, i, candidates - 1));
      std::swap(slot_order_[i], slot_order_[j]);
      add_slot(chosen.data(), slot_order_[i]);
    }

    // One scatter read of the Z slots in ascending order, each traced.
    const std::uint64_t base = bucket * spb;
    bucket_slots_.clear();
    for (std::uint32_t w = 0; w < mask_words_; ++w) {
      for (std::uint64_t bits = chosen[w]; bits != 0; bits &= bits - 1) {
        bucket_slots_.push_back(base + w * 64 + std::countr_zero(bits));
      }
    }
    cost.io += io_store_->read_scatter(bucket_slots_, bucket_scratch_);
    for (const std::uint64_t slot : bucket_slots_) {
      trace(trace_, event_kind::storage_read_slot, slot);
    }

    // The bucket's reals in slot order: the record lists them ascending,
    // so they appear in the read in the same order.
    const std::uint64_t first = bucket * z;
    std::size_t at = 0;
    for (std::uint32_t i = 0; i < reals; ++i) {
      const std::uint64_t slot = base + real_offsets_[first + i];
      while (bucket_slots_[at] != slot) {
        ++at;
      }
      const auto record = std::span<const std::uint8_t>(bucket_scratch_)
                              .subspan(at * record_bytes, record_bytes);
      real_records_.insert(real_records_.end(), record.begin(),
                           record.end());
      expected_ids_.push_back(real_ids_[first + i]);
    }
  }

  open_spans_.clear();
  for (std::size_t i = 0; i < expected_ids_.size(); ++i) {
    open_spans_.push_back(std::span<const std::uint8_t>(real_records_)
                              .subspan(i * record_bytes, record_bytes));
  }
  opened_ids_.resize(expected_ids_.size());
  codec_.decode_many(open_spans_, opened_ids_,
                     std::span<std::uint8_t>(real_records_)
                         .first(expected_ids_.size() * config_.payload_bytes));
  opened_.clear();
  for (std::size_t i = 0; i < opened_ids_.size(); ++i) {
    invariant(record_block(opened_ids_[i]) == expected_ids_[i],
              "slot metadata disagrees with the record");
    opened_.push_back(block_ref{
        opened_ids_[i], std::span<const std::uint8_t>(real_records_)
                            .subspan(i * config_.payload_bytes,
                                     config_.payload_bytes)});
  }
  return cost;
}

cost_split ring_oram::rewrite_bucket(std::uint64_t bucket,
                                     std::span<const block_ref> reals) {
  cost_split cost;
  const std::uint32_t spb = slots_per_bucket();
  compose_bucket(bucket, reals, bucket_scratch_);
  seal_queued();
  cost.io += io_store_->write_range(bucket * spb, spb, bucket_scratch_);
  trace(trace_, event_kind::storage_write_sweep, bucket * spb, spb);
  return cost;
}

cost_split ring_oram::reshuffle_bucket(std::uint64_t bucket) {
  ++stats_.early_reshuffles;
  const std::uint32_t spb = slots_per_bucket();

  // A Z-slot read of its remaining reals; the residents keep their
  // paths, only the permutation and the pads are refreshed.
  cost_split cost = read_reals({&bucket, 1});
  cost += rewrite_bucket(bucket, opened_);
  cost.cpu += cpu_.crypto_time(2ULL * spb, codec_.record_bytes());
  cost.cpu += cpu_.word_ops_time(spb);
  return cost;
}

cost_split ring_oram::evict_union(std::uint64_t count) {
  expects(count > 0, "an eviction evicts at least one path");
  stats_.evictions += count;
  evict_leaves_.clear();
  for (std::uint64_t i = 0; i < count; ++i) {
    evict_leaves_.push_back(reverse_lex_leaf(evict_counter_ + i));
  }
  evict_counter_ += count;

  // Root level first: read Z slots of every union bucket once and open
  // all their reals in one batch (every MAC checked) before any block
  // enters the stash. Then the greedy write-back, deepest level first,
  // rewrites each bucket under a fresh permutation and pads, its reals
  // sealed as one batch.
  plan_union(evict_leaves_);
  cost_split cost = read_reals(union_buckets());
  stash_opened(opened_);
  write_back_union([&](std::size_t i, std::span<const block_ref> reals) {
    cost += rewrite_bucket(union_buckets()[i], reals);
  });

  const std::uint64_t records_touched =
      2ULL * union_buckets().size() * slots_per_bucket();
  cost.cpu += cpu_.crypto_time(records_touched, codec_.record_bytes());
  cost.cpu += cpu_.word_ops_time(records_touched + stash_.size());
  return cost;
}

void ring_oram::reset() {
  const std::size_t record_bytes = codec_.record_bytes();
  std::fill(real_counts_.begin(), real_counts_.end(), 0);
  std::fill(read_masks_.begin(), read_masks_.end(), 0);
  std::fill(epochs_.begin(), epochs_.end(), 0);

  const std::span<std::uint8_t> image =
      io_store_->stage_range(0, total_slots());
  for (std::uint64_t slot = 0; slot < total_slots(); ++slot) {
    fill_pad(slot, 0, image.subspan(slot * record_bytes, record_bytes));
  }
  (void)commit_sweeps(*io_store_);
  clear_client();
}

cost_split ring_oram::initialize_full(
    std::uint64_t count, const filler_fn& filler,
    std::vector<leaf_id>* leaves_out) {
  cost_split cost;
  sim::trip_scope round_trip(&io_store_->device());

  // The placement is recorded first (its views point into the payload
  // image build_client returns); the buckets are composed after it in
  // heap order.
  std::vector<std::vector<block_ref>> bucket_reals(bucket_count());
  const std::vector<std::uint8_t> payloads = build_client(
      count, filler, leaves_out,
      [&](std::uint64_t bucket, std::span<const block_ref> reals) {
        bucket_reals[bucket].assign(reals.begin(), reals.end());
      });

  // Compose every bucket (fresh permutations + pads) straight into the
  // store — a staged copy of the whole tree would be a store-sized
  // transient per build — and stream it out as sequential sweeps.
  // Reals are sealed in batches of about sweep_seal_records, bucket
  // order then slot order.
  const std::uint32_t spb = slots_per_bucket();
  for (std::uint64_t bucket = 0; bucket < bucket_count(); ++bucket) {
    compose_bucket(bucket, bucket_reals[bucket],
                   io_store_->stage_range(bucket * spb, spb));
    if (seal_queue_.size() >= sweep_seal_records) {
      seal_queued();
    }
  }
  seal_queued();
  cost.io += commit_sweeps(*io_store_);
  cost.cpu += cpu_.crypto_time(total_slots(), codec_.record_bytes());
  return cost;
}

void ring_oram::for_each_resident(
    const std::function<void(block_id, leaf_id,
                             std::span<const std::uint8_t>)>& visit)
    const {
  std::vector<std::uint8_t> payload(config_.payload_bytes);
  const std::uint32_t spb = slots_per_bucket();
  for (std::uint64_t bucket = 0; bucket < bucket_count(); ++bucket) {
    const std::uint64_t first = bucket * config_.real_slots;
    for (std::uint32_t i = 0; i < real_counts_[bucket]; ++i) {
      const block_id word = codec_.decode(
          io_store_->peek(bucket * spb + real_offsets_[first + i]), payload);
      invariant(record_block(word) == real_ids_[first + i],
                "slot metadata disagrees with the record");
      visit(record_block(word), record_leaf(word), payload);
    }
  }
  for (const auto& [id, entry] : stash_) {
    visit(id, entry.leaf, entry.payload);
  }
}

void ring_oram::check_consistency() const {
  std::vector<std::uint8_t> payload(config_.payload_bytes);
  std::vector<std::uint8_t> pad(codec_.record_bytes());
  const std::uint32_t spb = slots_per_bucket();

  check_client([&](const stored_fn& stored) {
    for (std::uint64_t bucket = 0; bucket < bucket_count(); ++bucket) {
      invariant(read_count(bucket) < config_.spare_slots,
                "bucket consumed all its spare slots without a reshuffle");
      invariant(real_counts_[bucket] <= config_.real_slots,
                "bucket holds more reals than Z slots");
      const std::uint64_t first = bucket * config_.real_slots;
      for (std::uint32_t i = 0; i < real_counts_[bucket]; ++i) {
        const std::uint32_t k = real_offsets_[first + i];
        invariant(k < spb && (i == 0 || real_offsets_[first + i - 1] < k),
                  "bucket record's slot offsets out of order");
        invariant(!is_read(bucket, k), "live real slot marked consumed");
        const block_id word =
            codec_.decode(io_store_->peek(bucket * spb + k), payload);
        invariant(record_block(word) == real_ids_[first + i],
                  "slot metadata disagrees with the record");
        stored(record_block(word), record_leaf(word), bucket);
      }
      const slot_mask reals = real_mask(bucket);
      for (std::uint32_t k = 0; k < spb; ++k) {
        if (has_slot(reals.data(), k) || is_read(bucket, k)) {
          continue;
        }
        // An unread dummy must hold its deterministic pad byte for
        // byte, or the XOR reconstruction would corrupt real reads.
        const std::uint64_t slot = bucket * spb + k;
        fill_pad(slot, epochs_[bucket], pad);
        const std::span<const std::uint8_t> host = io_store_->peek(slot);
        invariant(std::equal(pad.begin(), pad.end(), host.begin()),
                  "unread dummy slot diverged from its pad");
      }
    }
  });
}

}  // namespace horam::oram
