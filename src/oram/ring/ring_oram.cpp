#include "oram/ring/ring_oram.h"

#include <algorithm>
#include <cstring>

#include "util/contracts.h"

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

}  // namespace

ring_oram::ring_oram(const ring_oram_config& config,
                     sim::block_device& io_device, const sim::cpu_model& cpu,
                     util::random_source& rng, access_trace* trace)
    : tree_core(config.leaf_count, config.real_slots, config.payload_bytes,
                config.id_universe, cpu, rng),
      config_(config),
      codec_(config.payload_bytes, config.seal, config.key_seed),
      trace_(trace) {
  expects(config.spare_slots > 0, "spare slots (S) must be positive");
  expects(config.eviction_rate > 0, "eviction rate (A) must be positive");

  io_store_ = std::make_unique<storage::block_store>(
      io_device, /*base_offset=*/0, total_slots(), codec_.record_bytes(),
      logical_block_bytes(config.logical_block_bytes, codec_.record_bytes()));

  slots_.resize(total_slots());
  buckets_.resize(bucket_count());

  const std::size_t record_bytes = codec_.record_bytes();
  chosen_slots_.reserve(level_count());
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

cost_split ring_oram::path_read(leaf_id leaf, block_id target, bool& found) {
  cost_split cost;
  found = false;
  trace(trace_, event_kind::memory_path_access, leaf, config_.leaf_count);

  const std::uint32_t spb = slots_per_bucket();
  const std::size_t record_bytes = codec_.record_bytes();

  // Choose one slot per path bucket: the real slot when the target
  // lives there, a uniformly random unread dummy otherwise. Real slots
  // are placed at uniformly random slots on every bucket rewrite, so
  // the two choices are identically distributed on the bus.
  chosen_slots_.clear();
  std::uint64_t real_slot = 0;
  for (std::uint32_t level = 0; level < level_count(); ++level) {
    const std::uint64_t bucket = bucket_on_path(leaf, level);
    const std::uint64_t base = bucket * spb;
    std::uint64_t chosen = total_slots();
    if (target != dummy_block_id) {
      for (std::uint32_t k = 0; k < spb; ++k) {
        if (slots_[base + k].id == target) {
          invariant(!slots_[base + k].read, "real slot already consumed");
          chosen = base + k;
          found = true;
          real_slot = chosen;
          break;
        }
      }
    }
    if (chosen == total_slots()) {
      std::uint32_t candidates = 0;
      for (std::uint32_t k = 0; k < spb; ++k) {
        const slot_meta& meta = slots_[base + k];
        if (meta.id == dummy_block_id && !meta.read) {
          slot_order_[candidates++] = k;
        }
      }
      invariant(candidates > 0,
                "bucket ran out of unread dummies before its reshuffle");
      chosen = base + slot_order_[util::uniform_below(rng_, candidates)];
    }
    chosen_slots_.push_back(chosen);
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
        fill_pad(slot, buckets_[slot / spb].epoch, pad_scratch_);
        for (std::size_t i = 0; i < record_bytes; ++i) {
          combined_scratch_[i] ^= pad_scratch_[i];
        }
      }
      const block_id id = codec_.decode(combined_scratch_, extracted_payload_);
      invariant(id == target, "XOR-combined read recovered the wrong block");
    }
  } else {
    // Fallback: one device read per chosen slot.
    for (const std::uint64_t slot : chosen_slots_) {
      cost.io += io_store_->read(slot, record_scratch_);
      if (found && slot == real_slot) {
        std::memcpy(combined_scratch_.data(), record_scratch_.data(),
                    record_bytes);
      }
    }
    if (found) {
      const block_id id = codec_.decode(combined_scratch_, extracted_payload_);
      invariant(id == target, "slot read recovered the wrong block");
    }
  }

  // Consume the chosen slots; an extracted real slot becomes a spent
  // dummy until the bucket's next rewrite.
  for (const std::uint64_t slot : chosen_slots_) {
    slots_[slot].read = true;
    if (found && slot == real_slot) {
      slots_[slot].id = dummy_block_id;
    }
    ++buckets_[slot / spb].read_count;
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
    if (buckets_[bucket].read_count >= config_.spare_slots) {
      cost += reshuffle_bucket(bucket);
    }
  }

  // Deterministic eviction every A accesses — a public schedule that
  // depends only on the access count.
  ++access_count_;
  if (access_count_ % config_.eviction_rate == 0) {
    cost += evict_union(1);
  }
  return cost;
}

cost_split ring_oram::extract(block_id id, std::span<std::uint8_t> read_out) {
  expects(id < positions_.universe(), "block id outside the universe");
  expects(positions_.contains(id), "extract of a non-resident block");
  expects(read_out.size() >= config_.payload_bytes,
          "read buffer too small");
  ++stats_.real_accesses;
  // One access = one dependent exchange: the slot choices are known up
  // front from trusted metadata, and any eviction/reshuffle the access
  // triggers rides the same public schedule.
  sim::trip_scope round_trip(&io_store_->device());

  // No remap: the block leaves the tree, so its (about to be read) path
  // is never correlated with a future access.
  const leaf_id leaf = positions_.leaf_of(id);
  if (stash_.contains(id)) {
    // Sheltering in the stash: serve from trusted memory and take the
    // block out BEFORE the cover path read — the read can trigger an
    // eviction, which would otherwise write the block into the tree
    // mid-extract. The all-dummy path read keeps the bus shape.
    const stash_entry& entry = stash_.at(id);
    std::memcpy(read_out.data(), entry.payload.data(),
                config_.payload_bytes);
    stash_.erase(id);
    positions_.remove(id);
    --resident_;
    bool found = false;
    return path_read(leaf, dummy_block_id, found);
  }
  bool found = false;
  const cost_split cost = path_read(leaf, id, found);
  invariant(found, "resident block missing from its path");
  std::memcpy(read_out.data(), extracted_payload_.data(),
              config_.payload_bytes);
  positions_.remove(id);
  --resident_;
  return cost;
}

cost_split ring_oram::dummy_access() {
  ++stats_.dummy_accesses;
  sim::trip_scope round_trip(&io_store_->device());
  const leaf_id leaf = random_leaf();
  bool found = false;
  return path_read(leaf, dummy_block_id, found);
}

cost_split ring_oram::force_evict(std::uint64_t count) {
  sim::trip_scope round_trip(&io_store_->device());
  return evict_union(count);
}

void ring_oram::compose_bucket(std::uint64_t bucket,
                               std::span<const block_ref> reals,
                               std::span<std::uint8_t> out) {
  const std::uint32_t spb = slots_per_bucket();
  const std::size_t record_bytes = codec_.record_bytes();
  expects(reals.size() <= config_.real_slots, "bucket overfull");
  expects(out.size() >= spb * record_bytes, "bucket buffer too small");

  bucket_state& state = buckets_[bucket];
  ++state.epoch;
  state.read_count = 0;

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

  // Reals are composed here and queued for the caller's batch seal;
  // only the slots left over get the next epoch's pad.
  const std::uint64_t base = bucket * spb;
  for (std::uint32_t k = 0; k < spb; ++k) {
    slots_[base + k] = slot_meta{dummy_block_id, false};
  }
  for (std::uint32_t i = 0; i < reals.size(); ++i) {
    const std::uint32_t k = slot_order_[i];
    slots_[base + k] = slot_meta{reals[i].id, false};
    seal_queue_.push_back(
        std::span<std::uint8_t>(out.data() + k * record_bytes, record_bytes));
    codec_.encode_plain(reals[i].id, reals[i].payload, seal_queue_.back());
  }
  for (std::uint32_t k = 0; k < spb; ++k) {
    if (slots_[base + k].id == dummy_block_id) {
      fill_pad(base + k, state.epoch,
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
  const std::size_t record_bytes = codec_.record_bytes();
  real_records_.clear();
  real_slots_.clear();
  for (const std::uint64_t bucket : buckets) {
    const std::uint64_t base = bucket * spb;
    cost.io += io_store_->read_range(base, spb, bucket_scratch_);
    trace(trace_, event_kind::storage_read_sweep, base, spb);
    for (std::uint32_t k = 0; k < spb; ++k) {
      if (slots_[base + k].id != dummy_block_id) {
        const auto record = std::span<const std::uint8_t>(bucket_scratch_)
                                .subspan(k * record_bytes, record_bytes);
        real_records_.insert(real_records_.end(), record.begin(),
                             record.end());
        real_slots_.push_back(base + k);
      }
    }
  }

  open_spans_.clear();
  for (std::size_t i = 0; i < real_slots_.size(); ++i) {
    open_spans_.push_back(std::span<const std::uint8_t>(real_records_)
                              .subspan(i * record_bytes, record_bytes));
  }
  real_ids_.resize(real_slots_.size());
  codec_.decode_many(open_spans_, real_ids_,
                     std::span<std::uint8_t>(real_records_)
                         .first(real_slots_.size() * config_.payload_bytes));
  opened_.clear();
  for (std::size_t i = 0; i < real_ids_.size(); ++i) {
    invariant(real_ids_[i] == slots_[real_slots_[i]].id,
              "slot metadata disagrees with the record");
    opened_.push_back(block_ref{
        real_ids_[i], std::span<const std::uint8_t>(real_records_)
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

  // Whole-bucket range read; the residents keep their paths, only the
  // permutation and the pads are refreshed.
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

  // Root level first: range-read every union bucket once and open all
  // their reals in one batch (every MAC checked) before any block
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
  std::fill(buckets_.begin(), buckets_.end(), bucket_state{});
  std::fill(slots_.begin(), slots_.end(), slot_meta{});

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

  // The placement is recorded first; the buckets are composed after it
  // in heap order.
  std::vector<std::vector<block_id>> bucket_ids(bucket_count());
  const std::vector<std::uint8_t> payloads = build_client(
      count, filler, leaves_out,
      [&](std::uint64_t bucket, std::span<const block_ref> reals) {
        for (const block_ref& real : reals) {
          bucket_ids[bucket].push_back(real.id);
        }
      });

  // Compose every bucket (fresh permutations + pads) straight into the
  // store — a staged copy of the whole tree would be a store-sized
  // transient per build — and stream it out as sequential sweeps.
  // Reals are sealed in batches of about sweep_seal_records, bucket
  // order then slot order.
  const std::uint32_t spb = slots_per_bucket();
  std::vector<block_ref> reals;
  for (std::uint64_t bucket = 0; bucket < bucket_count(); ++bucket) {
    reals.clear();
    for (const block_id id : bucket_ids[bucket]) {
      reals.push_back(block_ref{
          id, std::span<const std::uint8_t>(payloads).subspan(
                  id * config_.payload_bytes, config_.payload_bytes)});
    }
    compose_bucket(bucket, reals, io_store_->stage_range(bucket * spb, spb));
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
  for (std::uint64_t slot = 0; slot < total_slots(); ++slot) {
    const slot_meta& meta = slots_[slot];
    if (meta.id == dummy_block_id) {
      continue;
    }
    const block_id id = codec_.decode(io_store_->peek(slot), payload);
    invariant(id == meta.id, "slot metadata disagrees with the record");
    visit(id, positions_.leaf_of(id), payload);
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
      const bucket_state& state = buckets_[bucket];
      invariant(state.read_count < config_.spare_slots,
                "bucket consumed all its spare slots without a reshuffle");
      std::uint32_t reals = 0;
      for (std::uint32_t k = 0; k < spb; ++k) {
        const std::uint64_t slot = bucket * spb + k;
        const slot_meta& meta = slots_[slot];
        if (meta.id != dummy_block_id) {
          invariant(!meta.read, "live real slot marked consumed");
          ++reals;
          const block_id id = codec_.decode(io_store_->peek(slot), payload);
          invariant(id == meta.id,
                    "slot metadata disagrees with the record");
          stored(id, bucket);
        } else if (!meta.read) {
          // An unread dummy must hold its deterministic pad byte for
          // byte, or the XOR reconstruction would corrupt real reads.
          fill_pad(slot, state.epoch, pad);
          const std::span<const std::uint8_t> host = io_store_->peek(slot);
          invariant(std::equal(pad.begin(), pad.end(), host.begin()),
                    "unread dummy slot diverged from its pad");
        }
      }
      invariant(reals <= config_.real_slots,
                "bucket holds more reals than Z slots");
    }
  });
}

}  // namespace horam::oram
