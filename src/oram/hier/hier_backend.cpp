#include "oram/hier/hier_backend.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "crypto/key_schedule.h"
#include "util/contracts.h"
#include "util/math.h"

namespace horam::oram {

namespace {

/// Slots moved per merge slice unit: one chunked transfer. Public
/// information by design — a pure constant of the implementation; a
/// bounded incremental budget shrinks the merge unit below it.
constexpr std::uint64_t kChunkSlots = 512;

/// What a merge's frozen probed set holds for a slot some probe
/// consumed (the merge skips it); no block id reaches it.
constexpr block_id kProbed = dummy_block_id - 1;

/// Modelled device time of one merge chunk of `slots` slots: one
/// command, one seek and the transfer at the slower of the read and
/// write bandwidths — an upper bound on the chunk in either direction.
sim::sim_time chunk_device_time(const sim::device_profile& profile,
                                std::uint64_t block_bytes,
                                std::uint64_t slots) {
  const double bytes_per_second = std::min(profile.read_bytes_per_second,
                                           profile.write_bytes_per_second);
  return profile.per_op_time + profile.seek_time +
         static_cast<sim::sim_time>(static_cast<double>(slots * block_bytes) *
                                    1e9 / bytes_per_second);
}

/// Merge radix b_i = floor(r_i / (s_i * n/2)) + 1 of a level with real
/// capacity r_i whose scheduled merges come every s_i = `epoch_periods`
/// periods of n/2 = `period_loads` loads: the merges one cycle of the
/// level takes before its contents move deeper, b_i - 1 of them, each
/// holding at most the hot sets since the level was last drained.
std::uint64_t merge_radix(std::uint64_t real_capacity,
                          std::uint64_t epoch_periods,
                          std::uint64_t period_loads) {
  return real_capacity / (epoch_periods * period_loads) + 1;
}

}  // namespace

hier_backend::hier_backend(
    const horam_config& config, sim::block_device& device,
    const sim::cpu_model& cpu, util::random_source& rng,
    access_trace* trace,
    const std::function<void(block_id, std::span<std::uint8_t>)>* filler)
    : config_(config),
      cpu_(cpu),
      rng_(rng),
      trace_(trace),
      codec_(1, config.payload_bytes, config.seal,
             crypto::key_schedule(config.key_seed)
                 .seal({crypto::store_kind::hier})) {
  config_.validate();

  // Geometric levels: the top level holds the controller's hot set, the
  // bottom level holds the dataset. Each level's dummy pool is exactly
  // the probes of its longest epoch, (s_i + 1) * n/2 for 1-based level
  // i, with s_1 = 1 and s_(i+1) = s_i * merge_radix (exhaustion
  // fail-stops loudly):
  //   * merges follow the mixed-radix cascade (hier_shuffle_job) and
  //     drain every active level above and at their target, so level i
  //     is read as a merge source every s_i periods;
  //   * a period is exactly period_loads() = n/2 cycles of one load
  //     each, and a load draws at most one dummy per active level;
  //   * a merge is in flight for at most one period: the controller
  //     drains an in-flight job before it begins the next, and every
  //     other policy runs the job to completion at the boundary.
  // So an epoch spans the period its merge writes it in plus s_i more,
  // the last of which drains it.
  const std::uint64_t top = std::max<std::uint64_t>(16, config_.memory_blocks);
  std::vector<std::uint64_t> reals;
  for (std::uint64_t r = top;; r *= config_.hier_fanout) {
    reals.push_back(r);
    if (r >= config_.block_count) {
      break;
    }
  }
  levels_.resize(reals.size());
  std::uint64_t base = 0;
  std::uint64_t max_slots = 0;
  std::uint64_t epoch_periods = 1;  // s_i, 1-based level i
  for (std::size_t i = 0; i < reals.size(); ++i) {
    level_state& lvl = levels_[i];
    lvl.real_capacity = reals[i];
    lvl.dummy_capacity = (epoch_periods + 1) * config_.period_loads();
    epoch_periods *= merge_radix(lvl.real_capacity, epoch_periods,
                                 config_.period_loads());
    lvl.slot_count = lvl.real_capacity + lvl.dummy_capacity;
    lvl.base = base;
    base += lvl.slot_count;
    max_slots = std::max(max_slots, lvl.slot_count);
  }
  const std::uint64_t total_slots = base;

  const unsigned level_bits =
      std::max(1u, util::ceil_log2(levels_.size() + 1));
  const unsigned slot_bits = std::max(1u, util::ceil_log2(max_slots));
  index_ = succinct_index(config_.block_count, level_bits, slot_bits);

  const std::size_t rec = codec_.record_bytes();
  store_ = std::make_unique<storage::block_store>(
      device, 0, total_slots, rec,
      logical_block_bytes(config_.logical_block_bytes, rec));
  payload_scratch_.assign(config_.payload_bytes, 0);

  // Every block starts at the bottom level (rank = id) under a fresh
  // permutation; the other levels stay inactive until merges fill them.
  level_state& bottom = levels_.back();
  bottom.active = true;
  bottom.epoch = 1;
  bottom.live = config_.block_count;
  bottom.reals_placed = config_.block_count;
  bottom.prp = feistel_prp(bottom.slot_count, fresh_key());
  horam::oram::trace(trace_, event_kind::storage_write_sweep, bottom.base,
                     bottom.slot_count);
  for (std::uint64_t first = 0; first < bottom.slot_count;
       first += kChunkSlots) {
    const std::uint64_t n =
        std::min(kChunkSlots, bottom.slot_count - first);
    level_buf_.resize(n * rec);
    compose_chunk(bottom.prp, first, n, 0, config_.block_count,
                  [&](std::uint64_t rank, std::uint64_t slot,
                      std::span<std::uint8_t> out) {
                    std::fill(payload_scratch_.begin(),
                              payload_scratch_.end(), 0);
                    if (filler != nullptr) {
                      (*filler)(rank, payload_scratch_);
                    }
                    codec_.encode_plain(rank, payload_scratch_, out);
                    index_.place(rank, level_count(), slot);
                  });
    store_->write_range(bottom.base + first, n, level_buf_);
  }
  device.reset_stats();
}

std::span<const std::uint64_t> hier_backend::compose_chunk(
    const feistel_prp& prp, std::uint64_t first_slot, std::uint64_t n,
    std::uint64_t at, std::uint64_t reals,
    const std::function<void(std::uint64_t, std::uint64_t,
                             std::span<std::uint8_t>)>& compose_real) {
  const std::size_t rec = codec_.record_bytes();
  chunk_ranks_.resize(n);
  prp.inverse_many(first_slot, chunk_ranks_);
  seal_spans_.clear();
  for (std::uint64_t j = 0; j < n; ++j) {
    seal_spans_.push_back(std::span(level_buf_).subspan((at + j) * rec, rec));
    if (chunk_ranks_[j] < reals) {
      compose_real(chunk_ranks_[j], first_slot + j, seal_spans_.back());
    } else {
      codec_.encode_plain(dummy_block_id, {}, seal_spans_.back());
    }
  }
  codec_.seal_many(seal_spans_);
  return chunk_ranks_;
}

std::span<const std::uint8_t> hier_backend::open_level_buf(
    std::uint64_t first, std::uint64_t n) {
  const std::size_t rec = codec_.record_bytes();
  open_spans_.clear();
  for (std::uint64_t j = first; j < first + n; ++j) {
    open_spans_.push_back(
        std::span<const std::uint8_t>(level_buf_).subspan(j * rec, rec));
  }
  chunk_ids_.resize(n);
  const std::span<std::uint8_t> payloads = std::span(level_buf_).subspan(
      first * rec, n * config_.payload_bytes);
  codec_.decode_many(open_spans_, chunk_ids_, payloads);
  return payloads;
}

crypto::siphash_key hier_backend::fresh_key() {
  crypto::siphash_key key;
  for (std::size_t half = 0; half < 2; ++half) {
    const std::uint64_t word = rng_.next_u64();
    std::memcpy(key.data() + half * 8, &word, sizeof(word));
  }
  return key;
}

bool hier_backend::in_storage(block_id id) const {
  expects(id < config_.block_count, "block id out of range");
  return index_.level_of(id) != 0;
}

cost_split hier_backend::probe_all(block_id target,
                                   std::span<std::uint8_t> payload_out) {
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  probe_slots_.clear();
  std::size_t target_pos = npos;
  std::size_t resident_idx = 0;
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    level_state& lvl = levels_[i];
    if (!lvl.active) {
      continue;
    }
    if (target != dummy_block_id && index_.level_of(target) == i + 1) {
      target_pos = probe_slots_.size();
      resident_idx = i;
      probe_slots_.push_back(lvl.base + index_.slot_of(target));
    } else {
      invariant(lvl.dummies_used < lvl.dummy_capacity,
                "hier dummy pool exhausted before the level's rebuild");
      probe_slots_.push_back(
          lvl.base + lvl.prp.forward(lvl.real_capacity + lvl.dummies_used));
      ++lvl.dummies_used;
    }
  }
  invariant(!probe_slots_.empty(), "hier has no active level to probe");
  invariant(target == dummy_block_id || target_pos != npos,
            "resident level of the target is not active");
  for (const std::uint64_t slot : probe_slots_) {
    trace(trace_, event_kind::storage_read_slot, slot);
  }

  // The single round trip: every probe address is known up front from
  // the trusted index, so the whole batch ships as one exchange.
  const std::size_t rec = codec_.record_bytes();
  probe_buf_.resize(probe_slots_.size() * rec);
  cost_split cost;
  {
    sim::trip_scope round_trip(&store_->device());
    cost.io += store_->read_scatter(probe_slots_, probe_buf_);
  }
  // The client decrypts the full batch whether or not a real block is
  // inside, so real and dummy loads cost the same.
  cost.cpu += cpu_.crypto_time(probe_slots_.size(), rec) +
              cpu_.word_ops_time(probe_slots_.size() + 8);

  if (target_pos != npos) {
    const block_id got = codec_.decode(
        std::span<const std::uint8_t>(probe_buf_)
            .subspan(target_pos * rec, rec),
        payload_out);
    invariant(got == target, "hier probe returned the wrong block");
    level_state& lvl = levels_[resident_idx];
    invariant(lvl.live > 0, "level live count underflow");
    --lvl.live;
    index_.clear(target);
    ++cached_count_;
  }
  return cost;
}

oram_backend::load_result hier_backend::load_block(block_id id) {
  expects(in_storage(id), "block is not on storage");
  load_result result;
  ++stats_.real_loads;
  result.cost += probe_all(id, payload_scratch_);
  result.id = id;
  result.payload.assign(payload_scratch_.begin(), payload_scratch_.end());
  return result;
}

oram_backend::load_result hier_backend::dummy_load() {
  load_result result;
  ++stats_.dummy_loads;
  result.cost += probe_all(dummy_block_id, {});
  return result;
}

/// Incremental merge of the evicted hot set plus every active level
/// above the schedule-chosen target into that target, rebuilt under a
/// fresh permutation. Slice units are single chunk transfers (first
/// scatter reads of the sources' unprobed slots, then streaming writes
/// of the composed target), so bounded budgets stop between any two
/// chunks; blocks the job holds stay staged until their chunk lands.
class hier_shuffle_job final : public horam::staged_shuffle_job {
 public:
  hier_shuffle_job(hier_backend& owner, std::vector<evicted_block> evicted,
                   std::uint64_t period_index)
      : owner_(owner) {
    invariant(!owner_.merge_in_flight_, "hier merge already in flight");
    owner_.merge_in_flight_ = true;
    trace(owner_.trace_, event_kind::shuffle_begin, period_index);

    // Merge unit: a kChunkSlots chunk, or under a bounded incremental
    // budget the largest chunk whose modelled device time fits it (at
    // least one slot), so no slice overruns the budget. A function of
    // the configuration and the device profile only.
    const horam_config& config = owner_.config_;
    const sim::device_profile& profile = owner_.store_->device().profile();
    const std::uint64_t block_bytes = owner_.store_->logical_block_bytes();
    if (config.defers_shuffles()) {
      while (chunk_slots_ > 1 &&
             chunk_device_time(profile, block_bytes, chunk_slots_) >
                 config.shuffle_slice_budget) {
        --chunk_slots_;
      }
    }
    chunk_bound_ = chunk_device_time(profile, block_bytes, chunk_slots_);

    for (evicted_block& block : evicted) {
      expects(block.id < config.block_count, "evicted id out of range");
      invariant(owner_.index_.level_of(block.id) == 0,
                "evicted block the index says is on storage");
      stage(block.id, std::move(block.payload));
      order_.push_back(block.id);
    }

    // Merge target: level 1 plus the trailing zero digits of the period
    // ordinal in the merge radices (b_1, b_2, ...), capped at L — a
    // function of the period index and the level geometry only. A
    // period's hot set is at most its n/2 loads, so the m-th merge into
    // level i since its last drain holds at most m * s_i * n/2 blocks,
    // and m < b_i keeps that within r_i; the bottom level holds the
    // whole dataset. Every merge fits its target.
    const std::uint32_t level_total = owner_.level_count();
    std::uint64_t ordinal = period_index + 1;
    std::uint64_t epoch_periods = 1;
    std::uint32_t target = 1;
    while (target < level_total) {
      const std::uint64_t radix =
          merge_radix(owner_.levels_[target - 1].real_capacity,
                      epoch_periods, config.period_loads());
      if (ordinal % radix != 0) {
        break;
      }
      ordinal /= radix;
      epoch_periods *= radix;
      ++target;
    }
    std::uint64_t incoming = order_.size();
    for (std::uint32_t l = 1; l <= target; ++l) {
      incoming += owner_.levels_[l - 1].active ? owner_.levels_[l - 1].live
                                               : 0;
    }
    invariant(incoming <= owner_.levels_[target - 1].real_capacity,
              "hier merge target cannot hold its inputs");
    target_ = target;
    for (std::uint32_t l = 1; l <= target_; ++l) {
      if (owner_.levels_[l - 1].active) {
        sources_.push_back(l - 1);
      }
    }
    if (sources_.empty()) {
      if (staged_count() == 0) {
        skip_ = true;  // nothing anywhere: leave the layout untouched
      } else {
        begin_write();
      }
    }
  }

  [[nodiscard]] bool done() const noexcept override {
    return skip_ || write_done_;
  }

 private:
  void run_unit(horam::shuffle_cost& slice) override {
    if (src_index_ < sources_.size()) {
      read_unit(slice);
    } else {
      write_unit(slice);
    }
  }

  [[nodiscard]] sim::sim_time next_unit_bound() const noexcept override {
    return chunk_bound_;
  }

  // Capacity is guaranteed, so nothing is ever kept.
  void on_finish() override {
    owner_.merge_in_flight_ = false;
    ++owner_.stats_.partitions_shuffled;
  }

  /// Freezes the probed set of source level `idx` as its drain begins,
  /// as what each slot must hold: the id of a block still live there
  /// (one index pass), dummy_block_id for a filler or unconsumed dummy
  /// rank (one rank pass), and kProbed for a consumed dummy rank or a
  /// real rank whose block a probe extracted.
  void freeze(std::size_t idx, horam::shuffle_cost& cost) {
    const hier_backend::level_state& lvl = owner_.levels_[idx];
    frozen_.assign(lvl.slot_count, kProbed);
    for (block_id id = 0; id < owner_.config_.block_count; ++id) {
      if (owner_.index_.level_of(id) == idx + 1) {
        frozen_[owner_.index_.slot_of(id)] = id;
      }
    }
    const std::uint64_t consumed_end = lvl.real_capacity + lvl.dummies_used;
    std::vector<std::uint64_t>& ranks = owner_.chunk_ranks_;
    for (std::uint64_t first = 0; first < lvl.slot_count;
         first += kChunkSlots) {
      ranks.resize(std::min(kChunkSlots, lvl.slot_count - first));
      lvl.prp.inverse_many(first, ranks);
      for (std::size_t j = 0; j < ranks.size(); ++j) {
        if (ranks[j] >= lvl.reals_placed &&
            (ranks[j] < lvl.real_capacity || ranks[j] >= consumed_end)) {
          frozen_[first + j] = dummy_block_id;
        }
      }
    }
    cost.cpu += owner_.cpu_.word_ops_time(owner_.config_.block_count +
                                          lvl.slot_count);
  }

  /// Reads the current source level's next chunk — up to chunk_slots_
  /// unprobed slots within kChunkSlots, as one scatter read, plus the
  /// probed slots up to the next unprobed one — stages the blocks
  /// still indexed there, and deactivates the level once drained. A
  /// slot holding another id than the frozen set expects fails the
  /// step: the store moved a record.
  void read_unit(horam::shuffle_cost& cost) {
    const std::size_t idx = sources_[src_index_];
    hier_backend::level_state& lvl = owner_.levels_[idx];
    if (read_cursor_ == 0) {
      freeze(idx, cost);
    }
    const std::uint64_t window =
        std::min(kChunkSlots, lvl.slot_count - read_cursor_);
    // The chunk ends just before an unprobed slot it has no room for,
    // so unless the window caps it, the unit count is the unprobed
    // count over chunk_slots_: a function of the schedule.
    read_slots_.clear();
    std::uint64_t span = 0;
    for (; span < window; ++span) {
      if (frozen_[read_cursor_ + span] == kProbed) {
        continue;
      }
      if (read_slots_.size() == chunk_slots_) {
        break;
      }
      read_slots_.push_back(lvl.base + read_cursor_ + span);
    }
    const std::size_t k = read_slots_.size();
    const std::size_t rec = owner_.codec_.record_bytes();
    if (k > 0) {
      for (std::size_t run = 0; run < k;) {
        std::size_t end = run + 1;
        while (end < k && read_slots_[end] == read_slots_[end - 1] + 1) {
          ++end;
        }
        trace(owner_.trace_, event_kind::storage_read_sweep, read_slots_[run],
              end - run);
        run = end;
      }
      owner_.level_buf_.resize(k * rec);
      {
        sim::trip_scope round_trip(&owner_.store_->device());
        cost.io_read += owner_.store_->read_scatter(read_slots_,
                                                    owner_.level_buf_);
      }
      // Every record opens (every MAC checked) and holds its expected
      // id before any block moves.
      const std::span<const std::uint8_t> payloads =
          owner_.open_level_buf(0, k);
      for (std::size_t i = 0; i < k; ++i) {
        invariant(owner_.chunk_ids_[i] == frozen_[read_slots_[i] - lvl.base],
                  "hier merge read a record its rank does not place there");
      }
      for (std::size_t i = 0; i < k; ++i) {
        const block_id id = owner_.chunk_ids_[i];
        if (id == dummy_block_id || owner_.index_.level_of(id) != idx + 1 ||
            lvl.base + owner_.index_.slot_of(id) != read_slots_[i]) {
          continue;  // a dummy, or extracted since the freeze
        }
        const auto payload = payloads.subspan(
            i * owner_.config_.payload_bytes, owner_.config_.payload_bytes);
        stage(id, std::vector<std::uint8_t>(payload.begin(), payload.end()));
        order_.push_back(id);
        owner_.index_.clear(id);
        ++owner_.cached_count_;
        invariant(lvl.live > 0, "level live count underflow");
        --lvl.live;
      }
      cost.cpu += owner_.cpu_.crypto_time(k, rec);
    }
    read_cursor_ += span;
    if (read_cursor_ < lvl.slot_count) {
      return;
    }
    invariant(lvl.live == 0, "merge drained a level but blocks remain");
    lvl.active = false;
    lvl.dummies_used = 0;
    read_cursor_ = 0;
    ++src_index_;
    if (src_index_ == sources_.size()) {
      // Activate the target in the same indivisible unit so online
      // probes never see a gap with every merged level inactive.
      begin_write();
    }
  }

  /// Opens the target's new epoch: fresh key, ranks in staging order.
  void begin_write() {
    hier_backend::level_state& lvl = owner_.levels_[target_ - 1];
    invariant(lvl.live == 0, "merge target still holds live blocks");
    invariant(order_.size() <= lvl.real_capacity,
              "hier merge target cannot hold its inputs");
    lvl.prp = feistel_prp(lvl.slot_count, owner_.fresh_key());
    lvl.active = true;
    ++lvl.epoch;
    lvl.dummies_used = 0;
    lvl.reals_placed = order_.size();
  }

  /// Composes and writes the next chunk of the target, then flips the
  /// written blocks from the staging area into the index.
  void write_unit(horam::shuffle_cost& cost) {
    hier_backend::level_state& lvl = owner_.levels_[target_ - 1];
    const std::uint64_t n =
        std::min(chunk_slots_, lvl.slot_count - write_cursor_);
    const std::size_t rec = owner_.codec_.record_bytes();
    owner_.level_buf_.resize(n * rec);
    // Each slot's rank once, for composing and for placing.
    const std::span<const std::uint64_t> ranks = owner_.compose_chunk(
        lvl.prp, write_cursor_, n, 0, order_.size(),
        [&](std::uint64_t rank, std::uint64_t, std::span<std::uint8_t> out) {
          owner_.codec_.encode_plain(order_[rank], payload_of(order_[rank]),
                                     out);
        });
    trace(owner_.trace_, event_kind::storage_write_sweep,
          lvl.base + write_cursor_, n);
    {
      sim::trip_scope round_trip(&owner_.store_->device());
      cost.io_write += owner_.store_->write_range(lvl.base + write_cursor_,
                                                  n, owner_.level_buf_);
    }
    for (std::uint64_t j = 0; j < n; ++j) {
      if (ranks[j] >= order_.size()) {
        continue;
      }
      const block_id id = order_[ranks[j]];
      owner_.index_.place(id, target_, write_cursor_ + j);
      unstage(id);
      ++lvl.live;
      ++placed_;
      invariant(owner_.cached_count_ > 0, "cached count underflow");
      --owner_.cached_count_;
    }
    cost.cpu += owner_.cpu_.crypto_time(n, rec) +
                owner_.cpu_.word_ops_time(2 * n);
    write_cursor_ += n;
    if (write_cursor_ == lvl.slot_count) {
      // Compare against the job's own placement count, not lvl.live:
      // online loads may re-extract already-landed blocks while later
      // chunks are still being written, legitimately shrinking live.
      invariant(placed_ == order_.size(),
                "merge placed a different block count");
      write_done_ = true;
    }
  }

  hier_backend& owner_;
  std::uint64_t chunk_slots_ = kChunkSlots;  // slots per merge unit
  sim::sim_time chunk_bound_ = 0;  // modelled device time of one unit
  std::vector<block_id> order_;  // rank assignment of the new epoch
  std::vector<std::size_t> sources_;
  std::uint32_t target_ = 1;
  std::size_t src_index_ = 0;
  std::uint64_t read_cursor_ = 0;
  std::uint64_t write_cursor_ = 0;
  std::uint64_t placed_ = 0;
  // What each slot of the source level being drained must hold, frozen
  // at its first chunk, and the current chunk's unprobed slots.
  std::vector<block_id> frozen_;
  std::vector<std::uint64_t> read_slots_;
  bool skip_ = false;
  bool write_done_ = false;
};

std::unique_ptr<horam::shuffle_job> hier_backend::begin_shuffle(
    std::vector<evicted_block> evicted, std::uint64_t period_index) {
  return std::make_unique<hier_shuffle_job>(*this, std::move(evicted),
                                            period_index);
}

std::uint32_t hier_backend::active_levels() const noexcept {
  std::uint32_t count = 0;
  for (const level_state& lvl : levels_) {
    count += lvl.active ? 1 : 0;
  }
  return count;
}

std::uint64_t hier_backend::level_real_capacity(std::uint32_t level) const {
  expects(level >= 1 && level <= levels_.size(), "level out of range");
  return levels_[level - 1].real_capacity;
}

std::uint64_t hier_backend::level_slot_count(std::uint32_t level) const {
  expects(level >= 1 && level <= levels_.size(), "level out of range");
  return levels_[level - 1].slot_count;
}

std::uint64_t hier_backend::level_base(std::uint32_t level) const {
  expects(level >= 1 && level <= levels_.size(), "level out of range");
  return levels_[level - 1].base;
}

std::uint64_t hier_backend::level_live(std::uint32_t level) const {
  expects(level >= 1 && level <= levels_.size(), "level out of range");
  return levels_[level - 1].live;
}

std::uint64_t hier_backend::physical_bytes() const {
  return store_->slot_count() * store_->logical_block_bytes();
}

std::uint64_t hier_backend::control_memory_bytes() const {
  // Trusted state: the succinct index plus O(1) words per level — the
  // scheme's selling point (no stash, no per-slot metadata) and its
  // cost (the index grows with the block count, unlike a recursive
  // map's O(1) residue).
  return index_.bytes() + levels_.size() * sizeof(level_state);
}

void hier_backend::check_consistency() const {
  std::vector<std::uint64_t> live_counts(levels_.size(), 0);
  std::unordered_set<std::uint64_t> claimed;
  std::uint64_t mapped = 0;
  for (block_id id = 0; id < config_.block_count; ++id) {
    const std::uint32_t level = index_.level_of(id);
    if (level == 0) {
      continue;
    }
    invariant(level <= levels_.size(), "index level out of range");
    const level_state& lvl = levels_[level - 1];
    invariant(lvl.active, "index maps a block to an inactive level");
    const std::uint64_t slot = index_.slot_of(id);
    invariant(slot < lvl.slot_count, "index slot out of range");
    invariant(claimed.insert(lvl.base + slot).second,
              "two blocks indexed to one slot");
    const block_id stored =
        codec_.decode(store_->peek(lvl.base + slot), {});
    invariant(stored == id, "stored record disagrees with the index");
    ++live_counts[level - 1];
    ++mapped;
  }
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    invariant(live_counts[i] == levels_[i].live,
              "level live count disagrees with the index");
    invariant(levels_[i].active || levels_[i].live == 0,
              "inactive level holds live blocks");
    invariant(levels_[i].dummies_used <= levels_[i].dummy_capacity,
              "dummy pool overran its capacity");
  }
  invariant(mapped + cached_count_ == config_.block_count,
            "cached counter out of sync with the index");
}

}  // namespace horam::oram
