#include "oram/hier/hier_backend.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "util/contracts.h"
#include "util/math.h"

namespace horam::oram {

namespace {

/// Slots moved per merge slice unit: one chunked range transfer. Public
/// information by design — a pure constant of the implementation.
constexpr std::uint64_t kChunkSlots = 512;

}  // namespace

hier_backend::hier_backend(
    const horam_config& config, sim::block_device& device,
    const sim::cpu_model& cpu, util::random_source& rng,
    access_trace* trace,
    const std::function<void(block_id, std::span<std::uint8_t>)>* filler,
    sim::block_device* map_device)
    : config_(config),
      cpu_(cpu),
      rng_(rng),
      trace_(trace),
      codec_(config.payload_bytes, config.seal,
             config.key_seed ^ 0x4869) {  // "Hi"
  static_cast<void>(map_device);  // no map chain: the index is the map
  config_.validate();

  // Geometric levels: the top level holds the controller's hot set, the
  // bottom level holds the dataset. Each level carries a dummy pool of
  // one slot per probe of its refresh budget, plus slack for the probes
  // that keep arriving while a merge suppresses refreshes (at most a
  // bounded number of access periods; exhaustion fail-stops loudly).
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
  for (std::size_t i = 0; i < reals.size(); ++i) {
    level_state& lvl = levels_[i];
    lvl.real_capacity = reals[i];
    lvl.refresh_after = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(
               config_.hier_rebuild_rate * static_cast<double>(reals[i]))));
    lvl.dummy_capacity =
        lvl.refresh_after + 4 * config_.memory_blocks + 256;
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
  const std::uint64_t logical =
      config_.logical_block_bytes != 0 ? config_.logical_block_bytes : rec;
  expects(logical >= rec, "logical block cannot hold the sealed record");
  store_ = std::make_unique<storage::block_store>(device, 0, total_slots,
                                                  rec, logical);
  payload_scratch_.assign(config_.payload_bytes, 0);

  // Every block starts at the bottom level (rank = id) under a fresh
  // permutation; the other levels stay inactive until merges fill them.
  level_state& bottom = levels_.back();
  bottom.active = true;
  bottom.epoch = 1;
  bottom.live = config_.block_count;
  bottom.prp = feistel_prp(bottom.slot_count, fresh_key());
  horam::oram::trace(trace_, event_kind::storage_write_sweep, bottom.base,
                     bottom.slot_count);
  std::vector<std::uint8_t> buf;
  for (std::uint64_t first = 0; first < bottom.slot_count;
       first += kChunkSlots) {
    const std::uint64_t n =
        std::min(kChunkSlots, bottom.slot_count - first);
    buf.resize(n * rec);
    for (std::uint64_t j = 0; j < n; ++j) {
      const std::uint64_t slot = first + j;
      const std::uint64_t rank = bottom.prp.inverse(slot);
      const std::span<std::uint8_t> out =
          std::span(buf).subspan(j * rec, rec);
      if (rank < config_.block_count) {
        std::fill(payload_scratch_.begin(), payload_scratch_.end(), 0);
        if (filler != nullptr) {
          (*filler)(rank, payload_scratch_);
        }
        codec_.encode(rank, payload_scratch_, out);
        index_.place(rank, level_count(), slot);
      } else {
        codec_.encode_dummy(out);
      }
    }
    store_->write_range(bottom.base + first, n, buf);
  }
  device.reset_stats();
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
                "hier dummy pool exhausted before its refresh");
      probe_slots_.push_back(
          lvl.base + lvl.prp.forward(lvl.real_capacity + lvl.dummies_used));
      ++lvl.dummies_used;
    }
    ++lvl.probes;
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

void hier_backend::refresh_due_levels(cost_split& cost) {
  if (merge_in_flight_) {
    return;  // the dummy pools carry the slack until the merge lands
  }
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    if (levels_[i].active && levels_[i].probes >= levels_[i].refresh_after) {
      refresh_level(i, cost);
    }
  }
}

void hier_backend::refresh_level(std::size_t idx, cost_split& cost) {
  level_state& lvl = levels_[idx];
  const std::size_t rec = codec_.record_bytes();
  level_buf_.resize(lvl.slot_count * rec);
  trace(trace_, event_kind::storage_read_sweep, lvl.base, lvl.slot_count);
  {
    sim::trip_scope round_trip(&store_->device());
    cost.io += store_->read_range(lvl.base, lvl.slot_count, level_buf_);
  }

  // Survivors are the records the index still maps here; stale copies
  // of extracted or re-merged blocks drop out.
  std::vector<block_id> ids;
  std::vector<std::uint8_t> payloads;
  ids.reserve(lvl.live);
  payloads.reserve(lvl.live * config_.payload_bytes);
  for (std::uint64_t slot = 0; slot < lvl.slot_count; ++slot) {
    const block_id id = codec_.decode(
        std::span<const std::uint8_t>(level_buf_).subspan(slot * rec, rec),
        payload_scratch_);
    if (id == dummy_block_id || index_.level_of(id) != idx + 1 ||
        index_.slot_of(id) != slot) {
      continue;
    }
    ids.push_back(id);
    payloads.insert(payloads.end(), payload_scratch_.begin(),
                    payload_scratch_.end());
  }
  invariant(ids.size() == lvl.live,
            "refresh found a live count the index disagrees with");

  lvl.prp = feistel_prp(lvl.slot_count, fresh_key());
  ++lvl.epoch;
  lvl.probes = 0;
  lvl.dummies_used = 0;
  for (std::uint64_t slot = 0; slot < lvl.slot_count; ++slot) {
    const std::uint64_t rank = lvl.prp.inverse(slot);
    const std::span<std::uint8_t> out =
        std::span(level_buf_).subspan(slot * rec, rec);
    if (rank < ids.size()) {
      codec_.encode(ids[rank],
                    std::span<const std::uint8_t>(payloads).subspan(
                        rank * config_.payload_bytes, config_.payload_bytes),
                    out);
      index_.place(ids[rank], static_cast<std::uint32_t>(idx + 1), slot);
    } else {
      codec_.encode_dummy(out);
    }
  }
  trace(trace_, event_kind::storage_write_sweep, lvl.base, lvl.slot_count);
  {
    sim::trip_scope round_trip(&store_->device());
    cost.io += store_->write_range(lvl.base, lvl.slot_count, level_buf_);
  }
  cost.cpu += cpu_.crypto_time(2 * lvl.slot_count, rec) +
              cpu_.word_ops_time(2 * lvl.slot_count);
  ++refreshes_;
}

oram_backend::load_result hier_backend::load_block(block_id id) {
  expects(in_storage(id), "block is not on storage");
  load_result result;
  ++stats_.real_loads;
  result.cost += probe_all(id, payload_scratch_);
  result.id = id;
  result.payload.assign(payload_scratch_.begin(), payload_scratch_.end());
  refresh_due_levels(result.cost);
  return result;
}

oram_backend::load_result hier_backend::dummy_load() {
  load_result result;
  ++stats_.dummy_loads;
  result.cost += probe_all(dummy_block_id, {});
  refresh_due_levels(result.cost);
  return result;
}

/// Incremental merge of the evicted hot set plus every active level
/// above the schedule-chosen target into that target, rebuilt under a
/// fresh permutation. Slice units are single chunked range transfers
/// (first streaming reads of the sources, then streaming writes of the
/// composed target), so bounded budgets stop between any two chunks;
/// blocks the job holds stay staged until their chunk lands.
class hier_shuffle_job final : public horam::staged_shuffle_job {
 public:
  hier_shuffle_job(hier_backend& owner, std::vector<evicted_block> evicted,
                   std::uint64_t period_index)
      : owner_(owner) {
    invariant(!owner_.merge_in_flight_, "hier merge already in flight");
    owner_.merge_in_flight_ = true;
    trace(owner_.trace_, event_kind::shuffle_begin, period_index);

    for (evicted_block& block : evicted) {
      expects(block.id < owner_.config_.block_count,
              "evicted id out of range");
      invariant(owner_.index_.level_of(block.id) == 0,
                "evicted block the index says is on storage");
      stage(block.id, std::move(block.payload));
      order_.push_back(block.id);
    }

    // Merge target: level 1 by default, one level deeper for every
    // power of the fan-out dividing the period ordinal — the classic
    // hierarchical cascade, a function of the period index only. If an
    // off-schedule hot set would not fit, escalate minimally.
    const std::uint32_t level_total = owner_.level_count();
    const std::uint64_t fanout = owner_.config_.hier_fanout;
    std::uint64_t ordinal = period_index + 1;
    std::uint32_t target = 1;
    while (target < level_total && ordinal % fanout == 0) {
      ++target;
      ordinal /= fanout;
    }
    std::uint64_t incoming = order_.size();
    for (std::uint32_t l = 1; l <= target; ++l) {
      incoming += owner_.levels_[l - 1].active ? owner_.levels_[l - 1].live
                                               : 0;
    }
    while (incoming > owner_.levels_[target - 1].real_capacity &&
           target < level_total) {
      ++target;
      incoming += owner_.levels_[target - 1].active
                      ? owner_.levels_[target - 1].live
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

  // Capacity is guaranteed, so nothing is ever kept.
  void on_finish() override {
    owner_.merge_in_flight_ = false;
    ++owner_.stats_.partitions_shuffled;
  }

  /// Streams the next chunk of the current source level into the
  /// staging area; deactivates the level once drained.
  void read_unit(horam::shuffle_cost& cost) {
    const std::size_t idx = sources_[src_index_];
    hier_backend::level_state& lvl = owner_.levels_[idx];
    const std::uint64_t n =
        std::min(kChunkSlots, lvl.slot_count - read_cursor_);
    const std::size_t rec = owner_.codec_.record_bytes();
    owner_.level_buf_.resize(n * rec);
    trace(owner_.trace_, event_kind::storage_read_sweep,
          lvl.base + read_cursor_, n);
    {
      sim::trip_scope round_trip(&owner_.store_->device());
      cost.io_read += owner_.store_->read_range(lvl.base + read_cursor_, n,
                                                owner_.level_buf_);
    }
    for (std::uint64_t j = 0; j < n; ++j) {
      const std::uint64_t slot = read_cursor_ + j;
      const block_id id = owner_.codec_.decode(
          std::span<const std::uint8_t>(owner_.level_buf_)
              .subspan(j * rec, rec),
          owner_.payload_scratch_);
      if (id == dummy_block_id || owner_.index_.level_of(id) != idx + 1 ||
          owner_.index_.slot_of(id) != slot) {
        continue;  // dummy or stale copy
      }
      stage(id, std::vector<std::uint8_t>(owner_.payload_scratch_.begin(),
                                          owner_.payload_scratch_.end()));
      order_.push_back(id);
      owner_.index_.clear(id);
      ++owner_.cached_count_;
      invariant(lvl.live > 0, "level live count underflow");
      --lvl.live;
    }
    cost.cpu += owner_.cpu_.crypto_time(n, rec);
    read_cursor_ += n;
    if (read_cursor_ == lvl.slot_count) {
      invariant(lvl.live == 0, "merge drained a level but blocks remain");
      lvl.active = false;
      lvl.probes = 0;
      lvl.dummies_used = 0;
      read_cursor_ = 0;
      ++src_index_;
      if (src_index_ == sources_.size()) {
        // Activate the target in the same indivisible unit so online
        // probes never see a gap with every merged level inactive.
        begin_write();
      }
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
    lvl.probes = 0;
    lvl.dummies_used = 0;
  }

  /// Composes and writes the next chunk of the target, then flips the
  /// written blocks from the staging area into the index.
  void write_unit(horam::shuffle_cost& cost) {
    hier_backend::level_state& lvl = owner_.levels_[target_ - 1];
    const std::uint64_t n =
        std::min(kChunkSlots, lvl.slot_count - write_cursor_);
    const std::size_t rec = owner_.codec_.record_bytes();
    owner_.level_buf_.resize(n * rec);
    for (std::uint64_t j = 0; j < n; ++j) {
      const std::uint64_t slot = write_cursor_ + j;
      const std::uint64_t rank = lvl.prp.inverse(slot);
      const std::span<std::uint8_t> out =
          std::span(owner_.level_buf_).subspan(j * rec, rec);
      if (rank < order_.size()) {
        owner_.codec_.encode(order_[rank], payload_of(order_[rank]), out);
      } else {
        owner_.codec_.encode_dummy(out);
      }
    }
    trace(owner_.trace_, event_kind::storage_write_sweep,
          lvl.base + write_cursor_, n);
    {
      sim::trip_scope round_trip(&owner_.store_->device());
      cost.io_write += owner_.store_->write_range(lvl.base + write_cursor_,
                                                  n, owner_.level_buf_);
    }
    for (std::uint64_t j = 0; j < n; ++j) {
      const std::uint64_t slot = write_cursor_ + j;
      const std::uint64_t rank = lvl.prp.inverse(slot);
      if (rank >= order_.size()) {
        continue;
      }
      const block_id id = order_[rank];
      owner_.index_.place(id, target_, slot);
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
  std::vector<block_id> order_;  // rank assignment of the new epoch
  std::vector<std::size_t> sources_;
  std::uint32_t target_ = 1;
  std::size_t src_index_ = 0;
  std::uint64_t read_cursor_ = 0;
  std::uint64_t write_cursor_ = 0;
  std::uint64_t placed_ = 0;
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
