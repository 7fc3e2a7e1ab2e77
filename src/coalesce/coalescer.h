// Oblivious request coalescing: a round-scoped, trusted-memory dedup /
// fan-out table over the engine's padded rounds.
//
// At millions-of-users scale the request stream is heavily skewed, so
// many concurrent logical requests hit the same hot blocks — and each
// one would pay a full physical ORAM access. The round_table merges the
// same-block requests of one engine round (across sessions and tenants)
// into a single physical access per block and remembers how to fan the
// result back out to every waiting completion:
//
//   - read + read            → one access; both readers get its payload
//   - read after write       → the read is served from the write's data
//                              captured at table-build time (forwarding)
//   - write after write      → last writer (in scheduler pop order) wins;
//                              one combined physical write
//   - read(s) before a write → the physical access becomes a
//                              fetch-before-write (read-modify-write):
//                              one access returns the pre-write payload
//                              for the early readers AND applies the
//                              final write
//
// Semantics are exactly those of executing the round's members serially
// in scheduler order — the table only removes redundant device work.
//
// Privacy: the table lives in trusted memory and never touches the bus.
// Coalescing only changes how many *real* slots a round consumes; the
// engine tops every shard up to its public round_cap() with dummies
// either way, so the per-shard bus shape is unchanged by construction
// (the KS/chi-square audits in tests/coalesce_test.cpp assert it).
//
// Capacity discipline: admits() implements *prefix* coalescing — the
// round consumes the longest prefix of a shard's queue whose distinct
// block count fits the round cap, and stops at the first entry that
// would open one group too many. Skipping past it to merge later
// same-block entries would complete a later request ahead of an earlier
// one from the same tenant; the prefix rule keeps per-tenant completion
// order intact.
//
// Completion order is per tenant (completion_order): a member completes
// at the later of its own group's time and the time of the previous
// member of its request::user in admission order. Each tenant's
// completions stay FIFO, and no tenant waits on another tenant's later
// miss.
#ifndef HORAM_COALESCE_COALESCER_H
#define HORAM_COALESCE_COALESCER_H

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/controller.h"
#include "oram/common/types.h"
#include "sim/time.h"

namespace horam::coalesce {

/// How one logical member of a group receives its completion.
enum class member_source : std::uint8_t {
  /// Takes the physical access's result (reads merged into the access,
  /// including readers a later write promoted to fetch-before-write).
  physical,
  /// Read admitted after a write in the same group: served from that
  /// write's payload, captured into forward_data at table-build time.
  forwarded,
  /// A write whose data was combined into the physical request (it may
  /// have been overwritten by a later one); returns no payload.
  write,
};

/// One logical request riding a group, identified by the caller's tag
/// (the engine's submit token).
struct member {
  std::uint64_t tag = 0;
  member_source source = member_source::physical;
  /// The submitting tenant (request::user): completion order is FIFO
  /// per user.
  std::uint32_t user = 0;
  /// Position in the round's admission (scheduler pop) order, 0 for
  /// the round's first member; indexes completion_order::times().
  std::size_t admission = 0;
  /// Payload a forwarded read returns (padded to the block payload size
  /// at fan-out).
  std::vector<std::uint8_t> forward_data;
};

/// One coalescing group: the single physical request the round executes
/// for a block, plus every logical member it retires, in scheduler pop
/// order.
struct group {
  request physical;
  std::vector<member> members;
};

/// The per-round coalescing table. Built by the engine coordinator
/// before lane fan-out (so nothing here is ever shared across threads),
/// consumed via take().
class round_table {
 public:
  /// `capacity` bounds the number of distinct blocks (= physical
  /// accesses = groups) the table admits; 0 = unbounded (the open-loop
  /// batch path, which sizes its own padding afterwards).
  explicit round_table(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Whether add() would accept a request for `id` — always true for a
  /// block that already has a group (merging consumes no new slot), and
  /// true for a fresh block while groups() < capacity.
  [[nodiscard]] bool admits(oram::block_id id) const {
    return capacity_ == 0 || groups_.size() < capacity_ ||
           index_.contains(id);
  }

  /// Admits one request in scheduler pop order. Requires admits(req.id).
  void add(std::uint64_t tag, request&& req);

  /// Physical accesses this round will issue (distinct blocks).
  [[nodiscard]] std::size_t groups() const noexcept {
    return groups_.size();
  }
  /// Logical requests admitted.
  [[nodiscard]] std::size_t members() const noexcept { return members_; }
  /// Logical requests absorbed without a physical access of their own.
  [[nodiscard]] std::size_t merged() const noexcept {
    return members_ - groups_.size();
  }

  /// Surrenders the groups in first-appearance (= physical batch)
  /// order; the table is empty afterwards.
  [[nodiscard]] std::vector<group> take();

 private:
  std::size_t capacity_;
  /// Groups in first-appearance order (this is the batch order the
  /// physical requests execute in).
  std::vector<group> groups_;
  /// Block id -> index into groups_.
  std::unordered_map<oram::block_id, std::size_t> index_;
  std::size_t members_ = 0;
};

/// Per-tenant completion times of one round's members. Member m
/// completes at the later of its own group's time and the time of the
/// previous member of the same user in admission order: each user's
/// completions are FIFO, and a user whose group completed early is not
/// held behind another user's later miss. When every member has one
/// user this is the running maximum of group times in admission order,
/// the in-order retirement of the whole round. The scratch is kept
/// between rounds, so a round allocates nothing once the largest round
/// has been seen.
class completion_order {
 public:
  /// Computes every member's time from `groups` (in batch order) and
  /// their completion times `group_times` (index-aligned).
  void assign(std::span<const group> groups,
              std::span<const sim::sim_time> group_times);
  /// The members' completion times, indexed by member::admission.
  [[nodiscard]] std::span<const sim::sim_time> times() const noexcept {
    return times_;
  }

 private:
  struct entry {
    std::uint32_t user;
    std::size_t admission;
    sim::sim_time group_time;
  };
  std::vector<entry> entries_;
  std::vector<sim::sim_time> times_;
};

/// Fans one physical result out to every member of `g`, invoking
/// `deliver(tag, result)` once per member in scheduler pop order. Every
/// member completes at `member_times[admission]` (completion_order's
/// times, or the group times themselves when each group is one member
/// admitted in batch order). The first member (the one that opened the
/// group) inherits the physical hit flag; absorbed members report
/// hit = true — they were served from the round table in trusted
/// memory. `payload_bytes` pads forwarded payloads to the block size,
/// matching what a physical read returns.
void fan_out(
    group&& g, request_result&& physical,
    std::span<const sim::sim_time> member_times, std::size_t payload_bytes,
    const std::function<void(std::uint64_t tag, request_result&&)>&
        deliver);

}  // namespace horam::coalesce

#endif  // HORAM_COALESCE_COALESCER_H
