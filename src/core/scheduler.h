// Secure request scheduler (§4.2).
//
// Every cycle has a fixed observable shape: exactly one storage load
// plus c in-memory path accesses, where c is set by the active stage.
// The scheduler scans the first d = prefetch_factor * c ROB entries
// ("I/O pre-fetching") for the best real fill — one miss to load, up to
// c resident requests to service — and pads the remainder with dummies.
// The miss needs no path access: the controller serves it from the
// load's own fill at the end of the cycle, so a cycle retires up to
// c + 1 requests. The hit/miss status of individual requests is
// therefore hidden: the bus pattern is the same whatever the mix
// (§4.4.2).
#ifndef HORAM_CORE_SCHEDULER_H
#define HORAM_CORE_SCHEDULER_H

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/config.h"
#include "core/rob_table.h"
#include "oram/common/types.h"

namespace horam {

/// The scheduler's decision for one cycle.
struct cycle_plan {
  /// Stage group size this cycle.
  std::uint32_t c = 1;
  /// ROB position whose block should be loaded from storage; the
  /// request is served from that load's fill.
  std::optional<std::size_t> miss_position;
  /// ROB positions to service with in-memory accesses (size <= c).
  std::vector<std::size_t> hit_positions;
  /// Dummy in-memory accesses needed to pad the group to c.
  std::uint32_t dummy_hits = 0;
  /// True when no miss was found in the window (dummy storage load).
  [[nodiscard]] bool dummy_miss() const noexcept {
    return !miss_position.has_value();
  }
};

/// Stage-driven group planner.
class scheduler {
 public:
  scheduler(std::vector<scheduler_stage> stages, std::uint64_t period_loads,
            std::uint32_t prefetch_factor);

  /// Group size for the stage active after `loads_done` period loads.
  [[nodiscard]] std::uint32_t group_size(std::uint64_t loads_done) const;

  /// Prefetch window d for the active stage (always > c).
  [[nodiscard]] std::uint64_t window(std::uint64_t loads_done) const;

  /// How many requests an incremental pump (tenant_scheduler /
  /// horam::service) should hand the controller per scheduling round:
  /// enough to keep the ROB ahead of the prefetch window (mirrors the
  /// controller's own refill target) while staying small enough that
  /// cross-tenant interleaving happens at request granularity.
  [[nodiscard]] std::uint64_t round_budget(std::uint64_t loads_done) const;
  /// window() at group size `c`: d = factor·c + 1, so d > c.
  [[nodiscard]] static std::uint64_t window_at(std::uint32_t c,
                                               std::uint32_t factor) {
    return std::uint64_t{factor} * c + 1;
  }
  /// round_budget() at group size `c`: 2·window_at(c) + 4.
  [[nodiscard]] static std::uint64_t budget_at(std::uint32_t c,
                                               std::uint32_t factor) {
    return 2 * window_at(c, factor) + 4;
  }

  /// Plans one cycle. `resident(id)` tells whether a block can be
  /// serviced from memory; non-resident blocks are miss candidates.
  [[nodiscard]] cycle_plan plan(
      const rob_table& rob, std::uint64_t loads_done,
      const std::function<oram::block_id(std::uint64_t)>& id_of_request,
      const std::function<bool(oram::block_id)>& resident) const;

 private:
  std::vector<scheduler_stage> stages_;
  /// Stage boundaries in period-load units (cumulative).
  std::vector<std::uint64_t> boundaries_;
  std::uint32_t prefetch_factor_;
};

}  // namespace horam

#endif  // HORAM_CORE_SCHEDULER_H
