// Square-root ORAM as an H-ORAM backend (oram_backend adapter).
//
// The layout is the classic Goldreich-Ostrovsky arrangement the paper
// recaps in §2.1.3: N real blocks plus D dummies live permuted in one
// flat array. Fronted by the H-ORAM controller, the controller's memory
// tree plays the role of the scheme's shelter:
//   * a real miss reads the target's permuted slot (uniform, because the
//     layout is a fresh random permutation);
//   * a dummy load consumes the next unused dummy slot — exactly the
//     read a classic sqrt ORAM issues on a shelter hit — so every cycle
//     touches one fresh uniformly distributed slot either way;
//   * the shuffle period folds the evicted hot set back into the array
//     and re-permutes the whole thing with the Melbourne shuffle — the
//     "several passes over the dataset" machinery whose cost H-ORAM's
//     partitioned backend avoids. Plugging both behind one interface
//     makes that comparison a one-line config change.
//
// Dummy capacity is sized to the controller's access period (n/2 loads),
// so dummies never run out mid-period.
#ifndef HORAM_ORAM_SQRT_SQRT_BACKEND_H
#define HORAM_ORAM_SQRT_SQRT_BACKEND_H

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/config.h"
#include "core/oram_backend.h"
#include "oram/common/access_trace.h"
#include "oram/common/block_codec.h"
#include "shuffle/melbourne.h"
#include "sim/cpu_model.h"
#include "sim/device.h"
#include "storage/block_store.h"
#include "util/rng.h"

namespace horam::oram {

class sqrt_backend final : public horam::oram_backend {
 public:
  /// Builds the initial permuted array holding every block in
  /// [0, config.block_count); `filler` provides initial payloads (null =
  /// zero-filled). Device statistics are reset afterwards.
  sqrt_backend(const horam_config& config, sim::block_device& device,
               const sim::cpu_model& cpu, util::random_source& rng,
               access_trace* trace,
               const std::function<void(block_id,
                                        std::span<std::uint8_t>)>* filler);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "sqrt";
  }
  [[nodiscard]] bool in_storage(block_id id) const override;
  load_result load_block(block_id id) override;
  load_result dummy_load() override;
  /// Shuffle period as a one-unit job (the Melbourne passes expose no
  /// slices): the hot set stays staged until the single step() runs
  /// reshuffle(). Every block keeps a slot, so nothing is handed back.
  [[nodiscard]] std::unique_ptr<horam::shuffle_job> begin_shuffle(
      std::vector<evicted_block> evicted,
      std::uint64_t period_index) override;
  [[nodiscard]] const horam::backend_stats& stats() const noexcept override {
    return stats_;
  }
  [[nodiscard]] std::uint64_t physical_bytes() const override;
  [[nodiscard]] std::uint64_t control_memory_bytes() const override;
  void check_consistency() const override;

  [[nodiscard]] std::uint64_t total_slots() const noexcept {
    return config_.block_count + dummy_count_;
  }
  [[nodiscard]] std::uint64_t dummy_count() const noexcept {
    return dummy_count_;
  }

 private:
  class reshuffle_job;

  [[nodiscard]] const storage::block_store& active() const noexcept {
    return active_is_a_ ? *array_a_ : *array_b_;
  }
  [[nodiscard]] storage::block_store& active() noexcept {
    return active_is_a_ ? *array_a_ : *array_b_;
  }
  /// Reads + decodes one physical slot of the active array.
  cost_split read_slot(std::uint64_t slot, block_id& decoded_out);
  /// Folds `evicted` into the array and Melbourne-reshuffles it: the
  /// whole period, run by the job's one step.
  horam::shuffle_cost reshuffle(const std::vector<evicted_block>& evicted,
                                std::uint64_t period_index);

  horam_config config_;
  block_codec codec_;
  const sim::cpu_model& cpu_;
  util::random_source& rng_;
  access_trace* trace_;

  std::uint64_t dummy_count_ = 0;
  shuffle::melbourne_config reshuffle_{};

  // Ping-pong data regions plus Melbourne scratch, on one device.
  std::unique_ptr<storage::block_store> array_a_;
  std::unique_ptr<storage::block_store> array_b_;
  std::unique_ptr<storage::block_store> scratch_;
  bool active_is_a_ = true;

  /// slot_of_[v] = physical slot of virtual index v (v < N: real block
  /// v; v >= N: dummy #(v - N)). Trusted control-layer state.
  std::vector<std::uint64_t> slot_of_;
  /// cached_[id] != 0 iff the live copy moved to the controller's cache.
  std::vector<std::uint8_t> cached_;
  std::uint64_t used_dummies_ = 0;

  horam::backend_stats stats_;
  std::vector<std::uint8_t> record_scratch_;
  std::vector<std::uint8_t> payload_scratch_;
};

}  // namespace horam::oram

#endif  // HORAM_ORAM_SQRT_SQRT_BACKEND_H
