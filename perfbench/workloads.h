// The benchmark's workloads: each pairs a request stream with the
// machine configuration it runs on, and knows how to build that machine
// and how long its steady-state window must be.
#ifndef HORAM_PERFBENCH_WORKLOADS_H
#define HORAM_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "horam.h"

namespace horam::perfbench {

/// Application payload carried by every block (sealed on the device).
inline constexpr std::size_t kPayloadBytes = 256;
/// Block size the device timing model charges per block.
inline constexpr std::uint64_t kLogicalBlockBytes = 1024;

enum class stream_shape : std::uint8_t { hotspot, zipfian, uniform };

struct workload_spec {
  std::string_view name;
  stream_shape stream = stream_shape::uniform;
  double write_fraction = 0.0;
  /// Closed loop: every tenant keeps `outstanding` tickets in flight.
  std::uint32_t tenants = 1;
  std::uint32_t outstanding = 1;

  std::uint64_t blocks = 0;
  double cache_ratio = 0.0;
  backend_kind backend = backend_kind::partitioned;
  std::uint32_t shards = 1;
  /// Worker threads of the threaded runtime; 0 keeps the sim runtime.
  std::uint32_t threads = 0;
  bool coalescing = false;
  shuffle_policy shuffle = shuffle_policy::foreground;
  sim::sim_time slice_budget = 0;
  std::string_view storage_profile;

  /// Completions before the measured window (excluded by reset_stats).
  std::uint64_t warmup_ops = 0;
  /// Measured completions per second of --seconds (a window size, not
  /// a rate the host must reach).
  std::uint64_t ops_per_second = 0;
};

/// Every workload, in presentation order.
[[nodiscard]] std::span<const workload_spec> all_workloads();
[[nodiscard]] const workload_spec* find_workload(std::string_view name);

/// Measured completions of a run lasting `seconds`.
[[nodiscard]] std::uint64_t measured_ops(const workload_spec& w, double seconds);

/// The request stream of a run, seeded by `seed`: ops and ids from the
/// library's generators, except that the Zipfian stream deals its
/// popularity ranks over `eng`'s shards. Write payloads are filled in
/// by the closed loop, which versions them.
[[nodiscard]] std::vector<request> make_stream(const workload_spec& w,
                                               std::uint64_t seed,
                                               const engine& eng,
                                               std::uint64_t count);

/// The builder of the workload's service. `capture`, when given,
/// receives the fully derived horam_config at build time.
[[nodiscard]] client_builder make_builder(
    const workload_spec& w, std::uint64_t seed, bool seal,
    horam_config* capture = nullptr);

/// Payload encoding of the correctness oracle: bytes [0, 8) hold the
/// block id, [8, 16) the write version (0 = the initial contents), and
/// the rest a pattern derived from both.
void encode_payload(oram::block_id id, std::uint64_t version,
                    std::span<std::uint8_t> out);
/// Decodes a payload written by encode_payload; nullopt if the pattern
/// does not match the (id, version) header or the size is wrong.
struct decoded_payload {
  oram::block_id id = 0;
  std::uint64_t version = 0;
};
[[nodiscard]] std::optional<decoded_payload> decode_payload(
    std::span<const std::uint8_t> payload);

}  // namespace horam::perfbench

#endif  // HORAM_PERFBENCH_WORKLOADS_H
