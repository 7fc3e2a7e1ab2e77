// Common types for the bench-side shuffle algorithms.
//
// The paper's shuffle cast (§3.2, §4.3). No backend runs any of these:
// the tree evict streams every bucket in a fixed order, and the
// group-and-partition shuffle permutes each partition in trusted
// memory, where Fisher-Yates suffices. They live next to the benches
// (compiled into horam_bench_common, not the horam library) so the
// comparisons that motivate the partitioned design stay measurable:
//   * Melbourne shuffle — the external-memory oblivious shuffle the
//     paper cites as the O(4N)-I/O cost it wants to avoid;
//     ablation_shuffle_algorithms' "melbourne (external)" row is that
//     number.
//   * Fisher-Yates — the non-oblivious in-memory shuffle, safe only
//     inside the trusted control layer. util::random_permutation, which
//     draws the in-partition permutations of the partitioned storage
//     layer, is the same algorithm.
//   * bitonic oblivious shuffle, Waksman permutation network and
//     CacheShuffle — the in-memory oblivious alternatives, compared by
//     ablation_shuffle_algorithms and micro_substrates.
//
// Permutation convention: pi[i] is the NEW position of element i
// (destination mapping); apply_permutation writes out[pi[i]] = in[i].
#ifndef HORAM_SHUFFLE_SHUFFLE_H
#define HORAM_SHUFFLE_SHUFFLE_H

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "util/rng.h"

namespace horam::shuffle {

/// Destination-mapping permutation: pi[i] = new position of element i.
using permutation = std::vector<std::uint64_t>;

/// True iff `pi` is a bijection on {0, ..., pi.size()-1}.
[[nodiscard]] bool is_permutation(const permutation& pi);

/// Inverse permutation: inv[pi[i]] = i.
[[nodiscard]] permutation invert(const permutation& pi);

/// Rearranges `records` (n fixed-size records) so that record i moves to
/// position pi[i]. Not oblivious; used to materialise results.
void apply_permutation(std::span<std::uint8_t> records,
                       std::size_t record_bytes, const permutation& pi);

/// Work counters reported by the shuffle algorithms, convertible to
/// virtual time by the caller's cpu/device models.
struct shuffle_stats {
  /// Compare-exchange or switch operations executed (network shuffles).
  std::uint64_t touch_ops = 0;
  /// Record bytes moved through the algorithm.
  std::uint64_t bytes_moved = 0;
  /// Retries due to bucket overflow (randomised bucket shuffles).
  std::uint64_t retries = 0;

  void reset() noexcept { *this = shuffle_stats{}; }
};

/// Observer invoked for every index pair a network shuffle touches, in
/// order. Obliviousness tests assert this sequence depends only on n.
using touch_observer = std::function<void(std::size_t, std::size_t)>;

}  // namespace horam::shuffle

#endif  // HORAM_SHUFFLE_SHUFFLE_H
