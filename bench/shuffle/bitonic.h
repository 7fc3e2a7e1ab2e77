// Bitonic-network oblivious shuffle.
//
// Tags every record with a fresh random 64-bit value and sorts by tag
// through Batcher's bitonic network. The sequence of index pairs the
// network touches is a pure function of n — an adversary watching memory
// learns nothing about the realised permutation. This is the oblivious
// shuffle the paper names for the tree evict (§4.3.1).
//
// Cost: O(n log^2 n) compare-exchanges; every compare-exchange touches
// both records, so bytes_moved = 2 * record_bytes per operation.
#ifndef HORAM_SHUFFLE_BITONIC_H
#define HORAM_SHUFFLE_BITONIC_H

#include "shuffle/shuffle.h"

namespace horam::shuffle {

/// Obliviously shuffles `records` in place; returns the permutation
/// applied. If `observer` is set it receives every compare-exchange
/// index pair in execution order (for obliviousness tests).
permutation bitonic_shuffle(util::random_source& rng,
                            std::span<std::uint8_t> records,
                            std::size_t record_bytes,
                            shuffle_stats* stats = nullptr,
                            const touch_observer& observer = {});

/// The deterministic number of compare-exchanges the network executes
/// for n records (after internal padding to a power of two).
[[nodiscard]] std::uint64_t bitonic_compare_exchange_count(std::uint64_t n);

/// Generic bitonic sort on an index-addressable sequence: sorts
/// {0,...,n-1} positions with `less(a_pos, b_pos)` and `swap(a_pos,
/// b_pos)` callbacks. Exposed so tests can validate the network shape and
/// other layers can sort obliviously.
void bitonic_network(std::uint64_t n,
                     const std::function<bool(std::size_t, std::size_t)>& less,
                     const std::function<void(std::size_t, std::size_t)>& swap,
                     const touch_observer& observer = {});

}  // namespace horam::shuffle

#endif  // HORAM_SHUFFLE_BITONIC_H
