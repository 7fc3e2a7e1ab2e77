// Keyed format-preserving permutation over [0, domain).
//
// The hier backend needs a fresh random-looking bijection between ranks
// and level slots at every rebuild, recomputable in both directions from
// a small secret: forward maps the next unused dummy rank to its slot
// during online probes, inverse maps a slot back to its rank while the
// rebuild streams a level out in slot order. A balanced Feistel network
// over the smallest even-bit power of two covering the domain gives both
// directions; cycle-walking restricts it to [0, domain). The round
// function is the codebase's keyed PRF (SipHash-2-4).
//
// The rebuild streams whole chunks of slots, so inverse_many() maps a
// run of consecutive slots at once: it runs the six rounds of a group
// of walkers in lockstep, each round one lane-parallel siphash24_many()
// call over 8-byte messages, and cycle-walks only the walkers still
// outside the domain, topping the group up with the next slots as
// walkers finish; one slot is a run of one. forward() serves the
// online probes one rank at a time.
#ifndef HORAM_ORAM_HIER_FEISTEL_PRP_H
#define HORAM_ORAM_HIER_FEISTEL_PRP_H

#include <array>
#include <cstdint>
#include <span>

#include "crypto/siphash.h"
#include "util/contracts.h"
#include "util/math.h"

namespace horam::oram {

/// Invertible keyed permutation of [0, domain).
class feistel_prp {
 public:
  /// An empty permutation (domain 1, identity); assign to rekey.
  feistel_prp() = default;

  feistel_prp(std::uint64_t domain, const crypto::siphash_key& key)
      : domain_(domain), key_(key) {
    expects(domain > 0, "permutation domain must be non-empty");
    unsigned bits = domain == 1 ? 1 : util::ceil_log2(domain);
    bits += bits % 2;  // balanced halves
    if (bits == 0) {
      bits = 2;
    }
    half_bits_ = bits / 2;
  }

  [[nodiscard]] std::uint64_t domain() const noexcept { return domain_; }

  /// rank -> slot.
  [[nodiscard]] std::uint64_t forward(std::uint64_t rank) const {
    expects(rank < domain_, "rank outside the permutation domain");
    // Cycle-walk: the Feistel pass permutes [0, 2^(2h)); iterating from
    // inside [0, domain) must return there (the cycle revisits rank).
    std::uint64_t v = rank;
    do {
      v = permute_pow2(v);
    } while (v >= domain_);
    return v;
  }

  /// slot -> rank: out[j] is the rank forward() maps to slot
  /// first_slot + j, for every j; the slots are walked in lockstep
  /// groups.
  void inverse_many(std::uint64_t first_slot,
                    std::span<std::uint64_t> out) const {
    expects(first_slot <= domain_ && out.size() <= domain_ - first_slot,
            "slots outside the permutation domain");
    const std::uint64_t mask = (std::uint64_t{1} << half_bits_) - 1;
    std::array<std::uint64_t, kGroup> left{};
    std::array<std::uint64_t, kGroup> right{};
    std::array<std::size_t, kGroup> index{};  // walker -> position in out
    std::array<std::array<std::uint8_t, 8>, kGroup> messages{};
    std::array<const std::uint8_t*, kGroup> message_ptrs{};
    std::array<std::uint64_t, kGroup> tags{};
    for (std::size_t w = 0; w < kGroup; ++w) {
      message_ptrs[w] = messages[w].data();
    }

    std::size_t next = 0;  // next position of out to start walking
    std::size_t live = 0;  // walkers in the group
    while (live > 0 || next < out.size()) {
      for (; live < kGroup && next < out.size(); ++live, ++next) {
        const std::uint64_t v = first_slot + next;
        left[live] = v >> half_bits_;
        right[live] = v & mask;
        index[live] = next;
      }
      // One Feistel pass undone for every walker, round by round.
      for (unsigned round = kRounds; round-- > 0;) {
        for (std::size_t w = 0; w < live; ++w) {
          const std::uint64_t message =
              (static_cast<std::uint64_t>(round) << 56) ^ left[w];
          for (std::size_t b = 0; b < 8; ++b) {
            messages[w][b] = static_cast<std::uint8_t>(message >> (8 * b));
          }
        }
        crypto::siphash24_many(
            key_, std::span<const std::uint8_t* const>(message_ptrs.data(),
                                                       live),
            8, std::span<std::uint64_t>(tags.data(), live));
        for (std::size_t w = 0; w < live; ++w) {
          const std::uint64_t prev = right[w] ^ (tags[w] & mask);
          right[w] = left[w];
          left[w] = prev;
        }
      }
      // Walkers back inside the domain are done; the rest walk on.
      std::size_t still = 0;
      for (std::size_t w = 0; w < live; ++w) {
        const std::uint64_t v = (left[w] << half_bits_) | right[w];
        if (v < domain_) {
          out[index[w]] = v;
        } else {
          left[still] = v >> half_bits_;
          right[still] = v & mask;
          index[still] = index[w];
          ++still;
        }
      }
      live = still;
    }
  }

 private:
  static constexpr unsigned kRounds = 6;
  /// Walkers stepped in lockstep by inverse_many().
  static constexpr std::size_t kGroup = 64;

  [[nodiscard]] std::uint64_t round_value(unsigned round,
                                          std::uint64_t half) const {
    // Halves are at most 32 bits, so tagging the round in the top byte
    // never collides with the data. siphash24_u64() hashes the word's
    // little-endian bytes, as inverse_many() does.
    return crypto::siphash24_u64(
        key_, (static_cast<std::uint64_t>(round) << 56) ^ half);
  }

  [[nodiscard]] std::uint64_t permute_pow2(std::uint64_t v) const {
    const std::uint64_t mask = (std::uint64_t{1} << half_bits_) - 1;
    std::uint64_t left = v >> half_bits_;
    std::uint64_t right = v & mask;
    for (unsigned round = 0; round < kRounds; ++round) {
      const std::uint64_t next = left ^ (round_value(round, right) & mask);
      left = right;
      right = next;
    }
    return (left << half_bits_) | right;
  }

  std::uint64_t domain_ = 1;
  unsigned half_bits_ = 1;
  crypto::siphash_key key_{};
};

}  // namespace horam::oram

#endif  // HORAM_ORAM_HIER_FEISTEL_PRP_H
