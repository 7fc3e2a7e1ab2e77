// Operation statistics collected by the simulated devices, plus the
// streaming latency histogram the tail-latency accounting is built
// on.
#ifndef HORAM_SIM_STATS_H
#define HORAM_SIM_STATS_H

#include <array>
#include <bit>
#include <cstdint>

#include "sim/time.h"

namespace horam::sim {

/// Counters accumulated by a block device. "Sequential" means the
/// operation started where the previous one ended (no repositioning).
struct io_stats {
  std::uint64_t read_ops = 0;
  std::uint64_t write_ops = 0;
  std::uint64_t sequential_read_ops = 0;
  std::uint64_t sequential_write_ops = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  /// Dependency-aware request/response exchanges with the device: an
  /// operation issued outside a trip scope counts one, a trip scope
  /// (block_device::begin_trip/end_trip) folds every operation it
  /// encloses into exactly one — so a batched scatter read is 1 trip
  /// while a k-level dependent map walk is k. The metric that dominates
  /// once per-operation latency (an NVMe queue, a network RTT), not
  /// bandwidth, is the bottleneck.
  std::uint64_t round_trips = 0;
  sim_time busy_time = 0;

  [[nodiscard]] std::uint64_t total_ops() const noexcept {
    return read_ops + write_ops;
  }
  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return bytes_read + bytes_written;
  }

  /// Element-wise sum, for totals over several devices (shard lanes).
  io_stats& operator+=(const io_stats& other) noexcept {
    read_ops += other.read_ops;
    write_ops += other.write_ops;
    sequential_read_ops += other.sequential_read_ops;
    sequential_write_ops += other.sequential_write_ops;
    bytes_read += other.bytes_read;
    bytes_written += other.bytes_written;
    round_trips += other.round_trips;
    busy_time += other.busy_time;
    return *this;
  }

  void reset() noexcept { *this = io_stats{}; }
};

/// Streaming log-bucketed latency histogram (HDR-style): values below
/// 16 ns are exact, larger ones land in one of 8 sub-buckets per
/// power-of-two octave (≤ 12.5% relative error). record() is O(1) and
/// allocation-free, histograms merge with operator+= (multi-shard
/// aggregation), and quantile() reports a conservative upper bound of
/// the bucket holding the requested sample — the shape the p50/p95/p99
/// tail-latency accounting needs.
class latency_histogram {
 public:
  static constexpr std::size_t kBucketCount = 8 + 61 * 8;

  void record(sim_time value) noexcept {
    const std::uint64_t v =
        value < 0 ? 0 : static_cast<std::uint64_t>(value);
    ++buckets_[bucket_of(v)];
    ++count_;
    max_ = value > max_ ? value : max_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] sim_time max() const noexcept { return max_; }

  /// Inclusive quantile for q in (0, 1]: the upper bound of the bucket
  /// holding the ceil(q * count)-th smallest sample, clamped to max().
  /// 0 when the histogram is empty.
  [[nodiscard]] sim_time quantile(double q) const noexcept {
    if (count_ == 0) {
      return 0;
    }
    const double clamped = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
    auto target = static_cast<std::uint64_t>(
        clamped * static_cast<double>(count_) + 0.9999999);
    if (target == 0) {
      target = 1;
    }
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      seen += buckets_[i];
      if (seen >= target) {
        const sim_time upper = bucket_upper(i);
        return upper < max_ ? upper : max_;
      }
    }
    return max_;
  }

  [[nodiscard]] sim_time p50() const noexcept { return quantile(0.50); }
  [[nodiscard]] sim_time p95() const noexcept { return quantile(0.95); }
  [[nodiscard]] sim_time p99() const noexcept { return quantile(0.99); }

  latency_histogram& operator+=(const latency_histogram& other) noexcept {
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
    max_ = other.max_ > max_ ? other.max_ : max_;
    return *this;
  }

  [[nodiscard]] bool operator==(const latency_histogram&) const = default;

  void reset() noexcept { *this = latency_histogram{}; }

 private:
  /// Buckets: [0, 16) exact, then (octave, sub-bucket) pairs where the
  /// sub-bucket is the 3 bits after the leading one.
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) noexcept {
    if (v < 16) {
      return static_cast<std::size_t>(v);
    }
    const int msb = 63 - std::countl_zero(v);
    const std::uint64_t sub = (v >> (msb - 3)) & 7;
    return 8 + static_cast<std::size_t>(msb - 3) * 8 +
           static_cast<std::size_t>(sub);
  }

  /// Largest value the bucket covers (its inclusive upper edge).
  [[nodiscard]] static sim_time bucket_upper(std::size_t index) noexcept {
    if (index < 16) {
      return static_cast<sim_time>(index);
    }
    const std::uint64_t msb = (index - 8) / 8 + 3;
    const std::uint64_t sub = (index - 8) % 8;
    return static_cast<sim_time>(((8 + sub + 1) << (msb - 3)) - 1);
  }

  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t count_ = 0;
  sim_time max_ = 0;
};

}  // namespace horam::sim

#endif  // HORAM_SIM_STATS_H
