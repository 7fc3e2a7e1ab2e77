// Shared test machinery: one reproducible seed for every randomized
// test RNG, whole-record controller_stats comparisons, the load count
// of every period in a bus trace, and the keys of trees built directly.
//
// All randomized tests derive their generators from a single base
// seed, logged once per test binary. By default the base seed is a
// fixed constant, so CI runs are deterministic; exporting
// HORAM_TEST_SEED=<n> (any strtoull format) reruns the whole binary
// under a different seed — which is how a statistical-test failure
// seen in a CI log is reproduced locally: copy the logged value.
#ifndef HORAM_TESTS_TEST_SUPPORT_H
#define HORAM_TESTS_TEST_SUPPORT_H

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/controller.h"
#include "crypto/key_schedule.h"
#include "oram/common/access_trace.h"

namespace horam::test {

/// Base seed shared by every randomized test in the binary; logged on
/// first use so failures are reproducible from the CI log.
inline std::uint64_t seed() {
  static const std::uint64_t value = [] {
    std::uint64_t s = 0x484f52414d2019ULL;  // default: fixed constant
    if (const char* env = std::getenv("HORAM_TEST_SEED");
        env != nullptr && *env != '\0') {
      s = std::strtoull(env, nullptr, 0);
    }
    std::fprintf(stderr,
                 "[test_support] HORAM_TEST_SEED=%llu (export it to "
                 "reproduce this run)\n",
                 static_cast<unsigned long long>(s));
    return s;
  }();
  return value;
}

/// Derived stream seed: distinct salts give independent deterministic
/// generators under the same base seed.
inline std::uint64_t seed(std::uint64_t salt) {
  return seed() ^ (salt * 0x9e3779b97f4a7c15ULL);
}

/// Expects every controller_stats counter (one per field-table row)
/// and the latency histogram to match; a mismatch names the row's
/// report key, followed by `context`.
inline void expect_stats_equal(const controller_stats& a,
                               const controller_stats& b,
                               const std::string& context = "") {
  controller_stats::for_each_field([&](const char* key, auto member) {
    EXPECT_EQ(a.*member, b.*member) << key << ' ' << context;
  });
  EXPECT_TRUE(a.request_latency == b.request_latency)
      << "request_latency " << context << ": count "
      << a.request_latency.count() << " vs " << b.request_latency.count()
      << ", max " << a.request_latency.max() << " vs "
      << b.request_latency.max();
}

/// Expects every counter and the latency histogram to read zero.
inline void expect_stats_zero(const controller_stats& stats,
                              const std::string& context = "") {
  expect_stats_equal(stats, controller_stats{}, context);
}

/// Cycle_begin events between consecutive period_begin events of one
/// bus trace: the load count of every period, the open one last.
inline std::vector<std::uint64_t> loads_per_period(
    const oram::access_trace& trace) {
  std::vector<std::uint64_t> loads(1, 0);
  for (const oram::trace_event& event : trace.events()) {
    if (event.kind == oram::event_kind::cycle_begin) {
      ++loads.back();
    } else if (event.kind == oram::event_kind::period_begin) {
      loads.push_back(0);
    }
  }
  return loads;
}

/// Sealing keys of a tree built directly, outside a backend: the
/// backend-tree label under the default schedule (sealed stores refuse
/// the all-zero default keys).
inline crypto::seal_keys tree_keys() {
  return crypto::key_schedule().seal({crypto::store_kind::backend_tree});
}

/// tree_keys() and the ring-pads label's pad key, for a Ring ORAM tree.
inline crypto::store_keys ring_keys() {
  return {tree_keys(),
          crypto::key_schedule().derive({crypto::store_kind::ring_pads}).pad};
}

}  // namespace horam::test

#endif  // HORAM_TESTS_TEST_SUPPORT_H
