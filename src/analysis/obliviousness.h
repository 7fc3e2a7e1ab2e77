// Statistical obliviousness audits (cf. Chung–Liu–Pass: ORAM security
// is a statement about the *distribution* of access patterns).
//
// The structural pattern auditor (pattern_audit.h) checks mechanical
// invariants of one trace — no re-read slots, regular cycles. This
// harness checks the statistical half of the obliviousness claim:
//
//   1. Uniformity — the bus-visible positions a scheme touches
//      (storage slots for flat layouts, path leaves for tree layouts)
//      are uniformly distributed. Checked with a chi-square test on a
//      folded histogram and a one-sample Kolmogorov–Smirnov test on
//      the empirical CDF.
//   2. Workload independence — two *different* request streams driven
//      through identically configured machines produce position
//      streams drawn from the same distribution. Checked with a
//      two-sample Kolmogorov–Smirnov test and a chi-square
//      homogeneity test (sample counts may differ: the cacheable
//      interface makes trace *length* depend on the hit rate by
//      design, §4.1, but never the *distribution* of touched
//      positions).
//
// Thresholds are conservative (false-positive probability ~1e-9 per
// check) so randomized CI runs stay deterministic-stable; a scheme
// that leaks its access pattern overshoots them by orders of
// magnitude. Every test is reproducible from the logged
// HORAM_TEST_SEED (tests/test_support.h).
#ifndef HORAM_ANALYSIS_OBLIVIOUSNESS_H
#define HORAM_ANALYSIS_OBLIVIOUSNESS_H

#include <cstdint>
#include <span>
#include <vector>

#include "oram/common/access_trace.h"

namespace horam::analysis {

// ------------------------------------------------------- extraction

/// Global slot indices of every storage_read_slot event, in order.
/// The right position stream for the flat partitioned layout; for the
/// path backend the slot is a tree bucket whose
/// marginal distribution is fixed but not uniform — audit its leaves.
std::vector<std::uint64_t> storage_read_positions(
    const oram::access_trace& trace);

/// Leaf labels of memory_path_access events, in order. The right
/// position stream for tree layouts (the path backend, the in-memory
/// cache tree). Several trees may share one trace (cache tree, backend
/// tree, recursive map chain) with distinct leaf universes; a nonzero
/// `leaf_universe` keeps only accesses of trees with exactly that leaf
/// count — pass it whenever the trace could contain more than one tree
/// (e.g. the path backend with active map recursion), or the mixture
/// falsely fails a uniformity audit.
std::vector<std::uint64_t> path_access_leaves(
    const oram::access_trace& trace, std::uint64_t leaf_universe = 0);

/// First-slot positions of storage sweep events, in order. The
/// bus-visible position stream of the page layout (and of shuffle
/// sweeps): each segment read/write surfaces as one sweep whose first
/// slot is a pure function of (group, leaf), so uniform leaf draws
/// induce a fixed sweep-position distribution regardless of workload.
/// `kind` must be storage_read_sweep or storage_write_sweep.
std::vector<std::uint64_t> storage_sweep_positions(
    const oram::access_trace& trace, oram::event_kind kind);

// ------------------------------------------------------- primitives

/// Folds samples over [0, universe) into `cells` equal-width counts.
std::vector<std::uint64_t> fold_histogram(
    std::span<const std::uint64_t> samples, std::uint64_t universe,
    std::size_t cells);

/// One-sample Kolmogorov–Smirnov statistic of `samples` against the
/// discrete uniform distribution on [0, universe).
double ks_uniform_statistic(std::span<const std::uint64_t> samples,
                            std::uint64_t universe);

/// Two-sample Kolmogorov–Smirnov statistic between two sample sets.
double ks_two_sample_statistic(std::span<const std::uint64_t> a,
                               std::span<const std::uint64_t> b);

/// Acceptance thresholds for the KS statistics (false-positive
/// probability ~1e-9: c = 3.3 in c * sqrt(1/n) resp.
/// c * sqrt((n+m)/(n*m))).
double ks_one_sample_threshold(std::uint64_t n);
double ks_two_sample_threshold(std::uint64_t n, std::uint64_t m);

/// Chi-square homogeneity statistic of two histograms over the same
/// cells (are they draws from one distribution?); dof = cells - 1.
double chi_square_homogeneity(std::span<const std::uint64_t> a,
                              std::span<const std::uint64_t> b);

// ------------------------------------------------------- reports

/// Outcome of a uniformity audit over one position stream.
struct uniformity_report {
  std::uint64_t samples = 0;
  std::uint64_t universe = 0;
  std::size_t cells = 0;
  double chi_square = 0.0;
  double chi_threshold = 0.0;
  double ks = 0.0;
  double ks_threshold = 0.0;
  bool chi_ok = true;
  bool ks_ok = true;

  [[nodiscard]] bool passed() const noexcept { return chi_ok && ks_ok; }
};

/// Runs the chi-square and KS uniformity checks on `samples` over
/// [0, universe). `cells` caps the chi-square histogram width; it is
/// clamped so every cell expects >= ~8 samples.
uniformity_report audit_uniformity(std::span<const std::uint64_t> samples,
                                   std::uint64_t universe,
                                   std::size_t cells = 64);

/// Outcome of a two-workload distribution-equality audit.
struct equality_report {
  std::uint64_t samples_a = 0;
  std::uint64_t samples_b = 0;
  std::uint64_t universe = 0;
  std::size_t cells = 0;
  double ks = 0.0;
  double ks_threshold = 0.0;
  double chi_square = 0.0;
  double chi_threshold = 0.0;
  bool ks_ok = true;
  bool chi_ok = true;

  [[nodiscard]] bool passed() const noexcept { return ks_ok && chi_ok; }
};

/// Checks that two position streams over [0, universe) are drawn from
/// the same distribution (two-sample KS + chi-square homogeneity).
equality_report audit_distribution_equality(
    std::span<const std::uint64_t> a, std::span<const std::uint64_t> b,
    std::uint64_t universe, std::size_t cells = 64);

}  // namespace horam::analysis

#endif  // HORAM_ANALYSIS_OBLIVIOUSNESS_H
