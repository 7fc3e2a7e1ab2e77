#include "analysis/obliviousness.h"

#include <algorithm>
#include <cmath>

#include "analysis/pattern_audit.h"
#include "util/contracts.h"

namespace horam::analysis {

namespace {

/// KS confidence coefficient: 2 * exp(-2 * c^2) ~ 7e-10 at c = 3.3.
constexpr double ks_confidence_c = 3.3;

/// Minimum expected samples per chi-square cell.
constexpr std::uint64_t min_expected_per_cell = 8;

std::vector<std::uint64_t> sorted_copy(
    std::span<const std::uint64_t> samples) {
  std::vector<std::uint64_t> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace

std::vector<std::uint64_t> storage_read_positions(
    const oram::access_trace& trace) {
  std::vector<std::uint64_t> positions;
  for (const oram::trace_event& event : trace.events()) {
    if (event.kind == oram::event_kind::storage_read_slot) {
      positions.push_back(event.a);
    }
  }
  return positions;
}

std::vector<std::uint64_t> path_access_leaves(
    const oram::access_trace& trace, std::uint64_t leaf_universe) {
  std::vector<std::uint64_t> leaves;
  for (const oram::trace_event& event : trace.events()) {
    if (event.kind == oram::event_kind::memory_path_access &&
        (leaf_universe == 0 || event.b == leaf_universe)) {
      leaves.push_back(event.a);
    }
  }
  return leaves;
}

std::vector<std::uint64_t> storage_sweep_positions(
    const oram::access_trace& trace, oram::event_kind kind) {
  expects(kind == oram::event_kind::storage_read_sweep ||
              kind == oram::event_kind::storage_write_sweep,
          "storage_sweep_positions takes a sweep event kind");
  std::vector<std::uint64_t> positions;
  for (const oram::trace_event& event : trace.events()) {
    if (event.kind == kind) {
      positions.push_back(event.a);
    }
  }
  return positions;
}

std::vector<std::uint64_t> fold_histogram(
    std::span<const std::uint64_t> samples, std::uint64_t universe,
    std::size_t cells) {
  expects(universe > 0, "histogram needs a nonzero universe");
  expects(cells > 0, "histogram needs at least one cell");
  std::vector<std::uint64_t> counts(cells, 0);
  for (const std::uint64_t sample : samples) {
    expects(sample < universe, "sample outside the universe");
    // Equal-width cells without overflow: sample / ceil(universe/cells)
    // would skew the last cell, so map through 128-bit arithmetic.
    const auto cell = static_cast<std::size_t>(
        static_cast<unsigned __int128>(sample) * cells / universe);
    ++counts[cell];
  }
  return counts;
}

double ks_uniform_statistic(std::span<const std::uint64_t> samples,
                            std::uint64_t universe) {
  expects(universe > 0, "KS needs a nonzero universe");
  if (samples.empty()) {
    return 0.0;
  }
  const std::vector<std::uint64_t> sorted = sorted_copy(samples);
  const double n = static_cast<double>(sorted.size());
  const double u = static_cast<double>(universe);
  double d = 0.0;
  std::size_t i = 0;
  while (i < sorted.size()) {
    // One step per distinct value: the empirical CDF just before its
    // run of ties (i / n) and just after it (j / n), against the
    // discrete uniform CDF F(x^-) = x / U and F(x) = (x + 1) / U.
    // Gaps taken inside a run would compare a partial count with the
    // whole step and read at least about 1/U on a small universe.
    std::size_t j = i;
    while (j < sorted.size() && sorted[j] == sorted[i]) {
      ++j;
    }
    const double x = static_cast<double>(sorted[i]);
    const double below = std::abs(static_cast<double>(i) / n - x / u);
    const double above =
        std::abs(static_cast<double>(j) / n - (x + 1.0) / u);
    d = std::max(d, std::max(above, below));
    i = j;
  }
  return d;
}

double ks_two_sample_statistic(std::span<const std::uint64_t> a,
                               std::span<const std::uint64_t> b) {
  if (a.empty() || b.empty()) {
    return 0.0;
  }
  const std::vector<std::uint64_t> sa = sorted_copy(a);
  const std::vector<std::uint64_t> sb = sorted_copy(b);
  const double na = static_cast<double>(sa.size());
  const double nb = static_cast<double>(sb.size());
  std::size_t i = 0;
  std::size_t j = 0;
  double d = 0.0;
  while (i < sa.size() && j < sb.size()) {
    const std::uint64_t value = std::min(sa[i], sb[j]);
    while (i < sa.size() && sa[i] == value) {
      ++i;
    }
    while (j < sb.size() && sb[j] == value) {
      ++j;
    }
    d = std::max(d, std::abs(static_cast<double>(i) / na -
                             static_cast<double>(j) / nb));
  }
  return d;
}

double ks_one_sample_threshold(std::uint64_t n) {
  expects(n > 0, "KS threshold needs samples");
  return ks_confidence_c / std::sqrt(static_cast<double>(n));
}

double ks_two_sample_threshold(std::uint64_t n, std::uint64_t m) {
  expects(n > 0 && m > 0, "KS threshold needs samples on both sides");
  const double dn = static_cast<double>(n);
  const double dm = static_cast<double>(m);
  return ks_confidence_c * std::sqrt((dn + dm) / (dn * dm));
}

double chi_square_homogeneity(std::span<const std::uint64_t> a,
                              std::span<const std::uint64_t> b) {
  expects(a.size() == b.size() && !a.empty(),
          "homogeneity needs two equal-width histograms");
  std::uint64_t total_a = 0;
  std::uint64_t total_b = 0;
  for (std::size_t c = 0; c < a.size(); ++c) {
    total_a += a[c];
    total_b += b[c];
  }
  if (total_a == 0 || total_b == 0) {
    return 0.0;
  }
  const double grand = static_cast<double>(total_a + total_b);
  double statistic = 0.0;
  for (std::size_t c = 0; c < a.size(); ++c) {
    const double pooled = static_cast<double>(a[c] + b[c]);
    if (pooled == 0.0) {
      continue;  // empty cell contributes nothing
    }
    const double ea = pooled * static_cast<double>(total_a) / grand;
    const double eb = pooled * static_cast<double>(total_b) / grand;
    const double da = static_cast<double>(a[c]) - ea;
    const double db = static_cast<double>(b[c]) - eb;
    statistic += da * da / ea + db * db / eb;
  }
  return statistic;
}

uniformity_report audit_uniformity(std::span<const std::uint64_t> samples,
                                   std::uint64_t universe,
                                   std::size_t cells) {
  expects(universe > 0, "uniformity audit needs a nonzero universe");
  expects(!samples.empty(), "uniformity audit needs samples");
  uniformity_report report;
  report.samples = samples.size();
  report.universe = universe;

  // Clamp the histogram so every cell expects enough mass for the
  // chi-square approximation (and never exceeds the universe).
  std::size_t width = std::max<std::size_t>(
      1, std::min<std::size_t>(
             cells, static_cast<std::size_t>(std::min<std::uint64_t>(
                        universe,
                        samples.size() / min_expected_per_cell))));
  report.cells = width;

  const std::vector<std::uint64_t> counts =
      fold_histogram(samples, universe, width);
  report.chi_square = chi_square_uniform(counts);
  report.chi_threshold =
      width > 1 ? chi_square_threshold(width - 1) : 0.0;
  report.chi_ok = width <= 1 || report.chi_square <= report.chi_threshold;

  report.ks = ks_uniform_statistic(samples, universe);
  report.ks_threshold = ks_one_sample_threshold(samples.size());
  report.ks_ok = report.ks <= report.ks_threshold;
  return report;
}

equality_report audit_distribution_equality(
    std::span<const std::uint64_t> a, std::span<const std::uint64_t> b,
    std::uint64_t universe, std::size_t cells) {
  expects(universe > 0, "equality audit needs a nonzero universe");
  expects(!a.empty() && !b.empty(), "equality audit needs two samples");
  equality_report report;
  report.samples_a = a.size();
  report.samples_b = b.size();
  report.universe = universe;

  report.ks = ks_two_sample_statistic(a, b);
  report.ks_threshold = ks_two_sample_threshold(a.size(), b.size());
  report.ks_ok = report.ks <= report.ks_threshold;

  const std::uint64_t smaller = std::min(a.size(), b.size());
  std::size_t width = std::max<std::size_t>(
      1, std::min<std::size_t>(
             cells, static_cast<std::size_t>(std::min<std::uint64_t>(
                        universe, smaller / min_expected_per_cell))));
  report.cells = width;
  report.chi_square =
      chi_square_homogeneity(fold_histogram(a, universe, width),
                             fold_histogram(b, universe, width));
  report.chi_threshold =
      width > 1 ? chi_square_threshold(width - 1) : 0.0;
  report.chi_ok = width <= 1 || report.chi_square <= report.chi_threshold;
  return report;
}

}  // namespace horam::analysis
