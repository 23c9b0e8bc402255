// Reductions of the benchmark's samples.
//
// Host time on a shared machine is only ever inflated by noise (co-tenants,
// frequency changes), never deflated, so host-time metrics are reduced by a
// low quantile of many short slices rather than by a mean or median.
// Model outputs (response times) are deterministic for a seed; their
// quantiles are interpolated within the containing histogram bucket so they
// move with the data instead of snapping to bucket bounds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/histogram.h"

namespace perfbench {

/// The quantile every host-time metric is reduced by.
inline constexpr double kHostQuantile = 0.10;

/// Samples that must lie strictly below the chosen order statistic, so the
/// low quantile is never an extreme of a handful of slices.
inline constexpr std::size_t kSamplesBelow = 10;

/// The q-quantile of `samples` as the order statistic with index
/// floor(q * n) of the sorted samples (0-based), so exactly floor(q * n)
/// samples sort below it. Requires a non-empty sample and q in [0, 1).
[[nodiscard]] double low_quantile(std::vector<double> samples, double q);

/// How many samples sort below low_quantile(samples, q) for n samples.
[[nodiscard]] std::size_t samples_below(std::size_t n, double q);

/// The smallest sample count for which samples_below(n, q) reaches
/// kSamplesBelow: 100 slices at the 10th percentile.
[[nodiscard]] std::size_t min_samples(double q);

/// One bin of a distribution: `count` observations spread over
/// [lower, upper].
struct Bin {
  double lower = 0.0;
  double upper = 0.0;
  std::uint64_t count = 0;
};

/// The q-quantile of a binned distribution, linear within the bin that
/// holds rank q * total. Requires at least one observation.
[[nodiscard]] double binned_quantile(std::span<const Bin> bins, double q);

/// binned_quantile() over the buckets of a LogHistogram, with the first
/// and last non-empty buckets clipped to the exact minimum and maximum.
[[nodiscard]] double histogram_quantile(const smartred::obs::LogHistogram& h,
                                        double q);

}  // namespace perfbench
