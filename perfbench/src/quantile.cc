#include "perfbench/quantile.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double low_quantile(std::vector<double> samples, double q) {
  if (samples.empty() || !(q >= 0.0 && q < 1.0)) {
    throw std::invalid_argument("low_quantile needs samples and q in [0, 1)");
  }
  const std::size_t index = samples_below(samples.size(), q);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

std::size_t samples_below(std::size_t n, double q) {
  return static_cast<std::size_t>(std::floor(q * static_cast<double>(n)));
}

std::size_t min_samples(double q) {
  std::size_t n = 1;
  while (samples_below(n, q) < kSamplesBelow) ++n;
  return n;
}

double binned_quantile(std::span<const Bin> bins, double q) {
  std::uint64_t total = 0;
  for (const Bin& bin : bins) total += bin.count;
  if (total == 0) throw std::invalid_argument("quantile of an empty sample");
  const double rank = q * static_cast<double>(total);
  double below = 0.0;
  for (const Bin& bin : bins) {
    if (bin.count == 0) continue;
    const double count = static_cast<double>(bin.count);
    if (rank <= below + count) {
      const double share = std::clamp((rank - below) / count, 0.0, 1.0);
      return bin.lower + share * (bin.upper - bin.lower);
    }
    below += count;
  }
  return bins.back().upper;
}

double histogram_quantile(const smartred::obs::LogHistogram& h, double q) {
  using smartred::obs::LogHistogram;
  std::vector<Bin> bins;
  for (std::size_t i = 0; i < LogHistogram::kBucketCount; ++i) {
    const std::uint64_t count = h.bucket_count(i);
    if (count == 0) continue;
    bins.push_back({std::max(LogHistogram::bucket_lower(i), h.min()),
                    std::min(LogHistogram::bucket_upper(i), h.max()), count});
  }
  return binned_quantile(bins, q);
}

}  // namespace perfbench
