// Tests of the benchmark's own machinery: the low-quantile reduction, the
// slice-count rule, and the forwarding decorators of the traced run.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "perfbench/quantile.h"
#include "perfbench/trace.h"
#include "perfbench/workloads.h"
#include "redundancy/registry.h"

namespace {

using perfbench::Bin;
using perfbench::kHostQuantile;
using perfbench::low_quantile;

TEST(LowQuantileTest, PicksTheOrderStatisticAtFloorQn) {
  std::vector<double> samples(200);
  std::iota(samples.begin(), samples.end(), 1.0);
  smartred::rng::Stream rng(3);
  rng.shuffle(samples);
  // floor(0.1 * 200) = 20 samples sort below the 21st smallest.
  EXPECT_EQ(low_quantile(samples, kHostQuantile), 21.0);
  EXPECT_EQ(low_quantile(samples, 0.5), 101.0);
  EXPECT_EQ(low_quantile({7.0}, kHostQuantile), 7.0);
}

TEST(LowQuantileTest, IgnoresNoiseThatOnlyAddsTime) {
  // 120 slices of 10 ms true cost; on 60% of them a co-tenant adds up to
  // 60%. The p10 stays at the true cost; the median does not.
  smartred::rng::Stream rng(11);
  std::vector<double> samples;
  for (int i = 0; i < 120; ++i) {
    const double base = 10.0 + 0.01 * rng.uniform01();
    samples.push_back(rng.uniform01() < 0.6
                          ? base * (1.0 + 0.6 * rng.uniform01())
                          : base);
  }
  EXPECT_LT(low_quantile(samples, kHostQuantile), 10.02);
  EXPECT_GT(low_quantile(samples, 0.5), 10.5);
}

TEST(LowQuantileTest, RejectsEmptySamples) {
  EXPECT_THROW((void)low_quantile({}, kHostQuantile), std::invalid_argument);
}

TEST(SliceCountRuleTest, TenSlicesSortBelowTheChosenQuantile) {
  EXPECT_EQ(perfbench::min_samples(kHostQuantile), 100u);
  EXPECT_EQ(perfbench::samples_below(100, kHostQuantile), 10u);
  EXPECT_EQ(perfbench::samples_below(99, kHostQuantile), 9u);
  EXPECT_EQ(perfbench::min_samples(0.5), 20u);
}

TEST(BinnedQuantileTest, InterpolatesWithinTheBin) {
  const std::vector<Bin> bins = {{0.0, 1.0, 50}, {1.0, 2.0, 50}};
  EXPECT_DOUBLE_EQ(perfbench::binned_quantile(bins, 0.25), 0.5);
  EXPECT_DOUBLE_EQ(perfbench::binned_quantile(bins, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(perfbench::binned_quantile(bins, 0.99), 1.98);
}

TEST(BinnedQuantileTest, HistogramQuantileStaysInsideTheData) {
  smartred::obs::LogHistogram h;
  for (int i = 1; i <= 1000; ++i) h.add(0.5 + i * 0.001);
  const double p50 = perfbench::histogram_quantile(h, 0.5);
  EXPECT_NEAR(p50, 1.0, 0.02);
  EXPECT_LE(perfbench::histogram_quantile(h, 1.0), h.max());
  EXPECT_GE(perfbench::histogram_quantile(h, 0.0), h.min());
}

/// Counts every virtual the decorator may forward.
class RecordingPolicy final : public smartred::dca::AssignmentPolicy {
 public:
  std::optional<smartred::redundancy::NodeId> select(
      const smartred::dca::AssignContext&, const smartred::dca::NodePool&,
      smartred::rng::Stream&) override {
    ++calls;
    return 42;
  }
  bool admit(const smartred::dca::AssignContext&,
             smartred::redundancy::NodeId) override {
    ++calls;
    return false;
  }
  void bind(const smartred::dca::NodePool&) override { ++calls; }
  void on_join(smartred::redundancy::NodeId) override { ++calls; }
  void on_leave(smartred::redundancy::NodeId) override { ++calls; }
  void on_dispatch(smartred::redundancy::NodeId,
                   const smartred::dca::AssignContext&) override {
    ++calls;
  }
  void on_complete(smartred::redundancy::NodeId, bool) override { ++calls; }
  void on_quarantine(smartred::redundancy::NodeId) override { ++calls; }
  void on_readmit(smartred::redundancy::NodeId) override { ++calls; }
  void on_task_decided(std::span<const smartred::redundancy::Vote>,
                       smartred::redundancy::ResultValue) override {
    ++calls;
  }
  void on_task_settled(std::uint64_t) override { ++calls; }
  void reset() override { ++calls; }
  std::string_view name() const override { return "recording"; }
  smartred::dca::PolicyKind kind() const override {
    return smartred::dca::PolicyKind::kStratified;
  }

  int calls = 0;
};

TEST(DecoratorTest, PolicyForwardsEveryVirtual) {
  RecordingPolicy inner;
  perfbench::Tracer tracer;
  perfbench::TracedPolicy traced(inner, &tracer);
  smartred::dca::NodePool pool(4);
  smartred::rng::Stream rng(2);
  const smartred::dca::AssignContext context{7, 1, 4};
  EXPECT_EQ(traced.select(context, pool, rng), 42u);
  EXPECT_FALSE(traced.admit(context, 3));
  traced.bind(pool);
  traced.on_join(1);
  traced.on_leave(1);
  traced.on_dispatch(1, context);
  traced.on_complete(1, true);
  traced.on_quarantine(1);
  traced.on_readmit(1);
  traced.on_task_decided({}, 1);
  traced.on_task_settled(7);
  traced.reset();
  EXPECT_EQ(inner.calls, 12);
  EXPECT_EQ(traced.name(), "recording");
  EXPECT_EQ(traced.kind(), smartred::dca::PolicyKind::kStratified);
  const auto totals = tracer.totals();
  EXPECT_EQ(totals[static_cast<std::size_t>(perfbench::Site::kSelect)].calls,
            1u);
  EXPECT_EQ(totals[static_cast<std::size_t>(perfbench::Site::kAdmit)].calls,
            1u);
}

TEST(DecoratorTest, FactoryForwardsTraitsAndCountsWaves) {
  const auto coded = smartred::redundancy::make_strategy("coded:n=6,k=4,g=6");
  perfbench::Tracer tracer;
  perfbench::WaveTally waves;
  const perfbench::TracedFactory traced(*coded, &tracer, &waves);
  EXPECT_EQ(traced.stateless(), coded->stateless());
  EXPECT_EQ(traced.eager(), coded->eager());
  EXPECT_EQ(traced.encoder(), coded->encoder());
  EXPECT_EQ(traced.name(), coded->name());

  const auto iterative = smartred::redundancy::make_strategy("iterative:d=2");
  const perfbench::TracedFactory counted(*iterative, nullptr, &waves);
  {
    auto strategy = counted.make();
    // Task 1: one wave of two agreeing votes.
    EXPECT_FALSE(strategy->decide({}).done());
    const std::vector<smartred::redundancy::Vote> agree = {{1, 5, 0},
                                                           {2, 5, 0}};
    EXPECT_TRUE(strategy->decide(agree).done());
    strategy->reset();
    // Task 2: a split first wave needs a second.
    EXPECT_FALSE(strategy->decide({}).done());
    const std::vector<smartred::redundancy::Vote> split = {{1, 5, 0},
                                                           {2, 6, 0}};
    EXPECT_FALSE(strategy->decide(split).done());
  }
  perfbench::WaveTally::Counts expected{};
  expected[1] = 1;
  expected[2] = 1;
  EXPECT_EQ(waves.counts(), expected);
}

TEST(DecoratorTest, DecoratedStragglerSliceEqualsUndecorated) {
  const perfbench::DesShape shape = perfbench::des_stragglers_shape();
  const auto factory = smartred::redundancy::make_strategy(shape.strategy);
  perfbench::Tracer tracer;
  const perfbench::DesSlice plain =
      perfbench::run_des_slice(shape, *factory, 9, nullptr);
  const perfbench::DesSlice traced =
      perfbench::run_des_slice(shape, *factory, 9, &tracer);
  EXPECT_EQ(plain.fingerprint, traced.fingerprint);
  EXPECT_EQ(plain.metrics.tasks_total, shape.tasks);
  EXPECT_TRUE(plain.metrics.jobs_conserved());
  const auto totals = tracer.totals();
  for (const perfbench::Site site :
       {perfbench::Site::kSetup, perfbench::Site::kRun,
        perfbench::Site::kReport, perfbench::Site::kLatency,
        perfbench::Site::kSelect, perfbench::Site::kDecide}) {
    EXPECT_GT(totals[static_cast<std::size_t>(site)].calls, 0u)
        << perfbench::site_name(site);
  }
}

}  // namespace
