#include "perfbench/workloads.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "boinc/deployment.h"
#include "boinc/profile.h"
#include "ckpt/codec.h"
#include "ckpt/sweep.h"
#include "common/binio.h"
#include "common/rng.h"
#include "dca/task_server.h"
#include "exp/parallel_runner.h"
#include "perfbench/quantile.h"
#include "redundancy/analysis.h"
#include "redundancy/montecarlo.h"
#include "redundancy/registry.h"
#include "sat/generator.h"
#include "sat/sat_workload.h"
#include "sim/simulator.h"

namespace perfbench {

namespace sr = smartred;

namespace {

/// A run that has not finished its kept slices by now is failed, so the
/// process always exits well inside three minutes.
constexpr double kHardLimitSeconds = 150.0;

/// Standard errors a model output may sit from its closed form.
constexpr double kAnalysisZ = 5.0;

/// The iterative configuration of des_paper, pull_sat and mc_ckpt.
constexpr int kMargin = 4;
constexpr const char* kIterative = "iterative:d=4";

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

std::int64_t heap_in_use() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<std::int64_t>(info.uordblks + info.hblkhd);
}

/// Peak resident set of this process image. Read from VmHWM rather than
/// getrusage(): ru_maxrss survives execve, so it would report the launching
/// interpreter's peak for a small workload.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Exact bytes of a slice's deterministic outputs: the checkpoint codec's
/// encoding of its aggregate followed by `counts`.
template <typename T>
std::vector<std::uint8_t> fingerprint_of(const T& aggregate,
                                         std::span<const std::uint64_t> counts) {
  sr::common::ByteWriter writer;
  sr::ckpt::Codec<T>::encode(writer, aggregate);
  for (const std::uint64_t count : counts) writer.u64(count);
  return writer.take();
}

/// Fails the run unless measured cost and failure rate of `tasks` tasks
/// sit within kAnalysisZ standard errors of Equations (5) and (6).
void check_iterative(const std::string& what, double cost, double reliability,
                     double tasks, double r, Result& result) {
  namespace analysis = sr::redundancy::analysis;
  const double cost_model = analysis::iterative_cost(kMargin, r);
  const double cost_se =
      std::sqrt(analysis::iterative_cost_variance(kMargin, r) / tasks);
  if (!(std::abs(cost - cost_model) <= kAnalysisZ * cost_se)) {
    result.failures.push_back(what + ": cost " + std::to_string(cost) +
                              " is not within " + std::to_string(kAnalysisZ) +
                              " SE of iterative_cost " +
                              std::to_string(cost_model));
  }
  const double fail_model = analysis::iterative_failure(kMargin, r);
  const double fail_se = std::sqrt(fail_model * (1.0 - fail_model) / tasks);
  if (!(std::abs((1.0 - reliability) - fail_model) <= kAnalysisZ * fail_se)) {
    result.failures.push_back(
        what + ": error rate " + std::to_string(1.0 - reliability) +
        " is not within " + std::to_string(kAnalysisZ) +
        " SE of iterative_failure " + std::to_string(fail_model));
  }
}

/// Timing and identity of one slice, as the slice loop sees it.
struct SliceTimes {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t tasks = 0;
  std::uint64_t aborted = 0;
  std::vector<std::uint8_t> fingerprint;
};

/// Per-site totals of the traced slices, and reductions over them.
struct TracedSlices {
  std::vector<SiteTotals> slices;
  std::size_t kept = 0;
  std::uint64_t tasks = 0;  ///< per slice

  [[nodiscard]] const Totals& at(std::size_t slice, Site site) const {
    return slices[slice][static_cast<std::size_t>(site)];
  }
  /// Calls per task over the kept (deterministic) slices.
  [[nodiscard]] double calls_per_task(Site site) const {
    std::uint64_t calls = 0;
    for (std::size_t i = 0; i < kept; ++i) calls += at(i, site).calls;
    return static_cast<double>(calls) /
           static_cast<double>(kept * tasks);
  }
  /// Low quantile over slices of f(slice); 0 when no slice has the site.
  template <typename F>
  [[nodiscard]] double reduce(Site site, F&& f) const {
    std::vector<double> values;
    for (std::size_t i = 0; i < slices.size(); ++i) {
      if (at(i, site).calls > 0) values.push_back(f(at(i, site)));
    }
    return values.empty() ? 0.0 : low_quantile(values, kHostQuantile);
  }
  [[nodiscard]] double ns_per_call(Site site) const {
    return reduce(site, [](const Totals& t) {
      return static_cast<double>(t.total_ns) / static_cast<double>(t.calls);
    });
  }
  [[nodiscard]] double self_ns_per_task(Site site) const {
    return reduce(site, [this](const Totals& t) {
      return static_cast<double>(t.self_ns) / static_cast<double>(tasks);
    });
  }
  [[nodiscard]] double ms_per_slice(Site site) const {
    return reduce(site, [](const Totals& t) {
      return static_cast<double>(t.total_ns) * 1e-6;
    });
  }
};

/// Every per-layer metric with its unit, in print order. A layer that a
/// workload does not run reports 0.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"sim.events_per_task", "events/task"},
      {"dca.run_self_ns_per_task", "ns/task"},
      {"dca.setup_ms", "ms"},
      {"dca.bytes_per_node", "B/node"},
      {"dca.select_calls", "calls/task"},
      {"dca.select_ns", "ns/call"},
      {"dca.useful_job_ratio", "ratio"},
      {"dca.jobs_lost", "jobs/task"},
      {"dca.jobs_discarded", "jobs/task"},
      {"dca.jobs_speculative", "jobs/task"},
      {"fault.report_calls", "calls/task"},
      {"fault.report_ns", "ns/call"},
      {"fault.latency_calls", "calls/task"},
      {"fault.latency_ns", "ns/call"},
      {"redundancy.decide_calls", "calls/task"},
      {"redundancy.decide_ns", "ns/call"},
      {"redundancy.mc_ns_per_task", "ns/task"},
      {"boinc.run_self_ns_per_task", "ns/task"},
      {"boinc.admit_calls", "calls/task"},
      {"boinc.useful_job_ratio", "ratio"},
      {"boinc.jobs_lost", "jobs/task"},
      {"sat.solve_ms", "ms"},
      {"exp.overhead_ms", "ms"},
      {"ckpt.saves", "saves/sweep"},
      {"ckpt.files_per_epoch", "files"},
      {"ckpt.bytes_per_epoch", "B"},
      {"ckpt.save_ms", "ms/save"},
      {"obs.trace_overhead", "ratio"},
  };
  return units;
}

using Layers = std::map<std::string, double>;

/// Shared per-layer numbers of the two simulator substrates.
void substrate_layers(const sr::dca::RunMetrics& merged, std::uint64_t events,
                      const TracedSlices& traced, const std::string& layer,
                      Layers& layers) {
  const double tasks = static_cast<double>(merged.tasks_total);
  layers["sim.events_per_task"] = static_cast<double>(events) / tasks;
  layers[layer + ".run_self_ns_per_task"] = traced.self_ns_per_task(Site::kRun);
  layers[layer + ".useful_job_ratio"] =
      static_cast<double>(merged.jobs_completed) /
      static_cast<double>(merged.jobs_dispatched);
  layers[layer + ".jobs_lost"] = static_cast<double>(merged.jobs_lost) / tasks;
  layers["redundancy.decide_calls"] = traced.calls_per_task(Site::kDecide);
  layers["redundancy.decide_ns"] = traced.ns_per_call(Site::kDecide);
}

/// One workload, run slice by slice.
class Bench {
 public:
  virtual ~Bench() = default;
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  [[nodiscard]] virtual std::uint64_t tasks_per_slice() const = 0;
  /// Slices whose model outputs are kept: at least min_samples() of the
  /// host quantile, more where a slice is small, so the model metrics
  /// always rest on a large fixed sample.
  [[nodiscard]] virtual std::size_t kept_slices() const {
    return min_samples(kHostQuantile);
  }
  /// Runs slice `index` (traced when `tracer` is set). A kept untraced
  /// slice folds its outputs into the model metrics. Failed checks are
  /// appended to `result`.
  virtual SliceTimes run_slice(std::uint32_t index, Tracer* tracer, bool keep,
                               Result& result) = 0;
  /// cost, error_rate, resp_p50, resp_p99 of the kept slices, plus the
  /// checks against the closed forms where the workload has them.
  virtual void model_metrics(Result& result) const = 0;
  virtual void layer_metrics(const TracedSlices& traced, Layers& layers) = 0;

 protected:
  Bench() = default;
};

/// `reliability` is the fraction of tasks that accepted the correct value;
/// the error rate counts wrong accepts and aborts alike.
void add_model_metrics(Result& result, double cost, double reliability,
                       double p50, double p99) {
  result.metrics.push_back({"cost", cost, "jobs/task"});
  result.metrics.push_back({"error_rate", 1.0 - reliability, "fraction"});
  result.metrics.push_back({"resp_p50", p50, "sim_time"});
  result.metrics.push_back({"resp_p99", p99, "sim_time"});
}

/// The model metrics of a simulator substrate's merged run.
void add_model_metrics(Result& result, const sr::dca::RunMetrics& merged) {
  add_model_metrics(result, merged.cost_factor(), merged.reliability(),
                    histogram_quantile(merged.response_time_hist, 0.50),
                    histogram_quantile(merged.response_time_hist, 0.99));
}

class DesBench final : public Bench {
 public:
  DesBench(DesShape shape, std::uint64_t seed, bool check_analysis)
      : shape_(std::move(shape)),
        seed_(seed),
        check_analysis_(check_analysis),
        factory_(sr::redundancy::make_strategy(shape_.strategy)) {}

  std::uint64_t tasks_per_slice() const override { return shape_.tasks; }
  std::size_t kept_slices() const override { return shape_.kept_slices; }

  SliceTimes run_slice(std::uint32_t index, Tracer* tracer, bool keep,
                       Result& result) override {
    DesSlice slice = run_des_slice(
        shape_, *factory_, sr::rng::derive_seed(seed_, index), tracer);
    if (!slice.metrics.jobs_conserved()) {
      result.failures.push_back("slice " + std::to_string(index) +
                                ": jobs_conserved() is false");
    }
    if (tracer != nullptr) heap_bytes_.push_back(slice.setup_heap_bytes);
    if (keep) {
      merged_.merge(slice.metrics);
      events_ += slice.events;
    }
    return {slice.setup_s, slice.run_s, shape_.tasks,
            slice.metrics.tasks_aborted, std::move(slice.fingerprint)};
  }

  void model_metrics(Result& result) const override {
    add_model_metrics(result, merged_);
    if (check_analysis_) {
      check_iterative("des_paper", merged_.cost_factor(),
                      merged_.reliability(),
                      static_cast<double>(merged_.tasks_total),
                      shape_.reliability, result);
    }
  }

  void layer_metrics(const TracedSlices& traced, Layers& layers) override {
    substrate_layers(merged_, events_, traced, "dca", layers);
    const double tasks = static_cast<double>(merged_.tasks_total);
    layers["dca.setup_ms"] = traced.ms_per_slice(Site::kSetup);
    double heap = 0.0;
    for (const std::int64_t bytes : heap_bytes_) {
      heap += static_cast<double>(bytes);
    }
    layers["dca.bytes_per_node"] =
        heap / static_cast<double>(heap_bytes_.size()) /
        static_cast<double>(shape_.nodes);
    layers["dca.select_calls"] = traced.calls_per_task(Site::kSelect);
    layers["dca.select_ns"] = traced.ns_per_call(Site::kSelect);
    layers["dca.jobs_discarded"] =
        static_cast<double>(merged_.jobs_discarded) / tasks;
    layers["dca.jobs_speculative"] =
        static_cast<double>(merged_.jobs_speculative) / tasks;
    layers["fault.report_calls"] = traced.calls_per_task(Site::kReport);
    layers["fault.report_ns"] = traced.ns_per_call(Site::kReport);
    layers["fault.latency_calls"] = traced.calls_per_task(Site::kLatency);
    layers["fault.latency_ns"] = traced.ns_per_call(Site::kLatency);
  }

 private:
  DesShape shape_;
  std::uint64_t seed_;
  bool check_analysis_;
  std::shared_ptr<sr::redundancy::StrategyFactory> factory_;
  sr::dca::RunMetrics merged_;
  std::uint64_t events_ = 0;
  std::vector<std::int64_t> heap_bytes_;
};

/// Fig 5(b): 3-SAT on 200 PlanetLab-like clients, pull scheduling. The
/// instance shape is fig5b_boinc's default (18 variables at the hard
/// clause ratio, 140 tasks); every slice builds and solves its own instance.
class PullBench final : public Bench {
 public:
  static constexpr int kVariables = 18;
  static constexpr std::uint64_t kTasks = 140;
  static constexpr std::size_t kClients = 200;

  explicit PullBench(std::uint64_t seed)
      : seed_(seed), factory_(sr::redundancy::make_strategy(kIterative)) {}

  std::uint64_t tasks_per_slice() const override { return kTasks; }
  std::size_t kept_slices() const override { return 400; }

  SliceTimes run_slice(std::uint32_t index, Tracer* tracer, bool keep,
                       Result& result) override {
    const std::uint64_t seed = sr::rng::derive_seed(seed_, index);
    const std::int64_t t0 = now_ns();
    sr::sim::Simulator simulator;
    sr::rng::Stream instance_rng(sr::rng::derive_seed(seed, 1));
    const auto planted = static_cast<sr::sat::Assignment>(
        instance_rng.uniform_int(0, (1u << kVariables) - 1));
    sr::sat::SatWorkload workload(
        sr::sat::planted_formula(
            kVariables,
            static_cast<int>(kVariables * sr::sat::kHardRatio), planted,
            instance_rng),
        kTasks);
    std::uint64_t satisfiable_tasks = 0;
    {
      const Tracer::Scope span(tracer, Site::kSolve);
      for (std::uint64_t task = 0; task < kTasks; ++task) {
        if (workload.correct_value(task) == 1) ++satisfiable_tasks;
      }
    }
    if (satisfiable_tasks == 0) {
      result.failures.push_back("slice " + std::to_string(index) +
                                ": planted instance solved unsatisfiable");
    }
    sr::rng::Stream profile_rng(sr::rng::derive_seed(seed, 2));
    auto profiles = sr::boinc::planetlab_profiles(kClients, profile_rng);
    sr::boinc::BoincConfig config;
    config.seed = seed;
    std::unique_ptr<sr::dca::AssignmentPolicy> policy;
    std::optional<TracedPolicy> traced_policy;
    if (tracer != nullptr) {
      policy = sr::dca::make_policy("uniform");
      config.assignment = &traced_policy.emplace(*policy, tracer);
    }
    const TracedFactory traced_factory(*factory_, tracer, nullptr);
    const sr::redundancy::StrategyFactory& strategies =
        tracer != nullptr
            ? static_cast<const sr::redundancy::StrategyFactory&>(
                  traced_factory)
            : *factory_;
    std::optional<sr::boinc::Deployment> deployment;
    {
      const Tracer::Scope span(tracer, Site::kSetup);
      deployment.emplace(simulator, config, std::move(profiles), strategies,
                         workload);
    }
    const std::int64_t t1 = now_ns();
    {
      const Tracer::Scope span(tracer, Site::kRun);
      deployment->run();
    }
    const std::int64_t t2 = now_ns();
    const sr::dca::RunMetrics& metrics = deployment->metrics();
    if (!metrics.jobs_conserved()) {
      result.failures.push_back("slice " + std::to_string(index) +
                                ": jobs_conserved() is false");
    }
    const std::uint64_t events = simulator.events_executed();
    if (keep) {
      merged_.merge(metrics);
      events_ += events;
    }
    return {seconds(t1 - t0), seconds(t2 - t1), kTasks, metrics.tasks_aborted,
            fingerprint_of(metrics, std::span(&events, 1))};
  }

  void model_metrics(Result& result) const override {
    add_model_metrics(result, merged_);
  }

  void layer_metrics(const TracedSlices& traced, Layers& layers) override {
    substrate_layers(merged_, events_, traced, "boinc", layers);
    layers["boinc.admit_calls"] = traced.calls_per_task(Site::kAdmit);
    layers["sat.solve_ms"] = traced.ms_per_slice(Site::kSolve);
  }

 private:
  std::uint64_t seed_;
  std::shared_ptr<sr::redundancy::StrategyFactory> factory_;
  sr::dca::RunMetrics merged_;
  std::uint64_t events_ = 0;
};

/// Monte-Carlo sweep: run_binary replications through ParallelRunner and
/// ckpt::run_resumable, checkpointing after every replication.
class McBench final : public Bench {
 public:
  static constexpr std::uint64_t kReplications = 8;
  static constexpr std::uint64_t kTasksPerReplication = 16'000;
  static constexpr unsigned kThreads = 2;
  static constexpr double kReliability = 0.7;

  McBench(std::uint64_t seed, std::filesystem::path store)
      : seed_(seed), store_(std::move(store)) {}

  std::uint64_t tasks_per_slice() const override {
    return kReplications * kTasksPerReplication;
  }

  SliceTimes run_slice(std::uint32_t index, Tracer* tracer, bool keep,
                       Result& result) override {
    const std::uint64_t master = sr::rng::derive_seed(seed_, index);
    Sweep sweep = run_sweep(master, tracer, /*checkpoint=*/true, nullptr,
                            nullptr, index, result);
    if (tracer == nullptr) {
      untraced_run_s_.push_back(sweep.run_s);
    } else {
      std::vector<Interval> reps;
      const Sweep bare = run_sweep(master, nullptr, /*checkpoint=*/false,
                                   &reps, nullptr, index, result);
      bare_run_s_.push_back(bare.run_s);
      for (const Interval& rep : reps) {
        rep_ns_per_task_.push_back(static_cast<double>(rep.end - rep.start) /
                                   static_cast<double>(kTasksPerReplication));
      }
      overhead_ms_.push_back(bare.run_s * 1e3 - union_ns(reps) * 1e-6);
    }
    std::vector<std::uint8_t> fingerprint = fingerprint_of(sweep.merged, {});
    if (keep) {
      merged_.merge(sweep.merged);
      count_waves(master, fingerprint, index, result);
    }
    return {sweep.setup_s, sweep.run_s, tasks_per_slice(),
            sweep.merged.tasks_aborted, std::move(fingerprint)};
  }

  void model_metrics(Result& result) const override {
    std::vector<Bin> bins;
    std::uint64_t counted = 0;
    for (std::size_t w = 1; w < waves_.size(); ++w) {
      bins.push_back({static_cast<double>(w - 1), static_cast<double>(w),
                      waves_[w]});
      counted += waves_[w];
    }
    if (counted != merged_.tasks) {
      result.failures.push_back("mc_ckpt: wave counts cover " +
                                std::to_string(counted) + " of " +
                                std::to_string(merged_.tasks) + " tasks");
    }
    add_model_metrics(result, merged_.cost_factor(), merged_.reliability(),
                      binned_quantile(bins, 0.50), binned_quantile(bins, 0.99));
    check_iterative("mc_ckpt", merged_.cost_factor(), merged_.reliability(),
                    static_cast<double>(merged_.tasks), kReliability, result);
  }

  void layer_metrics(const TracedSlices& traced, Layers& layers) override {
    layers["redundancy.decide_calls"] = traced.calls_per_task(Site::kDecide);
    layers["redundancy.decide_ns"] = traced.ns_per_call(Site::kDecide);
    layers["redundancy.mc_ns_per_task"] =
        low_quantile(rep_ns_per_task_, kHostQuantile);
    layers["exp.overhead_ms"] = low_quantile(overhead_ms_, kHostQuantile);
    layers["ckpt.saves"] = static_cast<double>(saves_);
    layers["ckpt.files_per_epoch"] = files_per_epoch_;
    layers["ckpt.bytes_per_epoch"] = bytes_per_epoch_;
    layers["ckpt.save_ms"] = (low_quantile(untraced_run_s_, kHostQuantile) -
                              low_quantile(bare_run_s_, kHostQuantile)) *
                             1e3 / static_cast<double>(saves_);
  }

 private:
  struct Interval {
    std::int64_t start = 0;
    std::int64_t end = 0;
  };

  struct Sweep {
    double setup_s = 0.0;
    double run_s = 0.0;
    sr::redundancy::MonteCarloResult merged;
  };

  /// Host time covered by at least one interval.
  static double union_ns(std::vector<Interval> intervals) {
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                return a.start < b.start;
              });
    double covered = 0.0;
    std::int64_t reach = std::numeric_limits<std::int64_t>::min();
    for (const Interval& each : intervals) {
      const std::int64_t from = std::max(each.start, reach);
      if (each.end > from) covered += static_cast<double>(each.end - from);
      reach = std::max(reach, each.end);
    }
    return covered;
  }

  /// One sweep of kReplications replications. Strategies go through the
  /// decorator only when `tracer` or `waves` is set, so a timed untraced
  /// sweep runs the plain registry factory.
  Sweep run_sweep(std::uint64_t master, Tracer* tracer, bool checkpoint,
                  std::vector<Interval>* reps, WaveTally* waves,
                  std::uint32_t index, Result& result) {
    Sweep sweep;
    const std::int64_t t0 = now_ns();
    const auto inner = sr::redundancy::make_strategy(kIterative);
    std::optional<TracedFactory> traced;
    if (tracer != nullptr || waves != nullptr) {
      traced.emplace(*inner, tracer, waves);
    }
    const sr::redundancy::StrategyFactory& factory =
        traced ? static_cast<const sr::redundancy::StrategyFactory&>(*traced)
               : *inner;
    std::optional<sr::ckpt::SweepCheckpointer> checkpointer;
    sr::exp::RunnerConfig plan;
    plan.replications = kReplications;
    plan.threads = kThreads;
    plan.master_seed = master;
    if (checkpoint) {
      sr::ckpt::StoreConfig store;
      store.dir = store_;
      checkpointer.emplace(std::move(store), /*every=*/1, /*resume=*/false);
      plan.checkpoint = &checkpointer->plan_point("mc_ckpt");
    }
    sr::exp::ParallelRunner runner(plan);
    std::mutex reps_mutex;
    const std::int64_t t1 = now_ns();
    {
      const Tracer::Scope span(tracer, Site::kSweep);
      sweep.merged = sr::ckpt::run_resumable(
          runner, [&](std::uint64_t, std::uint64_t rep_seed) {
            const std::int64_t start = now_ns();
            const Tracer::Scope rep_span(tracer, Site::kRep);
            sr::redundancy::MonteCarloConfig config;
            config.tasks = kTasksPerReplication;
            config.seed = rep_seed;
            auto out = sr::redundancy::run_binary(factory, kReliability,
                                                  config);
            if (reps != nullptr) {
              const std::lock_guard<std::mutex> lock(reps_mutex);
              reps->push_back({start, now_ns()});
            }
            return out;
          });
    }
    const std::int64_t t2 = now_ns();
    sweep.setup_s = seconds(t1 - t0);
    sweep.run_s = seconds(t2 - t1);
    if (checkpoint) {
      check_checkpoint(*plan.checkpoint, plan, sweep.merged, index, result);
      if (tracer != nullptr) count_files(*plan.checkpoint);
    }
    return sweep;
  }

  /// The Monte-Carlo sampler has no clock, so its response time is counted
  /// in waves (dispatch decisions) per task. A kept sweep is replayed,
  /// untimed and without checkpoints, through a wave-counting factory; the
  /// replay must reproduce the timed sweep's merged result exactly.
  void count_waves(std::uint64_t master,
                   const std::vector<std::uint8_t>& timed, std::uint32_t index,
                   Result& result) {
    WaveTally tally;
    const Sweep replay = run_sweep(master, nullptr, /*checkpoint=*/false,
                                   nullptr, &tally, index, result);
    if (fingerprint_of(replay.merged, {}) != timed) {
      result.failures.push_back(
          "slice " + std::to_string(index) +
          ": the wave-counting replay differs from the timed sweep");
    }
    const WaveTally::Counts counts = tally.counts();
    for (std::size_t w = 0; w < WaveTally::kMaxWaves; ++w) {
      waves_[w] += counts[w];
    }
  }

  /// The sweep's last checkpoint must load back through the public API
  /// and decode to the merged result the sweep returned.
  static void check_checkpoint(const sr::ckpt::PointCheckpoint& point,
                               const sr::exp::RunnerConfig& plan,
                               const sr::redundancy::MonteCarloResult& merged,
                               std::uint32_t index, Result& result) {
    const auto loaded =
        sr::ckpt::load_point<sr::redundancy::MonteCarloResult>(point, plan);
    if (!loaded || !loaded->complete || !loaded->prefix ||
        fingerprint_of(*loaded->prefix, {}) != fingerprint_of(merged, {})) {
      result.failures.push_back(
          "slice " + std::to_string(index) +
          ": the last checkpoint does not decode to the merged result");
    }
  }

  /// Saves per sweep (epochs are numbered from 1 after a fresh point) and
  /// files and bytes per retained epoch, read from the store directory.
  void count_files(const sr::ckpt::PointCheckpoint& point) {
    const auto dir = point.store->point_dir(point.point);
    std::uint64_t files = 0;
    std::uint64_t bytes = 0;
    std::uint64_t epochs = 0;
    std::uint64_t newest = 0;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      ++files;
      bytes += entry.file_size();
      const std::string name = entry.path().filename().string();
      if (name.size() > 9 && name.ends_with(".manifest")) {
        ++epochs;
        newest = std::max<std::uint64_t>(
            newest, std::stoull(name.substr(1, name.find('.') - 1)));
      }
    }
    saves_ = newest;
    files_per_epoch_ =
        static_cast<double>(files) / static_cast<double>(epochs);
    bytes_per_epoch_ =
        static_cast<double>(bytes) / static_cast<double>(epochs);
  }

  std::uint64_t seed_;
  std::filesystem::path store_;
  sr::redundancy::MonteCarloResult merged_;
  WaveTally::Counts waves_{};
  std::vector<double> untraced_run_s_;
  std::vector<double> bare_run_s_;
  std::vector<double> rep_ns_per_task_;
  std::vector<double> overhead_ms_;
  std::uint64_t saves_ = 0;
  double files_per_epoch_ = 0.0;
  double bytes_per_epoch_ = 0.0;
};

std::unique_ptr<Bench> make_bench(const Options& options) {
  if (options.workload == "des_paper") {
    return std::make_unique<DesBench>(des_paper_shape(), options.seed, true);
  }
  if (options.workload == "des_stragglers_1m") {
    return std::make_unique<DesBench>(des_stragglers_shape(), options.seed,
                                      false);
  }
  if (options.workload == "pull_sat") {
    return std::make_unique<PullBench>(options.seed);
  }
  if (options.workload == "mc_ckpt") {
    return std::make_unique<McBench>(options.seed, options.scratch / "ckpt");
  }
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace

DesShape des_paper_shape() {
  // One replication of fig5a_xdevs at its defaults (50,000 tasks over 8
  // replications, 2,000 nodes each). With 4 first-wave jobs per task the
  // pool is oversubscribed 12.5 times, so tasks queue for idle nodes as in
  // the figure's own runs, whose profile ROADMAP item 2 cites.
  DesShape shape;
  shape.nodes = 2'000;
  shape.tasks = 6'250;
  shape.kept_slices = 100;
  shape.reliability = 0.7;
  shape.strategy = kIterative;
  shape.policy = "uniform";
  return shape;
}

DesShape des_stragglers_shape() {
  DesShape shape;
  shape.nodes = 1'000'000;
  shape.tasks = 2'000;
  shape.kept_slices = 100;
  shape.reliability = 0.9;
  shape.strategy = "coded:n=6,k=4,g=6";
  shape.policy = "least-outstanding";
  shape.stragglers = true;
  return shape;
}

DesSlice run_des_slice(const DesShape& shape,
                       const sr::redundancy::StrategyFactory& factory,
                       std::uint64_t seed, Tracer* tracer) {
  DesSlice out;
  const std::int64_t heap_before = tracer != nullptr ? heap_in_use() : 0;
  const std::int64_t t0 = now_ns();
  sr::sim::Simulator simulator;
  sr::dca::DcaConfig config;
  config.nodes = shape.nodes;
  config.seed = seed;
  std::optional<sr::fault::ParetoLatency> latency;
  std::optional<TracedLatencyModel> traced_latency;
  if (shape.stragglers) {
    // fig7_coded_tradeoff's straggler stack, plus 1% silent nodes.
    latency.emplace(0.5, 1.5);
    config.latency = tracer != nullptr
                         ? static_cast<sr::fault::LatencyModel*>(
                               &traced_latency.emplace(*latency, tracer))
                         : &*latency;
    config.timeout = 25.0;
    config.silent_prob = 0.01;
    config.queue_policy = sr::dca::QueuePolicy::kStartedTasksFirst;
    config.churn.join_rate = 2.0;
    config.churn.leave_rate = 2.0;
    config.deadline.adaptive = true;
    config.deadline.quantile = 0.9;
    config.deadline.multiplier = 1.5;
    config.deadline.warmup = 50;
    config.speculation.enabled = true;
    config.speculation.max_copies = 2;
    config.quarantine.enabled = true;
    config.quarantine.strike_threshold = 3;
    config.quarantine.backoff_base = 50.0;
    config.quarantine.backoff_factor = 2.0;
    config.quarantine.backoff_cap = 800.0;
  }
  std::unique_ptr<sr::dca::AssignmentPolicy> policy;
  std::optional<TracedPolicy> traced_policy;
  if (tracer != nullptr) {
    policy = sr::dca::make_policy(shape.policy);
    config.assignment = &traced_policy.emplace(*policy, tracer);
  } else {
    config.assignment_spec = shape.policy;
  }
  const sr::dca::SyntheticWorkload workload(shape.tasks);
  sr::fault::ByzantineCollusion failures(sr::fault::ReliabilityAssigner(
      sr::fault::ConstantReliability{shape.reliability},
      sr::rng::Stream(sr::rng::derive_seed(seed, 1))));
  std::optional<TracedFailureModel> traced_failures;
  sr::fault::FailureModel& reported =
      tracer != nullptr ? static_cast<sr::fault::FailureModel&>(
                              traced_failures.emplace(failures, tracer))
                        : failures;
  const TracedFactory traced_factory(factory, tracer, nullptr);
  const sr::redundancy::StrategyFactory& strategies =
      tracer != nullptr
          ? static_cast<const sr::redundancy::StrategyFactory&>(traced_factory)
          : factory;
  std::optional<sr::dca::TaskServer> server;
  {
    const Tracer::Scope span(tracer, Site::kSetup);
    server.emplace(simulator, config, strategies, workload, reported);
  }
  const std::int64_t t1 = now_ns();
  if (tracer != nullptr) out.setup_heap_bytes = heap_in_use() - heap_before;
  const std::int64_t t1_run = now_ns();
  {
    const Tracer::Scope span(tracer, Site::kRun);
    server->run();
  }
  const std::int64_t t2 = now_ns();
  out.setup_s = seconds(t1 - t0);
  out.run_s = seconds(t2 - t1_run);
  out.metrics = server->metrics();
  out.events = simulator.events_executed();
  out.fingerprint = fingerprint_of(out.metrics, std::span(&out.events, 1));
  return out;
}

Result run(const Options& options, std::ostream& log) {
  const std::unique_ptr<Bench> bench = make_bench(options);
  Result result;
  const std::size_t kept =
      std::max(bench->kept_slices(), min_samples(kHostQuantile));
  Tracer tracer;
  TracedSlices traced;
  traced.kept = kept;
  traced.tasks = bench->tasks_per_slice();
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> traced_run_s;
  std::vector<double> start_s;
  const std::int64_t start = now_ns();
  for (std::uint32_t i = 0;; ++i) {
    const double elapsed = seconds(now_ns() - start);
    if (i >= kept && elapsed >= options.seconds) break;
    if (elapsed >= kHardLimitSeconds) {
      result.failures.push_back("only " + std::to_string(i) + " of " +
                                std::to_string(kept) +
                                " kept slices ran before the time limit");
      return result;
    }
    start_s.push_back(elapsed);
    const SliceTimes plain = bench->run_slice(i, nullptr, i < kept, result);
    setup_s.push_back(plain.setup_s);
    run_s.push_back(plain.run_s);
    result.attempted += plain.tasks;
    result.failed += plain.aborted;
    if (!options.trace) continue;
    const SiteTotals before = tracer.totals();
    tracer.set_slice(i, /*detail=*/i == 0);
    const SliceTimes traced_slice = bench->run_slice(i, &tracer, false, result);
    traced.slices.push_back(delta(tracer.totals(), before));
    traced_run_s.push_back(traced_slice.run_s);
    result.attempted += traced_slice.tasks;
    result.failed += traced_slice.aborted;
    if (traced_slice.fingerprint != plain.fingerprint) {
      result.failures.push_back("slice " + std::to_string(i) +
                                ": traced outputs differ from untraced");
    }
  }

  if (!options.samples.empty()) {
    std::ofstream csv(options.samples);
    csv << "slice,start_s,setup_s,run_s\n";
    for (std::size_t i = 0; i < run_s.size(); ++i) {
      csv << i << ',' << start_s[i] << ',' << setup_s[i] << ',' << run_s[i]
          << '\n';
    }
  }
  const double run_p10 = low_quantile(run_s, kHostQuantile);
  const double run_p50 = low_quantile(run_s, 0.5);
  log << options.workload << ": " << run_s.size() << " slices of "
      << bench->tasks_per_slice() << " tasks; slice run time p10 "
      << run_p10 * 1e3 << " ms, median " << run_p50 * 1e3 << " ms, p90 "
      << low_quantile(run_s, 0.9) * 1e3 << " ms (median/p10 "
      << run_p50 / run_p10 << "); set-up p10 "
      << low_quantile(setup_s, kHostQuantile) * 1e3 << " ms, median "
      << low_quantile(setup_s, 0.5) * 1e3 << " ms\n";

  Result model;
  bench->model_metrics(model);
  result.failures.insert(result.failures.end(), model.failures.begin(),
                         model.failures.end());
  if (!options.trace) {
    result.metrics.push_back(
        {"tasks_per_s",
         static_cast<double>(bench->tasks_per_slice()) / run_p10, "1/s"});
    result.metrics.push_back(
        {"setup_s", low_quantile(setup_s, kHostQuantile), "s"});
    result.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    result.metrics.insert(result.metrics.end(), model.metrics.begin(),
                          model.metrics.end());
    return result;
  }

  Layers layers;
  for (const auto& [name, unit] : layer_metric_units()) layers[name] = 0.0;
  bench->layer_metrics(traced, layers);
  layers["obs.trace_overhead"] =
      low_quantile(traced_run_s, kHostQuantile) / run_p10;
  for (const auto& [name, unit] : layer_metric_units()) {
    result.metrics.push_back({name, layers.at(name), unit});
  }
  if (layers.size() != layer_metric_units().size()) {
    throw std::logic_error("a workload reported an undeclared layer metric");
  }
  std::filesystem::create_directories(options.scratch);
  const auto spans = options.scratch / ("spans-" + options.workload + ".jsonl");
  tracer.write_jsonl(spans);
  log << options.workload << ": spans written to " << spans.string() << "\n";
  return result;
}

}  // namespace perfbench
