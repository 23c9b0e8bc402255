// The traced run's span recorder and the forwarding decorators it installs
// on the seams the substrates already take by reference.
//
// Spans are opened around calls into each layer from the benchmark's side
// of the seam: substrate construction and run(), the SAT ground-truth
// solve, every FailureModel::report / LatencyModel::sample /
// AssignmentPolicy::select / admit / RedundancyStrategy::decide call, and
// the ParallelRunner replication bodies and sweeps. A span's self time is
// its duration minus the time of the spans opened inside it on the same
// thread. Totals per site are kept for every span; full span records are
// kept in memory for the coarse sites always and for the first 50,000
// per-call spans of the slices marked `detail`, and written out once at
// exit.
//
// Every decorator forwards every virtual of the interface it wraps —
// including stateless(), eager(), encoder(), kind(), name() and reset() —
// so a decorated run takes exactly the code paths and draws exactly the
// random numbers of an undecorated one.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "dca/assignment.h"
#include "fault/failure_model.h"
#include "fault/latency_model.h"
#include "redundancy/strategy.h"

namespace perfbench {

/// Where a span was opened.
enum class Site : std::uint8_t {
  kSetup,    ///< substrate construction: pool, policy, models, server
  kRun,      ///< TaskServer::run() / Deployment::run()
  kSolve,    ///< SatWorkload ground-truth solve
  kReport,   ///< fault::FailureModel::report
  kLatency,  ///< fault::LatencyModel::sample
  kSelect,   ///< dca::AssignmentPolicy::select
  kAdmit,    ///< dca::AssignmentPolicy::admit
  kDecide,   ///< redundancy::RedundancyStrategy::decide
  kRep,      ///< one exp::ParallelRunner replication body
  kSweep,    ///< one ckpt::run_resumable sweep
};
inline constexpr std::size_t kSiteCount = 10;

[[nodiscard]] const char* site_name(Site site);

/// Task id of spans whose seam passes none.
inline constexpr std::uint64_t kNoTask = ~std::uint64_t{0};

/// Monotonic host time in nanoseconds.
[[nodiscard]] std::int64_t now_ns();

/// Per-site call count, total time and self time.
struct Totals {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};
using SiteTotals = std::array<Totals, kSiteCount>;

/// `after - before`, site by site.
[[nodiscard]] SiteTotals delta(const SiteTotals& after,
                               const SiteTotals& before);

/// In-memory span recorder. Each thread records into its own lane, so
/// spans from ParallelRunner workers need no lock; totals() and
/// write_jsonl() must only be called while no thread is recording.
class Tracer {
 public:
  struct Span {
    Site site = Site::kRun;
    std::uint32_t slice = 0;
    std::uint64_t task = kNoTask;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t self_ns = 0;
    std::uint32_t lane = 0;
    std::int64_t parent = -1;  ///< index of the enclosing kept span in the lane
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Spans opened from now on carry `slice`; per-call spans are kept as
  /// records only while `detail` is set (totals are always kept).
  void set_slice(std::uint32_t slice, bool detail);

  void begin(Site site, std::uint64_t task);
  void end();

  /// Opens a span for its lifetime; a null tracer makes it a no-op.
  class Scope {
   public:
    Scope(Tracer* tracer, Site site, std::uint64_t task = kNoTask)
        : tracer_(tracer) {
      if (tracer_ != nullptr) tracer_->begin(site, task);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->end();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  /// Totals of every lane, summed.
  [[nodiscard]] SiteTotals totals() const;

  /// Kept span records of every lane, in lane order.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Writes every kept span as one JSON object per line.
  void write_jsonl(const std::filesystem::path& path) const;

 private:
  struct Open {
    Site site;
    std::uint64_t task;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int64_t record;  ///< index into Lane::spans, or -1 when not kept
  };
  struct Lane {
    std::uint32_t index = 0;
    std::vector<Open> stack;
    SiteTotals totals{};
    std::vector<Span> spans;
  };

  Lane& lane();

  const std::uint64_t id_;
  std::atomic<std::uint32_t> slice_{0};
  std::atomic<bool> detail_{false};
  mutable std::mutex mutex_;
  std::deque<Lane> lanes_;  ///< guarded by mutex_ while lanes are added
};

class TracedFailureModel final : public smartred::fault::FailureModel {
 public:
  TracedFailureModel(smartred::fault::FailureModel& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  smartred::redundancy::ResultValue report(
      smartred::redundancy::NodeId node, std::uint64_t task,
      smartred::redundancy::ResultValue correct,
      smartred::rng::Stream& rng) override;

 private:
  smartred::fault::FailureModel& inner_;
  Tracer* tracer_;
};

class TracedLatencyModel final : public smartred::fault::LatencyModel {
 public:
  TracedLatencyModel(smartred::fault::LatencyModel& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  double sample(smartred::redundancy::NodeId node, std::uint64_t task,
                smartred::rng::Stream& rng) override;

 private:
  smartred::fault::LatencyModel& inner_;
  Tracer* tracer_;
};

class TracedPolicy final : public smartred::dca::AssignmentPolicy {
 public:
  TracedPolicy(smartred::dca::AssignmentPolicy& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::optional<smartred::redundancy::NodeId> select(
      const smartred::dca::AssignContext& context,
      const smartred::dca::NodePool& pool,
      smartred::rng::Stream& rng) override;
  bool admit(const smartred::dca::AssignContext& context,
             smartred::redundancy::NodeId client) override;
  void bind(const smartred::dca::NodePool& pool) override;
  void on_join(smartred::redundancy::NodeId node) override;
  void on_leave(smartred::redundancy::NodeId node) override;
  void on_dispatch(smartred::redundancy::NodeId node,
                   const smartred::dca::AssignContext& context) override;
  void on_complete(smartred::redundancy::NodeId node, bool on_time) override;
  void on_quarantine(smartred::redundancy::NodeId node) override;
  void on_readmit(smartred::redundancy::NodeId node) override;
  void on_task_decided(std::span<const smartred::redundancy::Vote> votes,
                       smartred::redundancy::ResultValue accepted) override;
  void on_task_settled(std::uint64_t task) override;
  void reset() override;
  [[nodiscard]] std::string_view name() const override;
  [[nodiscard]] smartred::dca::PolicyKind kind() const override;

 private:
  smartred::dca::AssignmentPolicy& inner_;
  Tracer* tracer_;
};

/// Exact distribution of waves per task over every strategy instance a
/// TracedFactory made. Bin w counts the tasks that took w waves; tasks
/// that took kMaxWaves - 1 or more waves share the last bin.
class WaveTally {
 public:
  static constexpr std::size_t kMaxWaves = 256;
  using Counts = std::array<std::uint64_t, kMaxWaves>;

  /// A zeroed block of counts for one strategy instance, valid for the
  /// tally's lifetime. Thread-safe.
  [[nodiscard]] Counts& slot();

  /// The sum of all blocks; call only while no strategy is counting.
  [[nodiscard]] Counts counts() const;

 private:
  mutable std::mutex mutex_;
  std::deque<Counts> slots_;  ///< deque: blocks keep their address
};

/// Decorates a strategy factory: the strategies it makes time decide()
/// when a tracer is set and, when a tally is set, count the dispatch
/// decisions (waves) of each task between reset() calls. Counting waves
/// per task needs one engine per task at a time, as the Monte-Carlo
/// sampler uses it.
class TracedFactory final : public smartred::redundancy::StrategyFactory {
 public:
  TracedFactory(const smartred::redundancy::StrategyFactory& inner,
                Tracer* tracer, WaveTally* waves)
      : inner_(inner), tracer_(tracer), waves_(waves) {}

  [[nodiscard]] std::unique_ptr<smartred::redundancy::RedundancyStrategy>
  make() const override;
  [[nodiscard]] bool stateless() const override { return inner_.stateless(); }
  [[nodiscard]] const smartred::redundancy::TaskEncoder* encoder()
      const override {
    return inner_.encoder();
  }
  [[nodiscard]] bool eager() const override { return inner_.eager(); }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  const smartred::redundancy::StrategyFactory& inner_;
  Tracer* tracer_;
  WaveTally* waves_;
};

}  // namespace perfbench
