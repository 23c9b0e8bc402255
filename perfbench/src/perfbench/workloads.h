// The benchmark's four workloads and the slice loop that measures them.
//
// A run is a sequence of slices. Slice i's inputs derive only from the
// run seed and i, every simulated task is queued at t=0 and decided inside
// its slice, and one slice is timed in two parts: set-up (everything
// before the first event) and the run itself. A fixed number of kept slices
// always run and their model outputs (cost, error rate, response times,
// event counts) are folded in slice order, so those outputs are a pure
// function of the seed; further slices only add timing samples until the
// requested seconds have passed.
//
// The traced run pairs every untraced slice with a traced run of the same
// inputs through the decorators of trace.h, checks that both produce the
// same outputs bit for bit, and reports per-layer numbers and the tracing
// overhead.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

#include "dca/metrics.h"
#include "perfbench/trace.h"
#include "redundancy/strategy.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the checkpoint store and the span file; created on
  /// demand, removed again by the caller.
  std::filesystem::path scratch;
  /// When set, every untraced slice's start offset, set-up and run time
  /// are written here as CSV, for the steadiness record.
  std::filesystem::path samples;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  /// One line per failed correctness check; empty when all passed.
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;  ///< simulated tasks run, all slices
  std::uint64_t failed = 0;     ///< tasks aborted without a result
  std::vector<Metric> metrics;

  [[nodiscard]] bool correct() const { return failures.empty(); }
};

/// Runs one workload as `options` asks; diagnostics go to `log`. Throws
/// std::invalid_argument for an unknown workload name.
[[nodiscard]] Result run(const Options& options, std::ostream& log);

/// One DES (push, TaskServer) configuration.
struct DesShape {
  std::size_t nodes = 0;
  std::uint64_t tasks = 0;  ///< tasks per slice
  std::size_t kept_slices = 0;  ///< slices whose model outputs are kept
  double reliability = 0.0;
  std::string strategy;
  std::string policy;
  /// The fig7 straggler stack: Pareto latency, churn, silent nodes,
  /// adaptive deadlines, speculation, quarantine, started-tasks-first.
  bool stragglers = false;
};

[[nodiscard]] DesShape des_paper_shape();
[[nodiscard]] DesShape des_stragglers_shape();

/// What one DES slice produced.
struct DesSlice {
  double setup_s = 0.0;
  double run_s = 0.0;
  smartred::dca::RunMetrics metrics;
  std::uint64_t events = 0;
  /// Heap bytes the set-up left allocated (pool, server, models).
  std::int64_t setup_heap_bytes = 0;
  /// Exact encoding of the slice's deterministic outputs.
  std::vector<std::uint8_t> fingerprint;
};

/// Runs one DES slice; with a tracer, every seam goes through the
/// decorators of trace.h.
[[nodiscard]] DesSlice run_des_slice(
    const DesShape& shape, const smartred::redundancy::StrategyFactory& factory,
    std::uint64_t seed, Tracer* tracer);

}  // namespace perfbench
