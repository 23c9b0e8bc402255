#include "perfbench/trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

/// Sites whose spans are one per call on a hot path: their records are
/// kept only for detail slices.
bool per_call(Site site) {
  switch (site) {
    case Site::kReport:
    case Site::kLatency:
    case Site::kSelect:
    case Site::kAdmit:
    case Site::kDecide:
      return true;
    default:
      return false;
  }
}

/// Per-call span records kept per lane, so a detail slice stays a sample
/// and not the bulk of the span file.
constexpr std::size_t kMaxDetailSpans = 50'000;

std::atomic<std::uint64_t> next_tracer_id{1};

/// The lane this thread records into, keyed by tracer id (not address, so
/// a new tracer at a dead one's address never inherits its lane).
struct LaneCache {
  std::uint64_t tracer = 0;
  void* lane = nullptr;
};
thread_local LaneCache lane_cache;

}  // namespace

const char* site_name(Site site) {
  switch (site) {
    case Site::kSetup: return "substrate.setup";
    case Site::kRun: return "substrate.run";
    case Site::kSolve: return "sat.solve";
    case Site::kReport: return "fault.report";
    case Site::kLatency: return "fault.latency";
    case Site::kSelect: return "dca.select";
    case Site::kAdmit: return "dca.admit";
    case Site::kDecide: return "redundancy.decide";
    case Site::kRep: return "exp.rep";
    case Site::kSweep: return "ckpt.sweep";
  }
  return "unknown";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SiteTotals delta(const SiteTotals& after, const SiteTotals& before) {
  SiteTotals out{};
  for (std::size_t i = 0; i < kSiteCount; ++i) {
    out[i].calls = after[i].calls - before[i].calls;
    out[i].total_ns = after[i].total_ns - before[i].total_ns;
    out[i].self_ns = after[i].self_ns - before[i].self_ns;
  }
  return out;
}

Tracer::Tracer() : id_(next_tracer_id.fetch_add(1)) {}

void Tracer::set_slice(std::uint32_t slice, bool detail) {
  slice_.store(slice, std::memory_order_relaxed);
  detail_.store(detail, std::memory_order_relaxed);
}

Tracer::Lane& Tracer::lane() {
  if (lane_cache.tracer != id_) {
    const std::lock_guard<std::mutex> lock(mutex_);
    Lane& fresh = lanes_.emplace_back();
    fresh.index = static_cast<std::uint32_t>(lanes_.size() - 1);
    lane_cache = {id_, &fresh};
  }
  return *static_cast<Lane*>(lane_cache.lane);
}

void Tracer::begin(Site site, std::uint64_t task) {
  Lane& mine = lane();
  std::int64_t record = -1;
  if (!per_call(site) || (detail_.load(std::memory_order_relaxed) &&
                          mine.spans.size() < kMaxDetailSpans)) {
    Span span;
    span.site = site;
    span.slice = slice_.load(std::memory_order_relaxed);
    span.task = task;
    span.lane = mine.index;
    for (auto it = mine.stack.rbegin(); it != mine.stack.rend(); ++it) {
      if (it->record >= 0) {
        span.parent = it->record;
        break;
      }
    }
    record = static_cast<std::int64_t>(mine.spans.size());
    mine.spans.push_back(span);
  }
  mine.stack.push_back({site, task, now_ns(), 0, record});
}

void Tracer::end() {
  const std::int64_t stop = now_ns();
  Lane& mine = lane();
  if (mine.stack.empty()) throw std::logic_error("span end without begin");
  const Open open = mine.stack.back();
  mine.stack.pop_back();
  const std::int64_t duration = stop - open.start_ns;
  Totals& totals = mine.totals[static_cast<std::size_t>(open.site)];
  ++totals.calls;
  totals.total_ns += duration;
  totals.self_ns += duration - open.child_ns;
  if (!mine.stack.empty()) mine.stack.back().child_ns += duration;
  if (open.record >= 0) {
    Span& span = mine.spans[static_cast<std::size_t>(open.record)];
    span.start_ns = open.start_ns;
    span.end_ns = stop;
    span.self_ns = duration - open.child_ns;
  }
}

SiteTotals Tracer::totals() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  SiteTotals sum{};
  for (const Lane& each : lanes_) {
    for (std::size_t i = 0; i < kSiteCount; ++i) {
      sum[i].calls += each.totals[i].calls;
      sum[i].total_ns += each.totals[i].total_ns;
      sum[i].self_ns += each.totals[i].self_ns;
    }
  }
  return sum;
}

std::vector<Tracer::Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const Lane& each : lanes_) {
    all.insert(all.end(), each.spans.begin(), each.spans.end());
  }
  return all;
}

void Tracer::write_jsonl(const std::filesystem::path& path) const {
  std::ofstream out(path);
  for (const Span& span : spans()) {
    out << "{\"site\":\"" << site_name(span.site) << "\",\"slice\":"
        << span.slice << ",\"task\":";
    if (span.task == kNoTask) {
      out << "null";
    } else {
      out << span.task;
    }
    out << ",\"lane\":" << span.lane << ",\"parent\":" << span.parent
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << ",\"self_ns\":" << span.self_ns << "}\n";
  }
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

smartred::redundancy::ResultValue TracedFailureModel::report(
    smartred::redundancy::NodeId node, std::uint64_t task,
    smartred::redundancy::ResultValue correct, smartred::rng::Stream& rng) {
  const Tracer::Scope span(tracer_, Site::kReport, task);
  return inner_.report(node, task, correct, rng);
}

double TracedLatencyModel::sample(smartred::redundancy::NodeId node,
                                  std::uint64_t task,
                                  smartred::rng::Stream& rng) {
  const Tracer::Scope span(tracer_, Site::kLatency, task);
  return inner_.sample(node, task, rng);
}

std::optional<smartred::redundancy::NodeId> TracedPolicy::select(
    const smartred::dca::AssignContext& context,
    const smartred::dca::NodePool& pool, smartred::rng::Stream& rng) {
  const Tracer::Scope span(tracer_, Site::kSelect, context.task);
  return inner_.select(context, pool, rng);
}

bool TracedPolicy::admit(const smartred::dca::AssignContext& context,
                         smartred::redundancy::NodeId client) {
  const Tracer::Scope span(tracer_, Site::kAdmit, context.task);
  return inner_.admit(context, client);
}

void TracedPolicy::bind(const smartred::dca::NodePool& pool) {
  inner_.bind(pool);
}
void TracedPolicy::on_join(smartred::redundancy::NodeId node) {
  inner_.on_join(node);
}
void TracedPolicy::on_leave(smartred::redundancy::NodeId node) {
  inner_.on_leave(node);
}
void TracedPolicy::on_dispatch(smartred::redundancy::NodeId node,
                               const smartred::dca::AssignContext& context) {
  inner_.on_dispatch(node, context);
}
void TracedPolicy::on_complete(smartred::redundancy::NodeId node,
                               bool on_time) {
  inner_.on_complete(node, on_time);
}
void TracedPolicy::on_quarantine(smartred::redundancy::NodeId node) {
  inner_.on_quarantine(node);
}
void TracedPolicy::on_readmit(smartred::redundancy::NodeId node) {
  inner_.on_readmit(node);
}
void TracedPolicy::on_task_decided(
    std::span<const smartred::redundancy::Vote> votes,
    smartred::redundancy::ResultValue accepted) {
  inner_.on_task_decided(votes, accepted);
}
void TracedPolicy::on_task_settled(std::uint64_t task) {
  inner_.on_task_settled(task);
}
void TracedPolicy::reset() { inner_.reset(); }
std::string_view TracedPolicy::name() const { return inner_.name(); }
smartred::dca::PolicyKind TracedPolicy::kind() const { return inner_.kind(); }

WaveTally::Counts& WaveTally::slot() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return slots_.emplace_back(Counts{});
}

WaveTally::Counts WaveTally::counts() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Counts sum{};
  for (const Counts& block : slots_) {
    for (std::size_t w = 0; w < kMaxWaves; ++w) sum[w] += block[w];
  }
  return sum;
}

namespace {

class TracedStrategy final : public smartred::redundancy::RedundancyStrategy {
 public:
  TracedStrategy(
      std::unique_ptr<smartred::redundancy::RedundancyStrategy> inner,
      Tracer* tracer, WaveTally::Counts* waves)
      : inner_(std::move(inner)), tracer_(tracer), waves_(waves) {}

  TracedStrategy(const TracedStrategy&) = delete;
  TracedStrategy& operator=(const TracedStrategy&) = delete;

  ~TracedStrategy() override { close_task(); }

  smartred::redundancy::Decision decide(
      std::span<const smartred::redundancy::Vote> votes) override {
    const Tracer::Scope span(tracer_, Site::kDecide);
    smartred::redundancy::Decision decision = inner_->decide(votes);
    if (!decision.done()) ++task_waves_;
    return decision;
  }

  void reset() override {
    close_task();
    inner_->reset();
  }

 private:
  void close_task() {
    if (waves_ == nullptr || task_waves_ == 0) return;
    ++(*waves_)[std::min(task_waves_, WaveTally::kMaxWaves - 1)];
    task_waves_ = 0;
  }

  std::unique_ptr<smartred::redundancy::RedundancyStrategy> inner_;
  Tracer* tracer_;
  WaveTally::Counts* waves_;  ///< this instance's block of the tally
  std::size_t task_waves_ = 0;
};

}  // namespace

std::unique_ptr<smartred::redundancy::RedundancyStrategy> TracedFactory::make()
    const {
  return std::make_unique<TracedStrategy>(
      inner_.make(), tracer_, waves_ != nullptr ? &waves_->slot() : nullptr);
}

}  // namespace perfbench
