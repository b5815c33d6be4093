#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "bench_util.hpp"

namespace perfbench::trace {

namespace {

constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

struct Buffer {
  std::vector<Span> spans;
  std::array<LayerTotals, kLayers> totals{};
  std::uint64_t clock_reads = 0;
  std::uint32_t thread = 0;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_open_parent{0};
std::atomic<std::size_t> g_stored{0};

// Buffers outlive their threads (pool workers exit before collect()).
std::mutex g_registry_mu;
std::vector<std::unique_ptr<Buffer>> g_registry;

Buffer& local_buffer() {
  thread_local Buffer* buffer = [] {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::make_unique<Buffer>());
    g_registry.back()->thread = static_cast<std::uint32_t>(g_registry.size());
    return g_registry.back().get();
  }();
  return *buffer;
}

}  // namespace

std::string_view layer_name(Layer layer) {
  switch (layer) {
    case Layer::kRequestBatch: return "server.request_batch";
    case Layer::kSubmissionBatch: return "server.submission_batch";
    case Layer::kScore: return "reputation.score";
    case Layer::kDifficulty: return "policy.difficulty";
    case Layer::kWireRun: return "sim.wire_run";
    case Layer::kServerRequest: return "server.on_request";
    case Layer::kServerSubmission: return "server.on_submission";
    case Layer::kComponentRequest: return "component.request";
    case Layer::kComponentSubmission: return "component.submission";
    case Layer::kParse: return "features.ip_parse";
    case Layer::kRateLimit: return "rate_limiter.allow";
    case Layer::kCacheLookup: return "reputation.cache_lookup";
    case Layer::kCacheUpdate: return "reputation.cache_update";
    case Layer::kModelScore: return "reputation.model_score";
    case Layer::kDeriveId: return "generator.derive_id";
    case Layer::kPolicy: return "policy.stream_difficulty";
    case Layer::kIssue: return "generator.issue";
    case Layer::kVerify: return "verifier.verify";
    case Layer::kCount: break;
  }
  return "unknown";
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t next_id() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

void set_open_parent(std::uint64_t id) {
  g_open_parent.store(id, std::memory_order_relaxed);
}
std::uint64_t open_parent() {
  return g_open_parent.load(std::memory_order_relaxed);
}

void record(Layer layer, std::uint64_t id, std::uint64_t parent,
            std::uint64_t request_id, std::int64_t start_ns,
            std::int64_t end_ns, std::uint32_t items) {
  if (!enabled()) return;
  Buffer& b = local_buffer();
  LayerTotals& t = b.totals[static_cast<std::size_t>(layer)];
  t.calls += 1;
  t.ns += end_ns - start_ns;
  if (g_stored.fetch_add(1, std::memory_order_relaxed) < kMaxStoredSpans) {
    b.spans.push_back(
        {id, parent, request_id, start_ns, end_ns, items, b.thread, layer});
  }
}

Snapshot collect() {
  Snapshot out;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (auto& b : g_registry) {
    out.spans.insert(out.spans.end(), b->spans.begin(), b->spans.end());
    for (std::size_t i = 0; i < kLayers; ++i) {
      out.totals[i].calls += b->totals[i].calls;
      out.totals[i].ns += b->totals[i].ns;
    }
    out.clock_reads += b->clock_reads;
    b->spans.clear();
    b->spans.shrink_to_fit();
    b->totals = {};
    b->clock_reads = 0;
  }
  g_stored.store(0, std::memory_order_relaxed);
  std::sort(out.spans.begin(), out.spans.end(),
            [](const Span& a, const Span& b) {
              return a.start_ns < b.start_ns;
            });
  return out;
}

std::array<std::int64_t, kLayers> self_times(const Snapshot& snapshot) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : snapshot.spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::array<std::int64_t, kLayers> self{};
  for (const Span& s : snapshot.spans) {
    std::int64_t covered = 0;
    if (const auto it = children.find(s.id); it != children.end()) {
      // Children arrive sorted by start (the snapshot is), so one sweep
      // merges their clipped intervals into a union.
      std::int64_t run_start = 0;
      std::int64_t run_end = -1;
      for (const Span* c : it->second) {
        const std::int64_t a = std::max(c->start_ns, s.start_ns);
        const std::int64_t z = std::min(c->end_ns, s.end_ns);
        if (z <= a) continue;
        if (a > run_end) {
          if (run_end > run_start) covered += run_end - run_start;
          run_start = a;
          run_end = z;
        } else {
          run_end = std::max(run_end, z);
        }
      }
      if (run_end > run_start) covered += run_end - run_start;
    }
    self[static_cast<std::size_t>(s.layer)] +=
        (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

bool write_spans(const std::string& path, const Snapshot& snapshot) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : snapshot.spans) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"request_id\":%llu,"
                 "\"name\":\"%.*s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"items\":%u,\"thread\":%u}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id),
                 static_cast<int>(layer_name(s.layer).size()),
                 layer_name(s.layer).data(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.items, s.thread);
  }
  return std::fclose(f) == 0;
}

double TimedModel::score(const powai::features::FeatureVector& x) const {
  const std::int64_t start = now_ns();
  const double s = inner_->score(x);
  record(Layer::kScore, next_id(), open_parent(), 0, start, now_ns());
  return s;
}

powai::policy::Difficulty TimedPolicy::difficulty(
    double score, powai::common::Rng& rng) const {
  const std::int64_t start = now_ns();
  const powai::policy::Difficulty d = inner_->difficulty(score, rng);
  record(Layer::kDifficulty, next_id(), open_parent(), 0, start, now_ns());
  return d;
}

powai::common::TimePoint CountingClock::now() const {
  if (enabled()) local_buffer().clock_reads += 1;
  return base_->now();
}

}  // namespace perfbench::trace
