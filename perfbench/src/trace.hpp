#pragma once
// Span recording for the traced run. Spans are taken only in the
// benchmark's own code, around its calls into the library: every batch
// call, the decorated reputation model and policy (TimedModel,
// TimedPolicy), the wire run, and the component pass. They are kept in
// per-thread memory and written out once, at exit.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "policy/policy.hpp"
#include "reputation/model.hpp"

namespace perfbench::trace {

enum class Layer : std::uint8_t {
  kRequestBatch,     ///< PowServer::on_request_batch
  kSubmissionBatch,  ///< PowServer::on_submission_batch
  kScore,            ///< IReputationModel::score (decorator)
  kDifficulty,       ///< IPolicy::difficulty (decorator)
  kWireRun,          ///< one whole wire run
  kServerRequest,    ///< single-thread pass: PowServer::on_request
  kServerSubmission, ///< single-thread pass: PowServer::on_submission
  kComponentRequest,    ///< component pass: one request, all stages
  kComponentSubmission, ///< component pass: one submission
  kParse,            ///< features::IpAddress::parse
  kRateLimit,        ///< framework::RateLimiter::allow
  kCacheLookup,      ///< reputation::ShardedReputationCache::lookup
  kCacheUpdate,      ///< reputation::ShardedReputationCache::update
  kModelScore,       ///< IReputationModel::score (component pass)
  kDeriveId,         ///< pow::PuzzleGenerator::derive_puzzle_id
  kPolicy,           ///< common::stream_rng + IPolicy::difficulty
  kIssue,            ///< pow::PuzzleGenerator::issue_with_id
  kVerify,           ///< pow::Verifier::verify
  kCount
};

[[nodiscard]] std::string_view layer_name(Layer layer);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;      ///< 0 = root
  std::uint64_t request_id = 0;  ///< 0 = not tied to one request
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t items = 1;       ///< messages the span covers
  std::uint32_t thread = 0;
  Layer layer = Layer::kCount;
};

struct LayerTotals {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
};

/// Everything recorded since the last collect().
struct Snapshot {
  /// The first kMaxStoredSpans spans; totals count every span.
  std::vector<Span> spans;
  std::array<LayerTotals, static_cast<std::size_t>(Layer::kCount)> totals{};
  std::uint64_t clock_reads = 0;

  [[nodiscard]] const LayerTotals& of(Layer layer) const {
    return totals[static_cast<std::size_t>(layer)];
  }
};

inline constexpr std::size_t kMaxStoredSpans = 100000;

void set_enabled(bool on);
[[nodiscard]] bool enabled();

/// Fresh span id (never 0).
[[nodiscard]] std::uint64_t next_id();

/// The span decorator calls attach to as their parent (the batch or
/// wire run currently open on the dispatching thread).
void set_open_parent(std::uint64_t id);
[[nodiscard]] std::uint64_t open_parent();

/// Records a finished span on the calling thread (no-op when disabled).
void record(Layer layer, std::uint64_t id, std::uint64_t parent,
            std::uint64_t request_id, std::int64_t start_ns,
            std::int64_t end_ns, std::uint32_t items = 1);

/// Gathers and clears every thread's spans and totals. Call only while
/// no instrumented call is running.
[[nodiscard]] Snapshot collect();

/// Self time per layer: each span's duration minus the part of its
/// interval covered by the union of its children, summed per layer.
[[nodiscard]] std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)>
self_times(const Snapshot& snapshot);

/// Writes the stored spans as JSON lines; false on I/O failure.
bool write_spans(const std::string& path, const Snapshot& snapshot);

/// Times every score() call as a kScore span under the open parent.
class TimedModel final : public powai::reputation::IReputationModel {
 public:
  explicit TimedModel(const powai::reputation::IReputationModel& inner)
      : inner_(&inner) {}
  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  void fit(const powai::features::Dataset&) override {}
  [[nodiscard]] bool fitted() const override { return inner_->fitted(); }
  [[nodiscard]] double score(
      const powai::features::FeatureVector& x) const override;
  [[nodiscard]] double error_epsilon() const override {
    return inner_->error_epsilon();
  }

 private:
  const powai::reputation::IReputationModel* inner_;
};

/// Times every difficulty() call as a kDifficulty span.
class TimedPolicy final : public powai::policy::IPolicy {
 public:
  explicit TimedPolicy(const powai::policy::IPolicy& inner) : inner_(&inner) {}
  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  [[nodiscard]] powai::policy::Difficulty difficulty(
      double score, powai::common::Rng& rng) const override;
  [[nodiscard]] std::string describe() const override {
    return inner_->describe();
  }

 private:
  const powai::policy::IPolicy* inner_;
};

/// A clock that counts its reads (Snapshot::clock_reads) and otherwise
/// defers to \p base, which must outlive it.
class CountingClock final : public powai::common::Clock {
 public:
  explicit CountingClock(const powai::common::Clock& base) : base_(&base) {}
  [[nodiscard]] powai::common::TimePoint now() const override;

 private:
  const powai::common::Clock* base_;
};

}  // namespace perfbench::trace
