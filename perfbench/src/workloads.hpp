#pragma once
// The three workloads and what they share: run options, the outcome
// (metrics + verdict + report lines), the reputation training set, and
// the set-up timing rule.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "features/dataset.hpp"
#include "framework/protocol.hpp"
#include "netsim/link.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_dir;  ///< where the traced run writes its spans
};

struct Outcome {
  Metrics metrics;  ///< end-to-end (untraced) or per-layer (traced)
  Verdict verdict;
  std::vector<std::string> report;  ///< human-readable lines for stdout
  std::string threads;              ///< thread layout, for the stamp
  double gen_s = 0.0;               ///< input generation, not gated
};

/// The labeled feed the reputation model is fitted on. It is part of the
/// deployment, not of the traffic, so it does not vary with the seed:
/// refitting per seed moved every score across the policy's integer
/// difficulty steps and made the work metrics swing by a fifth.
[[nodiscard]] powai::features::Dataset training_set();

/// Dotted-quad address \p offset hosts after \p base (host order).
[[nodiscard]] std::string address(std::uint32_t base, std::size_t offset);

inline constexpr std::uint32_t kClientBase = 0x0A000001;  // 10.0.0.1
inline constexpr std::uint32_t kHotBase = 0x64400001;     // 100.64.0.1
inline constexpr std::uint32_t kWarmBase = 0xC0000201;    // 192.0.2.1

/// 64 benign requests from their own sources (kWarmBase): the first
/// batch call starts a server's pool and warms it.
[[nodiscard]] std::vector<powai::framework::Request> warm_requests(
    std::uint64_t seed);

/// A deterministic link with no latency, jitter or loss.
[[nodiscard]] powai::netsim::LinkModel instant_link();

/// Runs \p one_setup \p reps times and returns the median duration in
/// seconds: model fit, server construction and pool warm-up.
[[nodiscard]] double median_setup_s(int reps,
                                    const std::function<void()>& one_setup);

/// Set-ups timed per run; the median is reported as setup_s.
inline constexpr int kSetupReps = 5;

/// Prints self time per layer over \p snapshots into the report and
/// writes their spans to the trace directory (at exit of the traced run).
void finish_trace(const Options& options,
                  const std::vector<const trace::Snapshot*>& snapshots,
                  Outcome& out);

void run_replay(const Options& options, bool flood, Outcome& out);
void run_wire(const Options& options, Outcome& out);

}  // namespace perfbench
