#pragma once
// Single-threaded passes of the traced run over one workload's inputs:
//
// - server_pass: PowServer::on_request / on_submission one message at a
//   time on a fresh server, timed from outside and with the exact
//   allocation counts of the calling thread.
// - component_pass: the same inputs through each layer's own public
//   function, in the order the server calls them (parse, rate limit,
//   cache lookup, score, cache update, derive id, policy, issue, verify),
//   plus the codec, the crypto primitives, the solver and netsim.
//
// Their ratio is server.stage_coverage: how much of the server's own
// time the named stages explain.

#include <cstdint>
#include <span>
#include <string>

#include "bench_util.hpp"
#include "framework/protocol.hpp"
#include "framework/server.hpp"
#include "policy/policy.hpp"
#include "reputation/model.hpp"

namespace perfbench {

struct PassInput {
  std::span<const powai::framework::Request> requests;
  std::span<const powai::framework::Submission> submissions;
  std::span<const std::string> observed_ips;  ///< one per submission
};

struct ServerPass {
  double request_ns = 0.0;     ///< mean on_request time
  double submission_ns = 0.0;  ///< mean on_submission time
  double total_ns = 0.0;
  double allocs_per_request = 0.0;
  double allocs_per_submission = 0.0;
  double alloc_bytes_per_msg = 0.0;
};

/// \p server must be fresh (no prior traffic from these sources).
[[nodiscard]] ServerPass server_pass(powai::framework::PowServer& server,
                                     const PassInput& input);

/// Runs the component pass and adds its per-layer metrics (plus
/// server.stage_coverage against \p server) to \p metrics. A replayed
/// or forged proof that verifies is recorded in \p verdict.
void component_pass(const powai::reputation::IReputationModel& model,
                    const powai::policy::IPolicy& policy,
                    const powai::framework::ServerConfig& config,
                    const PassInput& input, const ServerPass& server,
                    Metrics& metrics, Verdict& verdict);

/// The batch entry points over \p input in batches of 64 on a fresh
/// \p server: batch wall-time percentiles, and parallel efficiency
/// against the single-threaded cost \p single over \p parties threads.
void batch_pass(powai::framework::PowServer& server, const PassInput& input,
                const ServerPass& single, std::size_t parties,
                Metrics& metrics);

/// Replays \p input as wire bytes through a ServerEndpoint and an
/// AsyncFrontEnd over netsim (requests at one instant, then the
/// submissions) and adds the front-end and netsim metrics. Every
/// message must be answered.
void front_end_pass(const powai::reputation::IReputationModel& model,
                    const powai::policy::IPolicy& policy,
                    const powai::framework::ServerConfig& config,
                    const PassInput& input, Metrics& metrics,
                    Verdict& verdict);

/// Adds the server-pass metrics to \p metrics.
void add_server_pass_metrics(const ServerPass& pass, Metrics& metrics);

}  // namespace perfbench
