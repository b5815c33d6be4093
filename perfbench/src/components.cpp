#include "components.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <variant>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "crypto/drbg.hpp"
#include "crypto/hmac.hpp"
#include "features/ip_address.hpp"
#include "framework/rate_limiter.hpp"
#include "netsim/event_loop.hpp"
#include "netsim/network.hpp"
#include "pow/generator.hpp"
#include "pow/solver.hpp"
#include "pow/verifier.hpp"
#include "reputation/sharded_cache.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using powai::common::ErrorCode;
using powai::framework::Challenge;
using powai::framework::Request;
using powai::framework::Response;
using powai::framework::Submission;
using trace::Layer;

/// Mean cost of the two clock reads that bracket every timed call;
/// subtracted from each call so per-stage sums are not inflated by the
/// number of stages they are split into.
double timer_overhead_ns() {
  static const double overhead = [] {
    constexpr int kReps = 100000;
    std::int64_t total = 0;
    for (int i = 0; i < kReps; ++i) {
      const std::int64_t a = now_ns();
      total += now_ns() - a;
    }
    return static_cast<double>(total) / kReps;
  }();
  return overhead;
}

/// Accumulates one stage's calls and time, and records its span.
struct Stage {
  Layer layer;
  std::uint64_t calls = 0;
  std::int64_t ns = 0;

  void add(std::uint64_t parent, std::uint64_t request_id, std::int64_t a,
           std::int64_t z) {
    ++calls;
    ns += z - a;
    trace::record(layer, trace::next_id(), parent, request_id, a, z);
  }
  /// Total time net of the timer's own cost.
  [[nodiscard]] double net_ns() const {
    return std::max(0.0, static_cast<double>(ns) -
                             static_cast<double>(calls) * timer_overhead_ns());
  }
  [[nodiscard]] double mean_ns() const {
    return calls > 0 ? net_ns() / static_cast<double>(calls) : 0.0;
  }
};

/// Mean duration of \p body over \p reps calls, in nanoseconds.
template <typename F>
double loop_ns(std::size_t reps, F&& body) {
  const std::int64_t a = now_ns();
  for (std::size_t i = 0; i < reps; ++i) body(i);
  return static_cast<double>(now_ns() - a) / static_cast<double>(reps);
}

}  // namespace

ServerPass server_pass(powai::framework::PowServer& server,
                       const PassInput& input) {
  ServerPass out;
  // Allocations are counted inside each call only, so the span recording
  // between calls never pollutes them.
  AllocCounts request_allocs;
  AllocCounts submission_allocs;
  const auto count = [](AllocCounts& sum, const AllocCounts& before) {
    const AllocCounts after = thread_allocs();
    sum.count += after.count - before.count;
    sum.bytes += after.bytes - before.bytes;
  };
  std::int64_t request_ns = 0;
  for (const Request& r : input.requests) {
    const AllocCounts before = thread_allocs();
    const std::int64_t a = now_ns();
    const auto result = server.on_request(r);
    const std::int64_t z = now_ns();
    count(request_allocs, before);
    request_ns += z - a;
    trace::record(Layer::kServerRequest, trace::next_id(), 0, r.request_id, a,
                  z);
  }
  std::int64_t submission_ns = 0;
  for (std::size_t i = 0; i < input.submissions.size(); ++i) {
    const AllocCounts before = thread_allocs();
    const std::int64_t a = now_ns();
    const auto result =
        server.on_submission(input.submissions[i], input.observed_ips[i]);
    const std::int64_t z = now_ns();
    count(submission_allocs, before);
    submission_ns += z - a;
    trace::record(Layer::kServerSubmission, trace::next_id(), 0,
                  input.submissions[i].request_id, a, z);
  }

  const auto nr = static_cast<double>(input.requests.size());
  const auto ns = static_cast<double>(input.submissions.size());
  const double overhead = timer_overhead_ns();
  out.request_ns = static_cast<double>(request_ns) / nr - overhead;
  out.submission_ns = static_cast<double>(submission_ns) / ns - overhead;
  out.total_ns = out.request_ns * nr + out.submission_ns * ns;
  out.allocs_per_request = static_cast<double>(request_allocs.count) / nr;
  out.allocs_per_submission = static_cast<double>(submission_allocs.count) / ns;
  out.alloc_bytes_per_msg =
      static_cast<double>(request_allocs.bytes + submission_allocs.bytes) /
      (nr + ns);
  return out;
}

void add_server_pass_metrics(const ServerPass& pass, Metrics& m) {
  m.set("server.request_ns", pass.request_ns, "ns");
  m.set("server.submission_ns", pass.submission_ns, "ns");
  m.set("server.allocs_per_request", pass.allocs_per_request, "count");
  m.set("server.allocs_per_submission", pass.allocs_per_submission, "count");
  m.set("server.alloc_bytes_per_msg", pass.alloc_bytes_per_msg, "B");
}

void component_pass(const powai::reputation::IReputationModel& model,
                    const powai::policy::IPolicy& policy,
                    const powai::framework::ServerConfig& config,
                    const PassInput& input, const ServerPass& server,
                    Metrics& m, Verdict& verdict) {
  const auto& clock = powai::common::WallClock::instance();
  powai::framework::RateLimiter limiter(clock, config.rate_limiter);
  powai::reputation::ShardedReputationCache cache(clock, config.cache,
                                                  config.cache_shards);
  powai::pow::PuzzleGenerator generator(clock, config.master_secret);
  powai::pow::Verifier verifier(clock, config.master_secret, config.verifier);

  Stage parse{Layer::kParse}, allow{Layer::kRateLimit},
      lookup{Layer::kCacheLookup}, update{Layer::kCacheUpdate},
      score{Layer::kModelScore}, derive{Layer::kDeriveId},
      difficulty{Layer::kPolicy}, issue{Layer::kIssue};
  Stage accept{Layer::kVerify}, replay{Layer::kVerify}, forged{Layer::kVerify};
  std::vector<Challenge> challenges;
  challenges.reserve(input.requests.size());

  // Requests, stage by stage in the server's order.
  for (const Request& r : input.requests) {
    const std::uint64_t parent = trace::next_id();
    const std::int64_t begin = now_ns();
    std::int64_t a = begin;
    const auto ip = powai::features::IpAddress::parse(r.client_ip);
    std::int64_t z = now_ns();
    parse.add(parent, r.request_id, a, z);
    if (!ip) continue;
    if (config.rate_limiter_enabled) {
      a = now_ns();
      const bool ok = limiter.allow(*ip);
      z = now_ns();
      allow.add(parent, r.request_id, a, z);
      if (!ok) {
        trace::record(Layer::kComponentRequest, parent, 0, r.request_id,
                      begin, z);
        continue;
      }
    }
    a = now_ns();
    const std::optional<double> cached = cache.lookup(*ip);
    z = now_ns();
    lookup.add(parent, r.request_id, a, z);
    double s = 0.0;
    if (cached) {
      s = *cached;
    } else {
      a = now_ns();
      s = model.score(r.features);
      z = now_ns();
      score.add(parent, r.request_id, a, z);
      a = now_ns();
      (void)cache.update(*ip, s);
      z = now_ns();
      update.add(parent, r.request_id, a, z);
    }
    a = now_ns();
    const std::uint64_t pid =
        generator.derive_puzzle_id(r.client_ip, r.request_id);
    z = now_ns();
    derive.add(parent, r.request_id, a, z);
    a = now_ns();
    powai::common::Rng stream =
        powai::common::stream_rng(config.policy_seed, pid);
    const powai::policy::Difficulty d = policy.difficulty(s, stream);
    z = now_ns();
    difficulty.add(parent, r.request_id, a, z);
    a = now_ns();
    Challenge c{r.request_id, generator.issue_with_id(pid, r.client_ip, d)};
    z = now_ns();
    issue.add(parent, r.request_id, a, z);
    challenges.push_back(std::move(c));
    trace::record(Layer::kComponentRequest, parent, 0, r.request_id, begin, z);
  }

  // Submissions: each verified once (bucketed by outcome), then every
  // accepted one again (replay path) and with a wrong nonce (forged).
  std::int64_t submission_span_ns = 0;
  std::vector<std::size_t> accepted;
  for (std::size_t i = 0; i < input.submissions.size(); ++i) {
    const Submission& sub = input.submissions[i];
    const std::uint64_t parent = trace::next_id();
    const std::int64_t a = now_ns();
    const powai::common::Status st =
        verifier.verify(sub.puzzle, sub.solution, input.observed_ips[i]);
    const std::int64_t z = now_ns();
    submission_span_ns += z - a;
    const ErrorCode code = st.ok() ? ErrorCode::kOk : st.error().code;
    if (code == ErrorCode::kOk) {
      accept.add(parent, sub.request_id, a, z);
      accepted.push_back(i);
    } else if (code == ErrorCode::kReplay) {
      replay.add(parent, sub.request_id, a, z);
    } else {
      forged.add(parent, sub.request_id, a, z);
    }
    trace::record(Layer::kComponentSubmission, parent, 0, sub.request_id, a, z);
  }
  const std::size_t replay_entries = verifier.replay_entries();
  for (const std::size_t i : accepted) {
    const Submission& sub = input.submissions[i];
    const std::int64_t a = now_ns();
    const powai::common::Status st =
        verifier.verify(sub.puzzle, sub.solution, input.observed_ips[i]);
    replay.add(0, sub.request_id, a, now_ns());
    verdict.check(!st.ok(), "component pass: a replayed proof was accepted");
  }
  for (const std::size_t i : accepted) {
    const Submission& sub = input.submissions[i];
    powai::pow::Solution wrong = sub.solution;
    do {
      ++wrong.nonce;
    } while (powai::pow::is_valid_solution(sub.puzzle, wrong.nonce));
    const std::int64_t a = now_ns();
    const powai::common::Status st =
        verifier.verify(sub.puzzle, wrong, input.observed_ips[i]);
    forged.add(0, sub.request_id, a, now_ns());
    verdict.check(!st.ok(), "component pass: a wrong nonce was accepted");
  }

  // The codec over one exchange per issued challenge.
  const std::size_t exchanges =
      std::min(challenges.size(), input.submissions.size());
  std::vector<powai::common::Bytes> wire_request(exchanges);
  std::vector<powai::common::Bytes> wire_challenge(exchanges);
  std::vector<powai::common::Bytes> wire_submission(exchanges);
  std::vector<powai::common::Bytes> wire_response(exchanges);
  Response ok{0, ErrorCode::kOk, config.resource_body};
  const std::int64_t enc0 = now_ns();
  for (std::size_t i = 0; i < exchanges; ++i) {
    wire_request[i] = input.requests[i].serialize();
    wire_challenge[i] = challenges[i].serialize();
    wire_submission[i] = input.submissions[i].serialize();
    ok.request_id = input.submissions[i].request_id;
    wire_response[i] = ok.serialize();
  }
  const std::int64_t enc1 = now_ns();
  std::size_t bytes = 0;
  std::size_t decoded = 0;
  for (std::size_t i = 0; i < exchanges; ++i) {
    for (const auto* w : {&wire_request[i], &wire_challenge[i],
                          &wire_submission[i], &wire_response[i]}) {
      bytes += w->size();
      decoded += powai::framework::decode(*w).has_value() ? 1 : 0;
    }
  }
  const std::int64_t dec1 = now_ns();
  const double msgs = static_cast<double>(4 * exchanges);
  verdict.check(decoded == 4 * exchanges,
                "component pass: a serialized message did not decode");

  // netsim: the same bytes as four deliveries per exchange.
  double ns_per_event = 0.0;
  {
    powai::netsim::EventLoop loop;
    powai::common::Rng rng(1);
    powai::netsim::Network net(loop, rng);
    net.set_default_link(instant_link());
    std::uint64_t delivered = 0;
    net.add_host("198.51.100.1",
                 [&](const std::string&, powai::common::BytesView) {
                   ++delivered;
                 });
    net.add_host_group("10.0.0.1", exchanges,
                       [&](const std::string&, const std::string&,
                           powai::common::BytesView) { ++delivered; });
    std::vector<std::string> clients(exchanges);
    for (std::size_t i = 0; i < exchanges; ++i) {
      clients[i] = address(kClientBase, i);
    }
    const std::int64_t a = now_ns();
    for (std::size_t i = 0; i < exchanges; ++i) {
      (void)net.send(clients[i], "198.51.100.1", wire_request[i]);
      (void)net.send("198.51.100.1", clients[i], wire_challenge[i]);
      (void)net.send(clients[i], "198.51.100.1", wire_submission[i]);
      (void)net.send("198.51.100.1", clients[i], wire_response[i]);
    }
    const std::size_t events = loop.run();
    ns_per_event = static_cast<double>(now_ns() - a) /
                   static_cast<double>(std::max<std::size_t>(1, events));
    m.set("netsim.events_per_exch",
          static_cast<double>(delivered) / static_cast<double>(exchanges),
          "events");
  }

  // Crypto primitives and the solver, on this workload's first puzzle.
  const powai::common::Bytes mac_key =
      powai::pow::PuzzleGenerator::derive_mac_key(config.master_secret);
  const powai::common::Bytes prefix = challenges.front().puzzle.prefix_bytes();
  const double hmac_ns = loop_ns(20000, [&](std::size_t) {
    const auto digest = powai::crypto::hmac_sha256(mac_key, prefix);
    (void)digest;
  });
  const powai::crypto::DerivedDrbg drbg(mac_key);
  const double drbg_ns = loop_ns(20000, [&](std::size_t i) {
    const auto bytes32 = drbg.generate(i, 32);
    (void)bytes32;
  });
  powai::pow::Puzzle probe = challenges.front().puzzle;
  probe.difficulty = 40;  // never met within the probe budget
  const powai::pow::PuzzleContext context(probe);
  constexpr std::uint64_t kProbes = 1u << 20;
  const std::int64_t sa = now_ns();
  const powai::pow::ScanResult scan =
      powai::pow::Solver::scan(context, 0, 1, kProbes);
  const double hashes_per_s =
      static_cast<double>(scan.attempts) /
      (static_cast<double>(now_ns() - sa) * 1e-9);

  const double request_stages = parse.net_ns() + allow.net_ns() +
                                lookup.net_ns() + update.net_ns() +
                                score.net_ns() + derive.net_ns() +
                                difficulty.net_ns() + issue.net_ns();
  const double verify_stages =
      static_cast<double>(submission_span_ns) -
      static_cast<double>(input.submissions.size()) * timer_overhead_ns();

  m.set("server.stage_coverage",
        (request_stages + verify_stages) / server.total_ns, "ratio");
  m.set("reputation.cache_lookup_ns", lookup.mean_ns(), "ns");
  m.set("reputation.cache_update_ns", update.mean_ns(), "ns");
  m.set("generator.derive_id_ns", derive.mean_ns(), "ns");
  m.set("generator.issue_ns", issue.mean_ns(), "ns");
  m.set("crypto.hmac_ns", hmac_ns, "ns");
  m.set("crypto.drbg32_ns", drbg_ns, "ns");
  m.set("verifier.accept_ns", accept.mean_ns(), "ns");
  m.set("verifier.replay_ns", replay.mean_ns(), "ns");
  m.set("verifier.forged_ns", forged.mean_ns(), "ns");
  m.set("verifier.replay_entries", static_cast<double>(replay_entries),
        "count");
  m.set("rate_limiter.allow_ns", allow.mean_ns(), "ns");
  m.set("protocol.encode_ns", static_cast<double>(enc1 - enc0) / msgs, "ns");
  m.set("protocol.decode_ns", static_cast<double>(dec1 - enc1) / msgs, "ns");
  m.set("protocol.bytes_per_exch",
        static_cast<double>(bytes) / static_cast<double>(exchanges), "B");
  m.set("netsim.ns_per_event", ns_per_event, "ns");
  m.set("solver.hashes_per_s", hashes_per_s, "hash/s");
}

void batch_pass(powai::framework::PowServer& server, const PassInput& input,
                const ServerPass& single, std::size_t parties, Metrics& m) {
  constexpr std::size_t kBatch = 64;
  std::vector<float> walls;
  double wall_ns = 0.0;
  const auto timed = [&](auto&& call) {
    const std::int64_t a = now_ns();
    call();
    const std::int64_t z = now_ns();
    walls.push_back(static_cast<float>(static_cast<double>(z - a) * 1e-3));
    wall_ns += static_cast<double>(z - a);
  };
  for (std::size_t at = 0; at < input.requests.size(); at += kBatch) {
    const std::size_t n = std::min(kBatch, input.requests.size() - at);
    timed([&] {
      (void)server.on_request_batch(input.requests.subspan(at, n));
    });
  }
  for (std::size_t at = 0; at < input.submissions.size(); at += kBatch) {
    const std::size_t n = std::min(kBatch, input.submissions.size() - at);
    timed([&] {
      (void)server.on_submission_batch(input.submissions.subspan(at, n),
                                       input.observed_ips.subspan(at, n));
    });
  }
  const double items =
      static_cast<double>(input.requests.size() + input.submissions.size());
  m.set("batch.msgs_per_s", items / (wall_ns * 1e-9), "msg/s");
  m.set("batch.items_mean", items / static_cast<double>(walls.size()), "msgs");
  m.set("batch.wall_us_p50", percentile(walls, 0.5), "us");
  m.set("batch.wall_us_p99", percentile(walls, 0.99), "us");
  m.set("batch.efficiency",
        (static_cast<double>(input.requests.size()) * single.request_ns +
         static_cast<double>(input.submissions.size()) * single.submission_ns) /
            (wall_ns * static_cast<double>(parties)),
        "ratio");
}

}  // namespace perfbench
