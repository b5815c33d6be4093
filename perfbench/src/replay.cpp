// fresh_open and flood_open: server-only, open-loop replays.
//
// Inputs are generated from the seed and issued + solved during set-up
// by a twin PowServer holding the same secret, so the timed region never
// solves. A single dispatcher thread (this one) then replays them into a
// fresh server per repetition through the batch entry points, in batches
// of at most 64 messages (the AsyncFrontEnd shape), while the server's
// pool has nproc - 1 workers: the dispatcher joins each batch as the
// last party, so the run never oversubscribes the machine.
//
// Two phases: a paced phase at a fixed offered rate through the batch
// entry points (per-leg latency, each leg timed from its due time to its
// answer) and a saturation phase (everything due at once; peak messages
// per second) through the single-message entry points on the dispatcher
// thread. The traced run adds a batch saturation phase for the pool's
// own figures.

#include <algorithm>
#include <climits>
#include <cmath>
#include <memory>
#include <thread>

#include "common/clock.hpp"
#include "common/thread_pool.hpp"
#include "components.hpp"
#include "features/ip_address.hpp"
#include "features/synthetic.hpp"
#include "framework/server.hpp"
#include "policy/linear_policy.hpp"
#include "pow/generator.hpp"
#include "pow/solver.hpp"
#include "reputation/dabr.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using powai::common::ErrorCode;
using powai::framework::Challenge;
using powai::framework::PowServer;
using powai::framework::Request;
using powai::framework::Response;
using powai::framework::ServerConfig;
using powai::framework::Submission;

/// What a message must come back as.
enum class Expect : std::uint8_t {
  kChallenge,  ///< fresh source: the twin's puzzle
  kHot,        ///< hot source: its puzzle, or kRateLimited past the budget
  kServed,     ///< legitimate proof: kOk
  kReplay,     ///< planted replay of a redeemed proof: kReplay
  kForged,     ///< planted wrong nonce: kBadSolution
};

/// Per-workload traffic constants. The offered rates are fixed numbers (a
/// third and a quarter of peak on a 4-vCPU Xeon with SHA-NI), never derived
/// from a measurement, so every commit is offered the same load.
struct Shape {
  std::size_t exchanges = 0;     ///< fresh-source exchanges per repetition
  double attacker_share = 0.0;   ///< of those, with attacker features
  std::size_t hot_sources = 0;
  std::size_t hot_requests = 0;
  std::size_t replays = 0;
  std::size_t forgeries = 0;
  double hot_budget = 0.0;       ///< per-IP burst of the rate limiter
  double offered_msgs_per_s = 0.0;
};

Shape shape_for(bool flood) {
  Shape s;
  if (!flood) {
    s.exchanges = 60000;
    s.attacker_share = 0.1;
    s.hot_budget = 512;  // no fresh source comes near it
    s.offered_msgs_per_s = 120000;
  } else {
    s.exchanges = 12000;
    s.hot_sources = 1024;
    s.hot_requests = 84000;  // 82 per hot source
    s.replays = 6000;
    s.forgeries = 6000;
    s.hot_budget = 48;
    s.offered_msgs_per_s = 100000;
  }
  return s;
}

constexpr std::size_t kMaxBatch = 64;
constexpr std::int64_t kThinkNs = 2'000'000;         // request → submission
constexpr std::int64_t kReplayDelayNs = 20'000'000;  // proof → its replay
constexpr std::uint32_t kNoHot = UINT32_MAX;

struct Inputs {
  std::vector<Request> requests;  ///< in due order
  std::vector<std::int64_t> request_due;
  std::vector<Expect> request_expect;
  std::vector<std::uint64_t> request_pid;
  std::vector<std::uint8_t> request_d;
  std::vector<std::uint8_t> request_attacker;
  std::vector<std::uint32_t> request_hot;
  std::vector<Submission> submissions;  ///< in due order
  std::vector<std::string> observed_ips;
  std::vector<std::int64_t> submission_due;
  std::vector<Expect> submission_expect;
  std::vector<std::uint32_t> hot_sent;  ///< requests per hot source
  std::vector<Request> warm;            ///< pool warm-up, own sources
  std::size_t clients = 0;              ///< distinct sources
};

ServerConfig server_config(const Shape& shape, std::uint64_t seed,
                           std::size_t submissions) {
  ServerConfig cfg;
  cfg.master_secret =
      powai::common::bytes_of("perfbench-secret-" + std::to_string(seed));
  cfg.verify_threads = kPoolWorkers;
  cfg.rate_limiter_enabled = true;
  // A refill this slow adds under one token in a run, so each source
  // gets exactly `burst` challenges: the refusal count is deterministic.
  cfg.rate_limiter.tokens_per_second = 1e-3;
  cfg.rate_limiter.burst = shape.hot_budget;
  cfg.verifier.ttl = std::chrono::minutes(10);
  // verifier.hpp: the replay memory must cover every puzzle issued
  // within one ttl, with ~2x headroom across shards, or FIFO eviction
  // makes a redeemed proof redeemable again.
  cfg.verifier.replay_capacity = 2 * std::max<std::size_t>(submissions, 1);
  return cfg;
}

/// Issues and solves the inputs with a twin server (same secret, no rate
/// limiter) and lays them out in due order.
Inputs make_inputs(const Shape& shape, std::uint64_t seed,
                   const powai::reputation::IReputationModel& model,
                   const powai::policy::IPolicy& policy,
                   const ServerConfig& config) {
  powai::common::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  const powai::features::SyntheticTraceGenerator gen;

  const std::size_t fresh = shape.exchanges;
  const std::size_t total_msgs =
      2 * fresh + shape.hot_requests + shape.replays + shape.forgeries;
  const double period_ns = static_cast<double>(total_msgs) * 1e9 /
                           shape.offered_msgs_per_s;
  auto spaced = [&](std::size_t i, std::size_t n) {
    return static_cast<std::int64_t>(static_cast<double>(i) * period_ns /
                                     static_cast<double>(n));
  };

  // Twin issuance: every fresh exchange, plus one request per forgery.
  std::vector<Request> twin_requests;
  std::vector<std::uint8_t> fresh_attacker(fresh);
  twin_requests.reserve(fresh + shape.forgeries);
  for (std::size_t i = 0; i < fresh; ++i) {
    fresh_attacker[i] = rng.bernoulli(shape.attacker_share) ? 1 : 0;
    Request r;
    r.client_ip = address(kClientBase, i);
    r.features = gen.sample(fresh_attacker[i] != 0, rng);
    r.request_id = i + 1;
    twin_requests.push_back(std::move(r));
  }
  std::vector<Request> hot_proto(shape.hot_sources);
  for (std::size_t h = 0; h < shape.hot_sources; ++h) {
    hot_proto[h].client_ip = address(kHotBase, h);
    hot_proto[h].features = gen.sample(true, rng);
  }
  for (std::size_t f = 0; f < shape.forgeries; ++f) {
    Request r = hot_proto[f % shape.hot_sources];
    r.request_id = (std::uint64_t{1} << 40) + f;
    twin_requests.push_back(std::move(r));
  }

  ServerConfig twin_cfg = config;
  twin_cfg.rate_limiter_enabled = false;
  PowServer twin(powai::common::WallClock::instance(), model, policy, twin_cfg);
  std::vector<powai::pow::Puzzle> puzzles;
  puzzles.reserve(twin_requests.size());
  constexpr std::size_t kChunk = 8192;
  for (std::size_t at = 0; at < twin_requests.size(); at += kChunk) {
    const std::size_t n = std::min(kChunk, twin_requests.size() - at);
    auto results = twin.on_request_batch(
        std::span<const Request>(twin_requests.data() + at, n));
    for (auto& r : results) {
      puzzles.push_back(std::move(std::get<Challenge>(r).puzzle));
    }
  }
  // Hot sources: the difficulty their (cached) score earns.
  std::vector<std::uint8_t> hot_d(shape.hot_sources);
  for (std::size_t h = 0; h < shape.hot_sources; ++h) {
    Request probe = hot_proto[h];
    probe.request_id = std::uint64_t{1} << 41;
    hot_d[h] = static_cast<std::uint8_t>(
        std::get<Challenge>(twin.on_request(probe)).puzzle.difficulty);
  }

  // Solve the fresh puzzles in parallel (set-up, never timed).
  std::vector<powai::pow::SolveResult> solved(fresh);
  {
    powai::common::ThreadPool pool(
        std::max(2u, std::thread::hardware_concurrency()) - 1);
    const powai::pow::Solver solver;
    pool.parallel_for(fresh, [&](std::size_t i) {
      solved[i] = solver.solve(puzzles[i]);
    });
  }

  Inputs in;
  in.clients = fresh + shape.hot_sources;
  // Each stream is spread evenly over the period; the merged order is then
  // re-timed so message m is due at m * period / M. Arrivals stay evenly
  // paced at the offered rate and no two messages are ever due together,
  // so at this load a leg's latency is its own service time.
  struct Slot {
    std::int64_t due;
    bool submission;
    std::uint32_t kind;  // 0 fresh, 1 hot  /  0 legit, 1 replay, 2 forged
    std::uint32_t index;
  };
  std::vector<Slot> slots;
  slots.reserve(total_msgs);
  for (std::size_t i = 0; i < fresh; ++i) {
    const auto index = static_cast<std::uint32_t>(i);
    slots.push_back({spaced(i, fresh), false, 0, index});
    slots.push_back({spaced(i, fresh) + kThinkNs, true, 0, index});
  }
  for (std::size_t k = 0; k < shape.hot_requests; ++k) {
    slots.push_back({spaced(k, shape.hot_requests), false, 1,
                     static_cast<std::uint32_t>(k)});
  }
  for (std::size_t r = 0; r < shape.replays; ++r) {
    const std::size_t original = r * fresh / shape.replays;
    slots.push_back({spaced(original, fresh) + kThinkNs + kReplayDelayNs, true,
                     1, static_cast<std::uint32_t>(original)});
  }
  for (std::size_t f = 0; f < shape.forgeries; ++f) {
    slots.push_back({spaced(f, shape.forgeries), true, 2,
                     static_cast<std::uint32_t>(f)});
  }
  std::stable_sort(slots.begin(), slots.end(),
                   [](const Slot& a, const Slot& b) { return a.due < b.due; });
  std::vector<Slot> req_slots;
  std::vector<Slot> sub_slots;
  for (std::size_t m = 0; m < slots.size(); ++m) {
    Slot slot = slots[m];
    slot.due = spaced(m, slots.size());
    (slot.submission ? sub_slots : req_slots).push_back(slot);
  }

  const powai::pow::PuzzleGenerator ids(powai::common::WallClock::instance(),
                                        config.master_secret);
  in.hot_sent.assign(shape.hot_sources, 0);
  in.requests.reserve(req_slots.size());
  for (const Slot& s : req_slots) {
    in.request_due.push_back(s.due);
    if (s.kind == 0) {
      in.requests.push_back(twin_requests[s.index]);
      in.request_expect.push_back(Expect::kChallenge);
      in.request_pid.push_back(puzzles[s.index].puzzle_id);
      in.request_d.push_back(
          static_cast<std::uint8_t>(puzzles[s.index].difficulty));
      in.request_attacker.push_back(fresh_attacker[s.index]);
      in.request_hot.push_back(kNoHot);
    } else {
      const std::size_t h = s.index % shape.hot_sources;
      Request r = hot_proto[h];
      r.request_id = ++in.hot_sent[h];
      in.request_pid.push_back(ids.derive_puzzle_id(r.client_ip, r.request_id));
      in.requests.push_back(std::move(r));
      in.request_expect.push_back(Expect::kHot);
      in.request_d.push_back(hot_d[h]);
      in.request_attacker.push_back(1);
      in.request_hot.push_back(static_cast<std::uint32_t>(h));
    }
  }
  in.submissions.reserve(sub_slots.size());
  for (const Slot& s : sub_slots) {
    in.submission_due.push_back(s.due);
    Submission sub;
    if (s.kind == 2) {
      const std::size_t p = fresh + s.index;
      sub.request_id = twin_requests[p].request_id;
      sub.puzzle = puzzles[p];
      std::uint64_t nonce = rng();
      while (powai::pow::is_valid_solution(sub.puzzle, nonce)) ++nonce;
      sub.solution = {sub.puzzle.puzzle_id, nonce};
      in.observed_ips.push_back(twin_requests[p].client_ip);
      in.submission_expect.push_back(Expect::kForged);
    } else {
      sub.request_id = twin_requests[s.index].request_id;
      sub.puzzle = puzzles[s.index];
      sub.solution = solved[s.index].solution;
      in.observed_ips.push_back(twin_requests[s.index].client_ip);
      in.submission_expect.push_back(s.kind == 0 ? Expect::kServed
                                                 : Expect::kReplay);
    }
    in.submissions.push_back(std::move(sub));
  }

  in.warm = warm_requests(seed);
  return in;
}

/// A fresh measured server with its pool started and warm.
std::unique_ptr<PowServer> make_server(
    const powai::common::Clock& clock,
    const powai::reputation::IReputationModel& model,
    const powai::policy::IPolicy& policy, const ServerConfig& config,
    std::span<const Request> warm) {
  auto server = std::make_unique<PowServer>(clock, model, policy, config);
  const bool traced = trace::enabled();
  trace::set_enabled(false);
  (void)server->on_request_batch(warm);
  trace::set_enabled(traced);
  return server;
}

/// Everything one phase observed, over all its repetitions.
struct PhaseStats {
  std::vector<double> msgs_per_s;  ///< one per repetition
  // Per repetition.
  std::vector<double> req_p50, req_p90, req_p99;
  std::vector<double> sub_p50, sub_p90, sub_p99;
  std::vector<float> req_lat_us;
  std::vector<float> sub_lat_us;
  std::vector<float> lag_us;        ///< due → dispatch, oldest of a batch
  std::vector<float> batch_wall_us;
  std::size_t backlog_max = 0;
  std::uint64_t batches = 0;
  std::uint64_t requests = 0;
  std::uint64_t submissions = 0;
  std::uint64_t challenges = 0;
  std::uint64_t limited = 0;
  double work_benign = 0.0;
  double work_attacker = 0.0;
  std::uint64_t challenges_benign = 0;
  std::uint64_t challenges_attacker = 0;
  std::uint64_t d_benign = 0;
  std::uint64_t d_attacker = 0;
  double server_bytes_per_client = 0.0;
  int reps = 0;
};

struct Tally {
  std::uint64_t challenges = 0;
  std::uint64_t limited = 0;
  std::uint64_t served = 0;
  std::uint64_t replay = 0;
  std::uint64_t bad = 0;
  std::uint64_t other = 0;
};

ErrorCode expected_code(Expect e) {
  switch (e) {
    case Expect::kServed: return ErrorCode::kOk;
    case Expect::kReplay: return ErrorCode::kReplay;
    case Expect::kForged: return ErrorCode::kBadSolution;
    default: return ErrorCode::kOk;
  }
}

/// How a repetition feeds the server.
enum class Mode {
  kPaced,   ///< each message once due, batch entry points; latency recorded
  kBatch,   ///< everything due at once, batch entry points
  kSingle,  ///< everything due at once, on_request / on_submission
};

/// Replays every input once into \p server.
void run_rep(const Inputs& in, PowServer& server, Mode mode,
             Verdict& verdict, PhaseStats& st) {
  const bool paced = mode == Mode::kPaced;
  std::vector<std::variant<Challenge, Response>> results;
  std::vector<Response> responses;
  const std::size_t nr = in.requests.size();
  const std::size_t ns = in.submissions.size();
  const powai::framework::ServerStats before = server.stats();
  Tally tally;
  std::vector<std::uint32_t> hot_allowed(in.hot_sent.size(), 0);

  const std::size_t req_before = st.req_lat_us.size();
  const std::size_t sub_before = st.sub_lat_us.size();
  std::size_t ri = 0;
  std::size_t si = 0;
  const std::int64_t t0 = now_ns();
  while (ri < nr || si < ns) {
    const std::int64_t rel = paced ? now_ns() - t0 : INT64_MAX;
    std::size_t k = 0;
    std::size_t j = 0;
    while (k + j < kMaxBatch) {
      const bool req_due = ri + k < nr && in.request_due[ri + k] <= rel;
      const bool sub_due = si + j < ns && in.submission_due[si + j] <= rel;
      if (req_due && (!sub_due || in.request_due[ri + k] <=
                                      in.submission_due[si + j])) {
        ++k;
      } else if (sub_due) {
        ++j;
      } else {
        break;
      }
    }
    if (k + j == 0) continue;  // nothing due yet: spin

    const std::int64_t dispatch = now_ns();
    if (paced) {
      std::int64_t oldest = INT64_MAX;
      if (k > 0) oldest = in.request_due[ri];
      if (j > 0) oldest = std::min(oldest, in.submission_due[si]);
      st.lag_us.push_back(static_cast<float>(
          static_cast<double>(dispatch - t0 - oldest) * 1e-3));
      const auto due_after = [rel](const std::vector<std::int64_t>& due,
                                   std::size_t from) {
        const auto first = due.begin() + static_cast<long>(from);
        return std::upper_bound(first, due.end(), rel) - first;
      };
      const auto waiting = due_after(in.request_due, ri + k) +
                           due_after(in.submission_due, si + j);
      st.backlog_max =
          std::max(st.backlog_max, static_cast<std::size_t>(waiting));
    }

    if (k > 0) {
      const std::uint64_t span = trace::next_id();
      trace::set_open_parent(span);
      const std::int64_t s0 = now_ns();
      if (mode == Mode::kSingle) {
        results.clear();
        for (std::size_t q = 0; q < k; ++q) {
          results.push_back(server.on_request(in.requests[ri + q]));
        }
      } else {
        results = server.on_request_batch(
            std::span<const Request>(in.requests.data() + ri, k));
        trace::record(trace::Layer::kRequestBatch, span, 0,
                      in.requests[ri].request_id, s0, now_ns(),
                      static_cast<std::uint32_t>(k));
      }
      const std::int64_t s1 = now_ns();
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t x = ri + i;
        const Expect expect = in.request_expect[x];
        if (const auto* c = std::get_if<Challenge>(&results[i])) {
          ++tally.challenges;
          verdict.check(c->request_id == in.requests[x].request_id &&
                            c->puzzle.puzzle_id == in.request_pid[x] &&
                            c->puzzle.difficulty == in.request_d[x],
                        "challenge differs from the twin server's puzzle");
          const double work =
              std::ldexp(1.0, static_cast<int>(c->puzzle.difficulty));
          if (in.request_attacker[x] != 0) {
            st.work_attacker += work;
            st.d_attacker += c->puzzle.difficulty;
            ++st.challenges_attacker;
          } else {
            st.work_benign += work;
            st.d_benign += c->puzzle.difficulty;
            ++st.challenges_benign;
          }
          if (in.request_hot[x] != kNoHot) ++hot_allowed[in.request_hot[x]];
        } else {
          const auto& r = std::get<Response>(results[i]);
          if (r.status == ErrorCode::kRateLimited) {
            ++tally.limited;
          } else {
            ++tally.other;
          }
          if (expect != Expect::kHot ||
              r.status != ErrorCode::kRateLimited) {
            ++verdict.failed;
          }
        }
        if (paced && expect == Expect::kChallenge) {
          const auto due = t0 + in.request_due[x];
          st.req_lat_us.push_back(
              static_cast<float>(static_cast<double>(s1 - due) * 1e-3));
        }
      }
    }

    if (j > 0) {
      const std::uint64_t span = trace::next_id();
      trace::set_open_parent(span);
      const std::int64_t s0 = now_ns();
      if (mode == Mode::kSingle) {
        responses.clear();
        for (std::size_t q = 0; q < j; ++q) {
          responses.push_back(server.on_submission(in.submissions[si + q],
                                                   in.observed_ips[si + q]));
        }
      } else {
        responses = server.on_submission_batch(
            std::span<const Submission>(in.submissions.data() + si, j),
            std::span<const std::string>(in.observed_ips.data() + si, j));
        trace::record(trace::Layer::kSubmissionBatch, span, 0,
                      in.submissions[si].request_id, s0, now_ns(),
                      static_cast<std::uint32_t>(j));
      }
      const std::int64_t s1 = now_ns();
      for (std::size_t i = 0; i < j; ++i) {
        const std::size_t x = si + i;
        const Expect expect = in.submission_expect[x];
        const ErrorCode code = responses[i].status;
        switch (code) {
          case ErrorCode::kOk: ++tally.served; break;
          case ErrorCode::kReplay: ++tally.replay; break;
          case ErrorCode::kBadSolution: ++tally.bad; break;
          default: ++tally.other; break;
        }
        if (code != expected_code(expect)) {
          ++verdict.failed;
          verdict.check(expect == Expect::kServed || code != ErrorCode::kOk,
                        "a planted replay or forgery was accepted");
        }
        if (paced && expect == Expect::kServed) {
          const auto due = t0 + in.submission_due[x];
          st.sub_lat_us.push_back(
              static_cast<float>(static_cast<double>(s1 - due) * 1e-3));
        }
      }
    }
    st.batch_wall_us.push_back(
        static_cast<float>(static_cast<double>(now_ns() - dispatch) * 1e-3));
    ri += k;
    si += j;
    ++st.batches;
  }
  const double elapsed = seconds_since(t0);
  const std::size_t rep_req = st.req_lat_us.size() - req_before;
  const std::size_t rep_sub = st.sub_lat_us.size() - sub_before;

  if (paced) {
    std::vector<float> req(st.req_lat_us.end() - static_cast<long>(rep_req),
                           st.req_lat_us.end());
    std::vector<float> sub(st.sub_lat_us.end() - static_cast<long>(rep_sub),
                           st.sub_lat_us.end());
    st.req_p50.push_back(percentile(req, 0.5));
    st.req_p90.push_back(percentile(req, 0.9));
    st.req_p99.push_back(percentile(req, 0.99));
    st.sub_p50.push_back(percentile(sub, 0.5));
    st.sub_p90.push_back(percentile(sub, 0.9));
    st.sub_p99.push_back(percentile(sub, 0.99));
  }
  verdict.attempted += nr + ns;
  st.requests += nr;
  st.submissions += ns;
  st.challenges += tally.challenges;
  st.limited += tally.limited;
  st.msgs_per_s.push_back(static_cast<double>(nr + ns) / elapsed);

  // The server's ledger must balance the dispatcher's own tallies exactly.
  const powai::framework::ServerStats d = server.stats() - before;
  verdict.check(d.requests == nr, "ledger: requests");
  verdict.check(d.challenges_issued == tally.challenges, "ledger: challenges");
  verdict.check(d.rejected_rate_limited == tally.limited,
                "ledger: rate limited");
  verdict.check(d.served == tally.served, "ledger: served");
  verdict.check(d.rejected_replay == tally.replay, "ledger: replay");
  verdict.check(d.rejected_bad_solution == tally.bad, "ledger: bad solution");
  verdict.check(d.rejected_malformed + d.rejected_expired + d.rejected_binding +
                        d.rejected_overload + d.shed_deadline_requests +
                        d.shed_deadline_submissions +
                        d.shed_degraded_requests +
                        d.shed_degraded_submissions ==
                    tally.other,
                "ledger: other outcomes");
  for (std::size_t h = 0; h < hot_allowed.size(); ++h) {
    verdict.check(hot_allowed[h] ==
                      std::min<double>(in.hot_sent[h],
                                       server.config().rate_limiter.burst),
                  "rate limiter: a hot source's challenges differ from its "
                  "budget");
  }
  st.server_bytes_per_client = static_cast<double>(server.memory_bytes()) /
                               static_cast<double>(in.clients);
}

/// Repeats run_rep on fresh servers until \p seconds have passed (at
/// least once).
PhaseStats run_phase(const Inputs& in, const powai::common::Clock& clock,
                     const powai::reputation::IReputationModel& model,
                     const powai::policy::IPolicy& policy,
                     const ServerConfig& config, Mode mode, double seconds,
                     Verdict& verdict) {
  PhaseStats st;
  const std::int64_t start = now_ns();
  do {
    auto server = make_server(clock, model, policy, config, in.warm);
    run_rep(in, *server, mode, verdict, st);
    ++st.reps;
  } while (seconds_since(start) < seconds);
  return st;
}

}  // namespace

void run_replay(const Options& options, bool flood, Outcome& out) {
  const Shape shape = shape_for(flood);
  const std::int64_t gen_start = now_ns();
  const powai::features::Dataset train = training_set();
  double gen_s = seconds_since(gen_start);

  const powai::policy::LinearPolicy policy =
      powai::policy::LinearPolicy::policy1();
  const std::size_t subs =
      shape.exchanges + shape.replays + shape.forgeries;
  const ServerConfig config = server_config(shape, options.seed, subs);
  powai::reputation::DabrModel model;
  const std::vector<Request> warm = warm_requests(options.seed);
  const double setup_s = median_setup_s(kSetupReps, [&] {
    model = powai::reputation::DabrModel();
    model.fit(train);
    auto server = make_server(powai::common::WallClock::instance(), model,
                              policy, config, warm);
  });

  const std::int64_t inputs_start = now_ns();
  const Inputs in = make_inputs(shape, options.seed, model, policy, config);
  gen_s += seconds_since(inputs_start);
  out.gen_s = gen_s;
  out.threads = "dispatcher 1 + pool " + std::to_string(config.verify_threads);

  const double s = static_cast<double>(options.seconds);
  Verdict& v = out.verdict;
  Metrics& m = out.metrics;
  const auto& wall = powai::common::WallClock::instance();

  {
    // One unmeasured saturation pass wakes every core and warms the
    // allocator before anything is timed.
    PhaseStats discard;
    auto server = make_server(wall, model, policy, config, in.warm);
    run_rep(in, *server, Mode::kBatch, v, discard);
  }

  if (!options.trace) {
    PhaseStats lat =
        run_phase(in, wall, model, policy, config, Mode::kPaced, s / 2, v);
    PhaseStats sat =
        run_phase(in, wall, model, policy, config, Mode::kSingle, s / 2, v);
    const double benign =
        lat.work_benign / static_cast<double>(lat.challenges_benign);
    const double attacker =
        lat.work_attacker / static_cast<double>(lat.challenges_attacker);
    m.set("setup_s", setup_s, "s");
    m.set("peak_msgs_per_s", median(sat.msgs_per_s), "msg/s");
    m.set("req_p50_us", median(lat.req_p50), "us");
    m.set("sub_p50_us", median(lat.sub_p50), "us");
    m.set("benign_work_per_exch", benign, "hashes");
    m.set("attacker_work_ratio", attacker / benign, "ratio");
    m.set("server_bytes_per_client", lat.server_bytes_per_client, "B");

    const std::size_t nreq = lat.req_lat_us.size();
    const std::size_t nsub = lat.sub_lat_us.size();
    const double preq = resolvable_percentile(nreq);
    const double psub = resolvable_percentile(nsub);
    out.report.push_back(format(
        "paced phase: %d reps at %.0f msg/s offered; %zu request legs, "
        "%zu submission legs",
        lat.reps, shape.offered_msgs_per_s, nreq, nsub));
    out.report.push_back(format(
        "median over reps: req p90 %.1f us, p99 %.1f us; sub p90 %.1f us, "
        "p99 %.1f us",
        median(lat.req_p90), median(lat.req_p99), median(lat.sub_p90),
        median(lat.sub_p99)));
    out.report.push_back(format(
        "pooled: req p%.2f %.1f us, sub p%.2f %.1f us (highest percentile "
        "with 10 samples beyond it)",
        100 * preq, percentile(lat.req_lat_us, preq), 100 * psub,
        percentile(lat.sub_lat_us, psub)));
    out.report.push_back(format("dispatcher: lag p99 %.1f us, backlog max %zu msgs",
                                percentile(lat.lag_us, 0.99), lat.backlog_max));
    std::string reps;
    for (const double r : sat.msgs_per_s) reps += format(" %.0f", r);
    out.report.push_back(format(
        "saturation phase: %d reps, median %.0f msg/s (%.0f exch/s); reps:%s",
        sat.reps, median(sat.msgs_per_s), median(sat.msgs_per_s) / 2,
        reps.c_str()));
    out.report.push_back(format(
        "failed_frac %.6f (%llu of %llu)",
        static_cast<double>(v.failed) / static_cast<double>(v.attempted),
        static_cast<unsigned long long>(v.failed),
        static_cast<unsigned long long>(v.attempted)));
    return;
  }

  // Traced run: an untraced saturation phase for the overhead, the same
  // two phases with spans, a batch saturation phase for the pool's own
  // figures, then the single-threaded passes.
  trace::CountingClock counting(wall);
  trace::TimedModel timed_model(model);
  trace::TimedPolicy timed_policy(policy);
  PhaseStats plain =
      run_phase(in, wall, model, policy, config, Mode::kSingle, s / 4, v);
  trace::set_enabled(true);
  PhaseStats lat = run_phase(in, counting, timed_model, timed_policy, config,
                             Mode::kPaced, s / 4, v);
  const trace::Snapshot lat_trace = trace::collect();
  PhaseStats single = run_phase(in, counting, timed_model, timed_policy,
                                config, Mode::kSingle, s / 4, v);
  const trace::Snapshot single_trace = trace::collect();
  PhaseStats sat = run_phase(in, counting, timed_model, timed_policy, config,
                             Mode::kBatch, s / 4, v);
  const trace::Snapshot sat_trace = trace::collect();

  const PassInput pass_in{in.requests, in.submissions, in.observed_ips};
  ServerPass pass;
  {
    PowServer fresh(counting, model, policy, config);
    pass = server_pass(fresh, pass_in);
  }
  component_pass(model, policy, config, pass_in, pass, m, v);
  constexpr std::size_t kFrontEndSample = 8192;
  const std::size_t fe_requests = std::min(kFrontEndSample, in.requests.size());
  const std::size_t fe_submissions =
      std::min(kFrontEndSample, in.submissions.size());
  front_end_pass(model, policy, config,
                 {std::span(in.requests).first(fe_requests),
                  std::span(in.submissions).first(fe_submissions),
                  std::span(in.observed_ips).first(fe_submissions)},
                 m, v);
  const trace::Snapshot pass_trace = trace::collect();
  trace::set_enabled(false);
  add_server_pass_metrics(pass, m);

  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto& score = sat_trace.of(trace::Layer::kScore);
  const auto& diff = sat_trace.of(trace::Layer::kDifficulty);
  const auto requests = static_cast<double>(sat.requests);
  m.set("reputation.score_ns",
        ratio(static_cast<double>(score.ns), static_cast<double>(score.calls)),
        "ns");
  m.set("reputation.score_calls", static_cast<double>(score.calls) / requests,
        "1/req");
  m.set("reputation.cache_hit_frac",
        1.0 - ratio(static_cast<double>(score.calls),
                    static_cast<double>(sat.challenges)),
        "ratio");
  m.set("policy.difficulty_ns",
        ratio(static_cast<double>(diff.ns), static_cast<double>(diff.calls)),
        "ns");
  m.set("policy.mean_d.benign",
        ratio(static_cast<double>(lat.d_benign),
              static_cast<double>(lat.challenges_benign)),
        "bits");
  m.set("policy.mean_d.attacker",
        ratio(static_cast<double>(lat.d_attacker),
              static_cast<double>(lat.challenges_attacker)),
        "bits");
  m.set("rate_limiter.refused_frac",
        static_cast<double>(sat.limited) / requests, "ratio");

  const double items = static_cast<double>(sat.requests + sat.submissions);
  double batch_wall_us = 0.0;
  for (const float w : sat.batch_wall_us) batch_wall_us += w;
  const double parties = static_cast<double>(config.verify_threads + 1);
  m.set("batch.msgs_per_s", median(sat.msgs_per_s), "msg/s");
  m.set("batch.items_mean", items / static_cast<double>(sat.batches), "msgs");
  m.set("batch.wall_us_p50", percentile(sat.batch_wall_us, 0.5), "us");
  m.set("batch.wall_us_p99", percentile(sat.batch_wall_us, 0.99), "us");
  m.set("batch.efficiency",
        (requests * pass.request_ns +
         static_cast<double>(sat.submissions) * pass.submission_ns) *
            1e-3 / (batch_wall_us * parties),
        "ratio");
  m.set("solver.share_of_wall", 0.0, "ratio");

  const double traced_peak = median(single.msgs_per_s);
  const double plain_peak = median(plain.msgs_per_s);
  m.set("trace.overhead_frac", 1.0 - traced_peak / plain_peak, "ratio");
  const auto self = trace::self_times(sat_trace);
  std::int64_t batch_ns = 0;
  for (const auto& span : sat_trace.spans) {
    if (span.layer == trace::Layer::kRequestBatch ||
        span.layer == trace::Layer::kSubmissionBatch) {
      batch_ns += span.end_ns - span.start_ns;
    }
  }
  const auto self_of = [&self](trace::Layer layer) {
    return static_cast<double>(self[static_cast<std::size_t>(layer)]);
  };
  m.set("trace.top_self_frac",
        ratio(self_of(trace::Layer::kRequestBatch) +
                  self_of(trace::Layer::kSubmissionBatch),
              static_cast<double>(batch_ns)),
        "ratio");
  m.set("trace.clock_reads_per_msg",
        static_cast<double>(sat_trace.clock_reads) / items, "1/msg");
  m.set("trace.spans",
        static_cast<double>(lat_trace.spans.size() +
                            single_trace.spans.size() +
                            sat_trace.spans.size() + pass_trace.spans.size()),
        "count");
  m.set("process.peak_rss_mb", peak_rss_mb(), "MiB");

  out.report.push_back(format("traced peak %.0f msg/s vs untraced %.0f msg/s",
                              traced_peak, plain_peak));
  finish_trace(options, {&sat_trace, &pass_trace}, out);
}

}  // namespace perfbench
