// wire_mixed: the full protocol as bytes over netsim through the
// AsyncFrontEnd, composed from the library's public pieces (EventLoop,
// Network, PowServer, AsyncFrontEnd, ServerEndpoint, WireClientPool).
//
// A closed loop: every client sends its next request when the previous
// exchange resolves, and solves each puzzle for real on the loop
// thread. One client in eight sends attacker features; Policy 2. The
// link is deterministic with zero latency, so a leg's wall-clock time
// (the client's send to the reply's arrival, both on the loop thread)
// is the wire stack's own cost: codec, endpoint, queue, drain, batch,
// pump. Threads: the loop (this one) + 1 drain shard + a server pool of
// nproc - 2 workers.

#include <cmath>
#include <memory>
#include <optional>

#include "common/clock.hpp"
#include "features/ip_address.hpp"
#include "features/synthetic.hpp"
#include "framework/async_front_end.hpp"
#include "framework/server.hpp"
#include "framework/transport.hpp"
#include "netsim/event_loop.hpp"
#include "netsim/network.hpp"
#include "policy/linear_policy.hpp"
#include "pow/solver.hpp"
#include "reputation/dabr.hpp"
#include "components.hpp"
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

constexpr std::size_t kClients = 2048;      // per repetition
constexpr std::size_t kPopulation = 16384;  // repetitions cycle through it
constexpr std::size_t kRequestsPerClient = 2;
constexpr std::size_t kAttackerEvery = 8;  // client i attacks iff i % 8 == 0
constexpr double kHashCostUs = 38.0;       // modelled client hash cost
const char* const kServerHost = "198.51.100.250";

struct WireInputs {
  /// Per population member; member i attacks iff i % kAttackerEvery == 0.
  std::vector<powai::features::FeatureVector> features;
  std::vector<Request> warm;
};

WireInputs make_wire_inputs(std::uint64_t seed) {
  powai::common::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 29);
  const powai::features::SyntheticTraceGenerator gen;
  WireInputs in;
  for (std::size_t i = 0; i < kPopulation; ++i) {
    in.features.push_back(gen.sample(i % kAttackerEvery == 0, rng));
  }
  in.warm = warm_requests(seed);
  return in;
}

ServerConfig wire_config(std::uint64_t seed) {
  ServerConfig cfg;
  cfg.master_secret =
      powai::common::bytes_of("perfbench-wire-secret-" + std::to_string(seed));
  cfg.verify_threads = kPoolWorkers;
  cfg.rate_limiter_enabled = true;  // a budget no client reaches
  cfg.rate_limiter.burst = 512;
  return cfg;
}

powai::framework::AsyncFrontEndConfig front_end_config() {
  powai::framework::AsyncFrontEndConfig fe;
  fe.queue_capacity = std::max<std::size_t>(1024, kClients);
  fe.max_batch = 64;
  fe.drain_shards = 1;
  return fe;
}

/// One wire deployment: loop, network, server (pool warm), front end,
/// endpoint and client pool.
struct Rig {
  powai::netsim::EventLoop loop;
  powai::common::Rng net_rng;
  powai::netsim::Network network;
  trace::CountingClock counting;
  powai::framework::PowServer server;
  powai::framework::AsyncFrontEnd front_end;
  powai::framework::ServerEndpoint endpoint;
  powai::framework::WireClientPool pool;

  /// \p counted: the server reads the loop clock through `counting`.
  Rig(std::uint64_t seed, bool counted,
      const powai::reputation::IReputationModel& model,
      const powai::policy::IPolicy& policy, const ServerConfig& config,
      const WireInputs& in)
      : net_rng(seed),
        network(loop, net_rng),
        counting(loop.clock()),
        server(counted ? static_cast<const powai::common::Clock&>(counting)
                       : loop.clock(),
               model, policy, config),
        front_end(loop, network, kServerHost, server, front_end_config()),
        endpoint(network, kServerHost, server, front_end),
        pool(loop, network,
             address(kClientBase, 0), kClients,
             kServerHost, kHashCostUs) {
    network.set_default_link(instant_link());
    (void)server.on_request_batch(in.warm);
  }
};

struct WireStats {
  std::vector<double> msgs_per_s;  ///< one per repetition
  std::vector<double> req_p50, req_p90, sub_p50, sub_p90;  ///< per repetition
  std::vector<float> req_lat_us;
  std::vector<float> sub_lat_us;
  double work_benign = 0.0;
  double work_attacker = 0.0;
  std::uint64_t challenges_benign = 0;
  std::uint64_t challenges_attacker = 0;
  std::uint64_t d_benign = 0;
  std::uint64_t d_attacker = 0;
  std::uint64_t exchanges = 0;
  std::uint64_t events = 0;
  std::uint64_t batches = 0;
  std::uint64_t batch_messages = 0;
  std::uint64_t overflows = 0;
  std::vector<double> sojourn_p50_us;
  std::vector<double> sojourn_p99_us;
  double wall_s = 0.0;
  double server_bytes_per_client = 0.0;
  int reps = 0;
};

/// One closed-loop run of kClients clients, drawn from the population
/// starting at member \p first.
void run_wire_rep(Rig& rig, const WireInputs& in, std::size_t first,
                  Verdict& verdict, WireStats& st) {
  const powai::framework::ServerStats before = rig.server.stats();
  std::vector<std::size_t> sent(kClients, 0);
  std::vector<std::int64_t> last_send(kClients, 0);
  std::uint64_t answered = 0;
  std::uint64_t served = 0;
  std::uint64_t challenges = 0;
  const std::string host = kServerHost;

  // The link resolver sees every send; client → server sends stamp the
  // leg's start. The default link is used for all of them.
  rig.network.set_link_class_resolver(
      [&](const std::string& from, const std::string& to)
          -> std::optional<std::size_t> {
        if (to == host) {
          if (const auto ip = powai::features::IpAddress::parse(from)) {
            last_send[ip->value() - kClientBase] = now_ns();
          }
        }
        return std::nullopt;
      });

  std::function<void(std::size_t)> kick = [&](std::size_t c) {
    if (sent[c] >= kRequestsPerClient) return;
    ++sent[c];
    if (rig.pool.send_request(c, "/", in.features[first + c]) == 0) {
      verdict.check(false, "wire: a request was dropped on a lossless link");
    }
  };
  rig.pool.set_challenge_observer([&](std::size_t c, const Challenge& ch) {
    st.req_lat_us.push_back(
        static_cast<float>(static_cast<double>(now_ns() - last_send[c]) *
                           1e-3));
    ++challenges;
    const double work = std::ldexp(1.0, static_cast<int>(ch.puzzle.difficulty));
    if (c % kAttackerEvery == 0) {
      st.work_attacker += work;
      st.d_attacker += ch.puzzle.difficulty;
      ++st.challenges_attacker;
    } else {
      st.work_benign += work;
      st.d_benign += ch.puzzle.difficulty;
      ++st.challenges_benign;
    }
  });
  rig.pool.set_response_handler(
      [&](std::size_t c, const Response& r, powai::common::Duration) {
        ++answered;
        if (r.status == ErrorCode::kOk) {
          ++served;
          st.sub_lat_us.push_back(static_cast<float>(
              static_cast<double>(now_ns() - last_send[c]) * 1e-3));
        } else {
          ++verdict.failed;
        }
        kick(c);
      });

  const std::uint64_t span = trace::next_id();
  trace::set_open_parent(span);
  const std::int64_t t0 = now_ns();
  // Staggered starts keep clients from sharing a simulated instant, so
  // one client's leg never waits behind another's solve.
  for (std::size_t c = 0; c < kClients; ++c) {
    rig.loop.schedule_in(std::chrono::microseconds(50 * c),
                         [&kick, c] { kick(c); });
  }
  const std::size_t events = rig.front_end.run_until_idle();
  const std::int64_t t1 = now_ns();
  trace::record(trace::Layer::kWireRun, span, 0, 0, t0, t1,
                static_cast<std::uint32_t>(kClients * kRequestsPerClient));

  const std::uint64_t expected = kClients * kRequestsPerClient;
  const double wall = static_cast<double>(t1 - t0) * 1e-9;
  verdict.attempted += expected;
  verdict.failed += expected - answered;
  st.exchanges += expected;
  st.events += events;
  st.wall_s += wall;
  st.msgs_per_s.push_back(static_cast<double>(answered + challenges) / wall);

  {
    std::vector<float> req(
        st.req_lat_us.end() - static_cast<long>(challenges),
        st.req_lat_us.end());
    std::vector<float> sub(st.sub_lat_us.end() - static_cast<long>(served),
                           st.sub_lat_us.end());
    st.req_p50.push_back(percentile(req, 0.5));
    st.req_p90.push_back(percentile(req, 0.9));
    st.sub_p50.push_back(percentile(sub, 0.5));
    st.sub_p90.push_back(percentile(sub, 0.9));
  }
  const powai::framework::ServerStats d = rig.server.stats() - before;
  verdict.check(d.requests == expected, "wire ledger: requests");
  verdict.check(d.challenges_issued == challenges, "wire ledger: challenges");
  verdict.check(d.served == served, "wire ledger: served");
  verdict.check(d.rejected_overload == 0 && rig.front_end.overflows() == 0,
                "wire: queue overflow with capacity >= clients");
  verdict.check(rig.front_end.accepted() == rig.front_end.completed(),
                "wire: front end accepted != completed");
  const powai::framework::FrontEndStats fs = rig.front_end.stats();
  st.batches += fs.batches;
  st.batch_messages += fs.messages;
  st.overflows += rig.front_end.overflows();
  st.sojourn_p50_us.push_back(fs.sojourn.percentile_ms(0.5) * 1e3);
  st.sojourn_p99_us.push_back(fs.sojourn.percentile_ms(0.99) * 1e3);
  if (first == 0) {
    st.server_bytes_per_client =
        static_cast<double>(rig.server.memory_bytes()) /
        static_cast<double>(kClients);
  }
}

WireStats run_wire_phase(std::uint64_t seed, bool traced,
                         const powai::reputation::IReputationModel& model,
                         const powai::policy::IPolicy& policy,
                         const ServerConfig& config, const WireInputs& in,
                         double seconds, Verdict& verdict) {
  WireStats st;
  const std::int64_t start = now_ns();
  do {
    Rig rig(seed, traced, model, policy, config, in);
    run_wire_rep(rig, in, (st.reps * kClients) % kPopulation, verdict, st);
    ++st.reps;
  } while (seconds_since(start) < seconds);
  return st;
}

/// Expected client work the server assigns to the whole population: one
/// issuance per member (the wire run's repeat requests hit the cached
/// score and get the same difficulty), no solving. Deterministic.
struct PopulationWork {
  double benign = 0.0;    ///< mean 2^d over benign members
  double attacker = 0.0;  ///< mean 2^d over attacker members
  double benign_d = 0.0;  ///< mean d over benign members
  double attacker_d = 0.0;
};

PopulationWork population_work(const powai::reputation::IReputationModel& model,
                               const powai::policy::IPolicy& policy,
                               const ServerConfig& config,
                               const WireInputs& in) {
  PowServer twin(powai::common::WallClock::instance(), model, policy, config);
  std::vector<Request> requests(kPopulation);
  for (std::size_t i = 0; i < kPopulation; ++i) {
    requests[i].client_ip = address(kClientBase, i);
    requests[i].features = in.features[i];
    requests[i].request_id = 1;
  }
  const auto issued = twin.on_request_batch(requests);
  double work[2] = {0.0, 0.0};
  double bits[2] = {0.0, 0.0};
  double count[2] = {0.0, 0.0};
  for (std::size_t i = 0; i < kPopulation; ++i) {
    const int cls = i % kAttackerEvery == 0 ? 1 : 0;
    const unsigned d = std::get<Challenge>(issued[i]).puzzle.difficulty;
    work[cls] += std::ldexp(1.0, static_cast<int>(d));
    bits[cls] += d;
    count[cls] += 1.0;
  }
  return {work[0] / count[0], work[1] / count[1], bits[0] / count[0],
          bits[1] / count[1]};
}

}  // namespace

void front_end_pass(const powai::reputation::IReputationModel& model,
                    const powai::policy::IPolicy& policy,
                    const ServerConfig& config, const PassInput& input,
                    Metrics& m, Verdict& verdict) {
  powai::netsim::EventLoop loop;
  powai::common::Rng rng(1);
  powai::netsim::Network network(loop, rng);
  network.set_default_link(instant_link());
  // The inputs carry puzzles issued on the wall clock, so the server
  // reads it too; the loop only orders deliveries.
  PowServer server(powai::common::WallClock::instance(), model, policy, config);
  powai::framework::AsyncFrontEndConfig fe = front_end_config();
  fe.queue_capacity = std::max<std::size_t>(
      fe.queue_capacity, input.requests.size() + input.submissions.size());
  powai::framework::AsyncFrontEnd front_end(loop, network, kServerHost, server,
                                            fe);
  powai::framework::ServerEndpoint endpoint(network, kServerHost, server,
                                            front_end);
  std::uint64_t answers = 0;
  const auto add_source = [&](const std::string& ip) {
    if (network.has_host(ip)) return;
    network.add_host(
        ip, [&answers](const std::string&, powai::common::BytesView) {
          ++answers;
        });
  };
  for (const Request& r : input.requests) add_source(r.client_ip);
  for (const std::string& ip : input.observed_ips) add_source(ip);

  // All requests at one instant, then all submissions: the drain batches
  // them up to max_batch.
  for (const Request& r : input.requests) {
    (void)network.send(r.client_ip, kServerHost, r.serialize());
  }
  std::size_t events = front_end.run_until_idle();
  for (std::size_t i = 0; i < input.submissions.size(); ++i) {
    (void)network.send(input.observed_ips[i], kServerHost,
                       input.submissions[i].serialize());
  }
  events += front_end.run_until_idle();

  const std::size_t sent = input.requests.size() + input.submissions.size();
  verdict.check(answers == sent, "front-end pass: a message went unanswered");
  const powai::framework::FrontEndStats fs = front_end.stats();
  m.set("front_end.sojourn_p50_us", fs.sojourn.percentile_ms(0.5) * 1e3, "us");
  m.set("front_end.sojourn_p99_us", fs.sojourn.percentile_ms(0.99) * 1e3, "us");
  m.set("front_end.batch_mean",
        static_cast<double>(fs.messages) /
            static_cast<double>(std::max<std::uint64_t>(1, fs.batches)),
        "msgs");
  m.set("front_end.overflows", static_cast<double>(front_end.overflows()),
        "count");
  m.set("netsim.events_per_exch",
        static_cast<double>(events) /
            static_cast<double>(
                std::max<std::size_t>(1, input.submissions.size())),
        "events");
}

void run_wire(const Options& options, Outcome& out) {
  const std::int64_t gen_start = now_ns();
  const powai::features::Dataset train = training_set();
  const WireInputs in = make_wire_inputs(options.seed);
  out.gen_s = seconds_since(gen_start);

  const powai::policy::LinearPolicy policy =
      powai::policy::LinearPolicy::policy2();
  const ServerConfig config = wire_config(options.seed);
  powai::reputation::DabrModel model;
  const double setup_s = median_setup_s(kSetupReps, [&] {
    model = powai::reputation::DabrModel();
    model.fit(train);
    Rig rig(options.seed, false, model, policy, config, in);
  });
  out.threads =
      "loop 1 + drain 1 + pool " + std::to_string(config.verify_threads);
  const PopulationWork work = population_work(model, policy, config, in);

  const double s = static_cast<double>(options.seconds);
  Verdict& v = out.verdict;
  Metrics& m = out.metrics;

  if (!options.trace) {
    WireStats st = run_wire_phase(options.seed, false, model, policy, config,
                                  in, s, v);
    m.set("setup_s", setup_s, "s");
    m.set("peak_msgs_per_s", median(st.msgs_per_s), "msg/s");
    m.set("req_p50_us", median(st.req_p50), "us");
    m.set("sub_p50_us", median(st.sub_p50), "us");
    m.set("benign_work_per_exch", work.benign, "hashes");
    m.set("attacker_work_ratio", work.attacker / work.benign, "ratio");
    m.set("server_bytes_per_client", st.server_bytes_per_client, "B");
    out.report.push_back(format(
        "wire: %d reps of %zu clients x %zu requests; wire_exch_per_s %.1f",
        st.reps, kClients, kRequestsPerClient, median(st.msgs_per_s) / 2));
    out.report.push_back(format(
        "median over reps: req p90 %.1f us, sub p90 %.1f us; pooled p99: req "
        "%.1f us, sub %.1f us (%zu + %zu legs)",
        median(st.req_p90), median(st.sub_p90),
        percentile(st.req_lat_us, 0.99), percentile(st.sub_lat_us, 0.99),
        st.req_lat_us.size(), st.sub_lat_us.size()));
    out.report.push_back(format(
        "failed_frac %.6f (%llu of %llu exchanges)",
        static_cast<double>(v.failed) / static_cast<double>(v.attempted),
        static_cast<unsigned long long>(v.failed),
        static_cast<unsigned long long>(v.attempted)));
    return;
  }

  trace::TimedModel timed_model(model);
  trace::TimedPolicy timed_policy(policy);
  WireStats plain = run_wire_phase(options.seed, false, model, policy, config,
                                   in, s / 2, v);
  trace::set_enabled(true);
  WireStats st = run_wire_phase(options.seed, true, timed_model, timed_policy,
                                config, in, s / 2, v);
  const trace::Snapshot wire_trace = trace::collect();

  // Single-threaded passes over one exchange per client of the first
  // repetition, issued and solved by a twin server on the wall clock.
  std::vector<Request> requests(kClients);
  std::vector<std::string> ips(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    ips[c] = address(kClientBase, c);
    requests[c].client_ip = ips[c];
    requests[c].features = in.features[c];
    requests[c].request_id = 1;
  }
  std::vector<powai::framework::Submission> subs(kClients);
  {
    PowServer twin(powai::common::WallClock::instance(), model, policy, config);
    const auto issued = twin.on_request_batch(requests);
    const powai::pow::Solver solver;
    for (std::size_t c = 0; c < kClients; ++c) {
      subs[c].request_id = 1;
      subs[c].puzzle = std::get<Challenge>(issued[c]).puzzle;
      subs[c].solution = solver.solve(subs[c].puzzle).solution;
    }
  }
  const PassInput pass_in{requests, subs, ips};
  ServerPass pass;
  const auto& wall = powai::common::WallClock::instance();
  {
    PowServer fresh(wall, model, policy, config);
    pass = server_pass(fresh, pass_in);
  }
  component_pass(model, policy, config, pass_in, pass, m, v);
  {
    PowServer fresh(wall, model, policy, config);
    (void)fresh.on_request_batch(in.warm);
    batch_pass(fresh, pass_in, pass, config.verify_threads + 1, m);
  }
  const trace::Snapshot pass_trace = trace::collect();
  trace::set_enabled(false);
  add_server_pass_metrics(pass, m);

  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto& score = wire_trace.of(trace::Layer::kScore);
  const auto& diff = wire_trace.of(trace::Layer::kDifficulty);
  const double challenges =
      static_cast<double>(st.challenges_benign + st.challenges_attacker);
  m.set("reputation.score_ns",
        ratio(static_cast<double>(score.ns), static_cast<double>(score.calls)),
        "ns");
  m.set("reputation.score_calls", static_cast<double>(score.calls) / challenges,
        "1/req");
  m.set("reputation.cache_hit_frac",
        1.0 - static_cast<double>(score.calls) / challenges, "ratio");
  m.set("policy.difficulty_ns",
        ratio(static_cast<double>(diff.ns), static_cast<double>(diff.calls)),
        "ns");
  m.set("policy.mean_d.benign", work.benign_d, "bits");
  m.set("policy.mean_d.attacker", work.attacker_d, "bits");
  m.set("rate_limiter.refused_frac", 0.0, "ratio");
  const double batches =
      static_cast<double>(std::max<std::uint64_t>(1, st.batches));
  m.set("front_end.sojourn_p50_us", median(st.sojourn_p50_us), "us");
  m.set("front_end.sojourn_p99_us", median(st.sojourn_p99_us), "us");
  m.set("front_end.batch_mean",
        static_cast<double>(st.batch_messages) / batches, "msgs");
  m.set("front_end.overflows", static_cast<double>(st.overflows), "count");
  m.set("netsim.events_per_exch",
        static_cast<double>(st.events) / static_cast<double>(st.exchanges),
        "events");
  // Expected solve time: the puzzles' total work over the measured rate.
  double hashes_per_s = 0.0;
  for (const Metric& metric : m.items()) {
    if (metric.name == "solver.hashes_per_s") hashes_per_s = metric.value;
  }
  m.set("solver.share_of_wall",
        ratio((st.work_benign + st.work_attacker) / hashes_per_s, st.wall_s),
        "ratio");
  const double traced = median(st.msgs_per_s);
  const double untraced = median(plain.msgs_per_s);
  m.set("trace.overhead_frac", 1.0 - traced / untraced, "ratio");
  const auto self = trace::self_times(wire_trace);
  std::int64_t wire_ns = 0;
  for (const auto& span : wire_trace.spans) {
    if (span.layer == trace::Layer::kWireRun) {
      wire_ns += span.end_ns - span.start_ns;
    }
  }
  m.set("trace.top_self_frac",
        ratio(static_cast<double>(
                  self[static_cast<std::size_t>(trace::Layer::kWireRun)]),
              static_cast<double>(wire_ns)),
        "ratio");
  m.set("trace.clock_reads_per_msg",
        static_cast<double>(wire_trace.clock_reads) /
            static_cast<double>(2 * st.exchanges),
        "1/msg");
  m.set("trace.spans",
        static_cast<double>(wire_trace.spans.size() + pass_trace.spans.size()),
        "count");
  m.set("process.peak_rss_mb", peak_rss_mb(), "MiB");
  out.report.push_back(format("traced %.0f msg/s vs untraced %.0f msg/s",
                              traced, untraced));
  finish_trace(options, {&wire_trace, &pass_trace}, out);
}

}  // namespace perfbench
