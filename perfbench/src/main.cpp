// perfbench: the repository's benchmark.
//
//   perfbench --workload fresh_open|flood_open|wire_mixed --seed N
//             --seconds S --trace 0|1 [--trace-dir DIR]
//
// Prints a stamp line (hardware, SHA-256 backend, threads, seed, build
// type), human-readable report lines, and as the last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end set, with --trace 1 the per-layer set
// (the traced run also writes its spans to DIR). Exits 1 when a
// correctness check fails, 2 on bad arguments or an internal error.

#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "features/ip_address.hpp"
#include "features/synthetic.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

const char* const kEndToEnd[] = {
    "setup_s",    "peak_msgs_per_s",      "req_p50_us",
    "sub_p50_us", "benign_work_per_exch", "attacker_work_ratio",
    "server_bytes_per_client",
};

const char* const kPerLayer[] = {
    "server.request_ns",        "server.submission_ns",
    "server.stage_coverage",    "server.allocs_per_request",
    "server.allocs_per_submission", "server.alloc_bytes_per_msg",
    "reputation.score_ns",      "reputation.score_calls",
    "reputation.cache_hit_frac", "reputation.cache_lookup_ns",
    "reputation.cache_update_ns", "policy.difficulty_ns",
    "policy.mean_d.benign",     "policy.mean_d.attacker",
    "generator.derive_id_ns",   "generator.issue_ns",
    "crypto.hmac_ns",           "crypto.drbg32_ns",
    "verifier.accept_ns",       "verifier.replay_ns",
    "verifier.forged_ns",       "verifier.replay_entries",
    "rate_limiter.allow_ns",    "rate_limiter.refused_frac",
    "batch.msgs_per_s",         "batch.items_mean",         "batch.wall_us_p50",
    "batch.wall_us_p99",        "batch.efficiency",
    "protocol.encode_ns",       "protocol.decode_ns",
    "protocol.bytes_per_exch",  "front_end.sojourn_p50_us",
    "front_end.sojourn_p99_us", "front_end.batch_mean",
    "front_end.overflows",      "netsim.events_per_exch",
    "netsim.ns_per_event",      "solver.hashes_per_s",
    "solver.share_of_wall",     "process.peak_rss_mb",
    "trace.overhead_frac",      "trace.top_self_frac",
    "trace.clock_reads_per_msg", "trace.spans",
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stoi(value);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--trace-dir") {
      o.trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && o.seconds >= 1 &&
         (o.workload == "fresh_open" || o.workload == "flood_open" ||
          o.workload == "wire_mixed");
}

}  // namespace

powai::features::Dataset training_set() {
  powai::common::Rng rng(0x7452414E);
  const powai::features::SyntheticTraceGenerator gen;
  return gen.generate(20000, 20000, rng);
}

std::string address(std::uint32_t base, std::size_t offset) {
  return powai::features::IpAddress(base + static_cast<std::uint32_t>(offset))
      .to_string();
}

std::vector<powai::framework::Request> warm_requests(std::uint64_t seed) {
  const powai::features::SyntheticTraceGenerator gen;
  powai::common::Rng rng(seed ^ 0x5741524D);
  std::vector<powai::framework::Request> warm(64);
  for (std::size_t w = 0; w < warm.size(); ++w) {
    warm[w].client_ip = address(kWarmBase, w);
    warm[w].features = gen.sample(false, rng);
    warm[w].request_id = w + 1;
  }
  return warm;
}

powai::netsim::LinkModel instant_link() {
  return {.base_latency = powai::common::Duration::zero(),
          .jitter = powai::common::Duration::zero(),
          .bandwidth_bytes_per_sec = 0.0,
          .loss_rate = 0.0};
}

double median_setup_s(int reps, const std::function<void()>& one_setup) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t start = now_ns();
    one_setup();
    samples.push_back(seconds_since(start));
  }
  return median(samples);
}

std::string format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

void finish_trace(const Options& options,
                  const std::vector<const trace::Snapshot*>& snapshots,
                  Outcome& out) {
  trace::Snapshot all;
  for (const trace::Snapshot* snap : snapshots) {
    const auto self = trace::self_times(*snap);
    for (std::size_t l = 0; l < self.size(); ++l) {
      if (self[l] == 0) continue;
      const std::string_view name =
          trace::layer_name(static_cast<trace::Layer>(l));
      out.report.push_back(format("self time %.*s: %.3f ms over stored spans",
                                  static_cast<int>(name.size()), name.data(),
                                  static_cast<double>(self[l]) * 1e-6));
    }
    all.spans.insert(all.spans.end(), snap->spans.begin(), snap->spans.end());
  }
  if (options.trace_dir.empty()) return;
  const std::string path = options.trace_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".jsonl";
  if (!trace::write_spans(path, all)) {
    out.verdict.errors.push_back("could not write " + path);
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Keep freed heap memory in the process: every repetition builds and
  // drops a fresh server, and handing those pages back to the kernel made
  // the next repetition pay page faults whose cost varies with host load.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Options options;
  try {
    if (!parse_args(argc, argv, options)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload "
                   "fresh_open|flood_open|wire_mixed "
                   "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: bad argument: %s\n", e.what());
    return 2;
  }

  Outcome out;
  try {
    if (options.workload == "wire_mixed") {
      run_wire(options, out);
    } else {
      run_replay(options, options.workload == "flood_open", out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  // Every metric of the mode's set, and nothing else, each finite.
  std::set<std::string> expected;
  if (options.trace) {
    expected.insert(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    expected.insert(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  std::set<std::string> got;
  for (const Metric& m : out.metrics.items()) {
    got.insert(m.name);
    if (!std::isfinite(m.value)) {
      out.verdict.errors.push_back("metric " + m.name + " is not finite");
    }
  }
  if (got != expected) {
    for (const auto& name : expected) {
      if (got.count(name) == 0) {
        std::fprintf(stderr, "perfbench: missing metric %s\n", name.c_str());
      }
    }
    for (const auto& name : got) {
      if (expected.count(name) == 0) {
        std::fprintf(stderr, "perfbench: unexpected metric %s\n",
                     name.c_str());
      }
    }
    return 2;
  }

  const auto backend =
      powai::crypto::Sha256::backend_name(powai::crypto::Sha256::backend());
  std::printf(
      "stamp: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
      "\"trace\": %d, \"cpu\": \"%s\", \"nproc\": %u, \"sha256_backend\": "
      "\"%.*s\", \"threads\": \"%s\", \"build_type\": \"%s\"}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, json_escape(cpu_model()).c_str(),
      std::thread::hardware_concurrency(), static_cast<int>(backend.size()),
      backend.data(), out.threads.c_str(), PERFBENCH_BUILD_TYPE);
  std::printf("gen_s: %.3f\n", out.gen_s);
  for (const auto& line : out.report) std::printf("%s\n", line.c_str());
  for (const auto& error : out.verdict.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }

  std::string json = "{\"correct\": ";
  json += out.verdict.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.verdict.attempted);
  json += ", \"failed\": " + std::to_string(out.verdict.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : out.metrics.items()) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " +
            json_number(std::isfinite(m.value) ? m.value : 0.0) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.verdict.correct() ? 0 : 1;
}
