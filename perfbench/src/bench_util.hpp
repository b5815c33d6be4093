#pragma once
// Shared helpers of perfbench: the metric sink, order
// statistics, the steady-clock timer, and the allocation counter
// (alloc_counter.cpp replaces the global operator new/delete of this
// binary only).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock (the only clock perfbench times with).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Nearest-rank percentile of \p values (p in [0, 1]); reorders the
/// vector. 0 when empty.
template <typename T>
double percentile(std::vector<T>& values, double p) {
  if (values.empty()) return 0.0;
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank),
                   values.end());
  return static_cast<double>(values[rank]);
}

template <typename T>
double median(std::vector<T> values) {
  return percentile(values, 0.5);
}

/// Highest percentile (from 50, 90, 99, 99.9, 99.99) that still has at
/// least ten samples beyond it, as a fraction; 0.5 when none qualifies.
inline double resolvable_percentile(std::size_t samples) {
  double best = 0.5;
  for (const double p : {0.9, 0.99, 0.999, 0.9999}) {
    if (static_cast<double>(samples) * (1.0 - p) >= 10.0) best = p;
  }
  return best;
}

/// printf-style formatting into a std::string (report lines).
[[nodiscard]] std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// One named metric with its unit, in the order they were set.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }
  [[nodiscard]] const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// Outcome accounting of one run: operations attempted, operations whose
/// outcome was not the expected one, and correctness findings (a
/// non-empty list means the program's output was wrong).
struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  /// Records \p what as a correctness error unless \p ok.
  void check(bool ok, const char* what) {
    if (!ok && errors.size() < 32) errors.emplace_back(what);
  }
  [[nodiscard]] bool correct() const { return errors.empty(); }
};

/// Allocation totals of the calling thread since it started (exact:
/// every operator new of this binary increments them).
struct AllocCounts {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
[[nodiscard]] AllocCounts thread_allocs();

/// Peak resident set size of the process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Server pool workers in every workload. One worker plus the dispatcher
/// (and, on the wire, the drain) stays within nproc on any machine with
/// at least 3 cores. More workers made the figures swing several-fold
/// between runs on a 4-vCPU VM whose host steals up to 20% of CPU: each
/// batch wakes every idle worker, and a delayed wake stalls the batch.
inline constexpr std::size_t kPoolWorkers = 1;

}  // namespace perfbench
