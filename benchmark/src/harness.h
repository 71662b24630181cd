// Measurement primitives of idaa_bench: latency samples with the
// percentile rule, the in-memory span log behind --trace, the open-loop
// scheduler, and JSON output. Nothing here knows about the workloads.

#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace idaa_bench {

/// Monotonic clock (steady_clock) in nanoseconds.
uint64_t NowNs();

/// Latency samples with nearest-rank percentiles.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  /// Nearest-rank percentile, `p` in (0, 100]; 0 when empty.
  double Percentile(double p) const;

  /// Samples strictly above the nearest-rank position of percentile `p`.
  static size_t Beyond(size_t n, double p);
  /// Highest percentile of a fixed ladder (99.9, 99, 95, 90, 80, 50) that
  /// has at least ten samples beyond it; 50 when none does.
  static double HighestSupported(size_t n);

 private:
  std::vector<double> values_;
};

/// One timed call into a layer, recorded from outside the program.
struct Span {
  std::string name;   ///< layer call, e.g. "sql.parse", "idaa.execute"
  std::string cls;    ///< statement class: shape, pipeline stage or "setup"
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;  ///< span id of the caller, -1 for a request root
  uint64_t request = 0;  ///< shared by every span of one statement
};

/// Thread-safe in-memory span log (written out once, at the end).
class SpanLog {
 public:
  uint64_t NewRequest();
  /// Records a span and returns its id.
  int64_t Add(Span span);
  /// Sets the end of a span recorded before its children were.
  void Finish(int64_t id, uint64_t end_ns);

  /// Durations in microseconds of the spans named `name` (of class `cls`
  /// when non-empty), summed per request: a layer called twice for one
  /// statement counts once.
  Samples PerRequestUs(const std::string& name,
                       const std::string& cls = "") const;
  /// Self time in microseconds (duration minus the durations of its
  /// children) of every span named `name`.
  Samples SelfUs(const std::string& name) const;

  /// Prints, per span name outside set-up: count, busy ms, self ms and the
  /// self share of the end-to-end total (the summed root durations). The
  /// self times plus `other` (the root self time) add up to that total;
  /// returns false when they do not.
  bool PrintLayerTable(const std::string& workload) const;

  /// {"name": workload, "spans": [{id, name, class, start_ns, end_ns,
  /// parent, request}, ...]}
  void WriteJson(std::FILE* out, const std::string& workload) const;

 private:
  std::vector<double> SelfNsLocked() const;

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_request_ = 1;
};

/// Result of an open-loop run: latency is timed from each operation's due
/// time, lateness is how far behind schedule the generator sent it.
struct OpenLoopResult {
  Samples latency_ms;
  Samples late_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< exec returned false, or never sent (backlog)
};

/// Runs operation i at `start_ns + i / rate` for every due time before
/// `end_ns`, on the calling thread; `exec(i)` performs it and returns
/// success. Due operations still unsent two seconds past `end_ns` count as
/// failed.
OpenLoopResult RunOpenLoop(uint64_t start_ns, uint64_t end_ns, double rate,
                           const std::function<bool(size_t)>& exec);

/// 64-bit FNV-1a, used to fingerprint generated statement streams.
uint64_t Fnv1a(const std::string& text, uint64_t hash = 1469598103934665603ull);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace idaa_bench
