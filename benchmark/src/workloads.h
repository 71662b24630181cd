// The benchmark workloads. Each builds a fresh IdaaSystem from seeded data,
// drives it only through public entry points (Connection::Execute,
// IdaaLoader::Load, CALL statements), checks the answers against DB2 and
// reports the metrics named in BENCHMARK.json.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace idaa_bench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  /// Per-layer run: half the window untraced, half replaying every
  /// statement through the layers' public functions into `spans`.
  bool trace = false;
};

struct WorkloadResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< failed statements + oracle mismatches
  std::vector<Metric> metrics;
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload end to end: set-up, the timed window, oracle checks.
WorkloadResult RunWorkload(const std::string& name, const RunOptions& options,
                           SpanLog* spans);

/// Fingerprint of the first `n` statements every generator of `name`
/// produces for `seed` (readers, writer schedule, pipeline parameters).
uint64_t StatementStreamHash(const std::string& name, uint64_t seed, size_t n);

}  // namespace idaa_bench
