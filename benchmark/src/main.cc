// idaa_bench: the repository benchmark. Runs seeded workloads against the
// library through its public entry points and prints, per workload, a line
//
//   RESULT <workload> {"correct": .., "attempted": .., "failed": ..,
//                      "metrics": {"<name>": {"value": .., "unit": ".."}}}
//
// Untraced runs report the end-to-end metrics; --trace 1 runs report the
// per-layer metrics and write every span to trace.json. benchmark/run.py
// builds this binary and is the entry point BENCHMARK.json names.
//
//   idaa_bench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//   idaa_bench --self-test

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace idaa_bench {
namespace {

bool Expect(bool ok, const char* what) {
  std::printf("  %s  %s\n", ok ? "PASS" : "FAIL", what);
  return ok;
}

/// Checks the measurement machinery itself, without a system under test.
int SelfTest() {
  bool ok = true;
  std::printf("self-test\n");

  // Percentile rule: the reported percentile has >= 10 samples beyond it,
  // and the next step up the ladder would not.
  bool rule = Samples::Beyond(1000, 99) == 10 && Samples::Beyond(999, 99) == 9;
  Samples thousand;
  for (int i = 1; i <= 1000; ++i) thousand.Add(i);
  rule = rule && thousand.Percentile(99) == 990 && thousand.Percentile(50) == 500;
  for (size_t n = 20; n <= 5000 && rule; ++n) {
    const double p = Samples::HighestSupported(n);
    rule = Samples::Beyond(n, p) >= 10;
    for (double higher : {99.9, 99.0, 95.0, 90.0, 80.0}) {
      if (higher > p && Samples::Beyond(n, higher) >= 10) rule = false;
    }
  }
  ok &= Expect(rule, "percentile rule: >= 10 samples beyond the reported percentile");

  // Open-loop due-time accounting: a 50 ms stall in one operation delays
  // the ~50 due after it by 50..1 ms, so at 1000 operations both p99s land
  // near 40 ms.
  const uint64_t second = 1'000'000'000ull;
  uint64_t start = NowNs();
  OpenLoopResult calm =
      RunOpenLoop(start, start + second, 1000, [](size_t) { return true; });
  start = NowNs();
  OpenLoopResult stalled = RunOpenLoop(start, start + second, 1000, [](size_t i) {
    if (i == 300) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return true;
  });
  std::printf("  open loop: calm late p99 %.3f ms; stalled latency p99 %.3f ms, "
              "late p99 %.3f ms\n",
              calm.late_ms.Percentile(99), stalled.latency_ms.Percentile(99),
              stalled.late_ms.Percentile(99));
  ok &= Expect(calm.attempted == 1000 && calm.failed == 0 &&
                   calm.late_ms.Percentile(99) < 10,
               "open loop keeps a 1000/s schedule when nothing stalls");
  ok &= Expect(stalled.attempted == 1000 && stalled.latency_ms.Percentile(99) >= 30 &&
                   stalled.late_ms.Percentile(99) >= 30,
               "a 50 ms stall shows in the write tail and in generator lateness");

  // Generator determinism, per workload.
  bool same = true;
  bool differs = true;
  for (const std::string& name : WorkloadNames()) {
    const uint64_t a = StatementStreamHash(name, 1, 2000);
    same = same && a == StatementStreamHash(name, 1, 2000);
    differs = differs && a != StatementStreamHash(name, 2, 2000);
  }
  ok &= Expect(same, "same seed gives the same statement stream");
  ok &= Expect(differs, "another seed gives another statement stream");
  return ok ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: idaa_bench --workload <name|all> [--seed N] [--seconds S] "
               "[--trace 0|1]\n       idaa_bench --self-test\nworkloads:");
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace idaa_bench

int main(int argc, char** argv) {
  using namespace idaa_bench;
  std::string workload = "all";
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") return SelfTest();
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) != "0";
    } else {
      return Usage();
    }
  }
  if (options.seconds <= 0) return Usage();
  std::vector<std::string> names;
  if (workload == "all") {
    names = WorkloadNames();
  } else {
    for (const std::string& name : WorkloadNames()) {
      if (name == workload) names.push_back(name);
    }
    if (names.empty()) return Usage();
  }

  bool all_correct = true;
  std::vector<std::pair<std::string, std::string>> results;
  std::FILE* trace = options.trace ? std::fopen("trace.json", "w") : nullptr;
  if (options.trace && trace == nullptr) {
    std::fprintf(stderr, "cannot write trace.json\n");
    return 1;
  }
  if (trace != nullptr) std::fprintf(trace, "{\"workloads\": [\n");
  for (size_t i = 0; i < names.size(); ++i) {
    SpanLog spans;
    WorkloadResult r = RunWorkload(names[i], options, &spans);
    all_correct = all_correct && r.correct;
    results.emplace_back(names[i], ResultJson(r.correct, r.attempted, r.failed, r.metrics));
    if (trace != nullptr) {
      if (i > 0) std::fprintf(trace, ",\n");
      spans.WriteJson(trace, names[i]);
    }
    std::fflush(stdout);
  }
  if (trace != nullptr) {
    std::fprintf(trace, "\n]}\n");
    if (std::fclose(trace) != 0) all_correct = false;
    std::printf("\nspans written to trace.json\n");
  }
  std::printf("\n");
  for (const auto& [name, json] : results) {
    std::printf("RESULT %s %s\n", name.c_str(), json.c_str());
  }
  return all_correct ? 0 : 1;
}
