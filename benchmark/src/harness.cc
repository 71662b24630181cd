#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <thread>

namespace idaa_bench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

namespace {

// 1-based nearest rank of percentile p over n samples.
size_t NearestRank(size_t n, double p) {
  auto rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  size_t rank = NearestRank(sorted.size(), p);
  std::nth_element(sorted.begin(), sorted.begin() + (rank - 1), sorted.end());
  return sorted[rank - 1];
}

size_t Samples::Beyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

double Samples::HighestSupported(size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 80.0}) {
    if (Beyond(n, p) >= 10) return p;
  }
  return 50.0;
}

uint64_t SpanLog::NewRequest() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_request_++;
}

int64_t SpanLog::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::Finish(int64_t id, uint64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = end_ns;
}

Samples SpanLog::PerRequestUs(const std::string& name,
                              const std::string& cls) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint64_t, double> per_request;
  for (const Span& s : spans_) {
    if (s.name == name && (cls.empty() || s.cls == cls)) {
      per_request[s.request] += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
  }
  Samples out;
  for (const auto& [request, us] : per_request) out.Add(us);
  return out;
}

std::vector<double> SpanLog::SelfNsLocked() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return self;
}

Samples SpanLog::SelfUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> self = SelfNsLocked();
  Samples out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.Add(self[i] / 1e3);
  }
  return out;
}

bool SpanLog::PrintLayerTable(const std::string& workload) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> self = SelfNsLocked();
  struct Row {
    uint64_t count = 0;
    double busy_ns = 0;
    double self_ns = 0;
    bool root = false;
  };
  std::map<std::string, Row> rows;
  double e2e_ns = 0;
  double self_total_ns = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.cls == "setup") continue;
    Row& row = rows[s.name];
    ++row.count;
    row.busy_ns += static_cast<double>(s.end_ns - s.start_ns);
    row.self_ns += self[i];
    self_total_ns += self[i];
    if (s.parent < 0) {
      row.root = true;
      e2e_ns += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::printf("\nper-layer time, %s (e2e = summed request roots)\n", workload.c_str());
  std::printf("  %-26s %9s %12s %12s %8s\n", "layer", "count", "busy_ms",
              "self_ms", "share");
  for (const auto& [name, row] : rows) {
    // A root's self time is what no replayed layer call accounts for.
    std::string label = row.root ? name + " (other)" : name;
    std::printf("  %-26s %9" PRIu64 " %12.3f %12.3f %7.2f%%\n", label.c_str(),
                row.count, row.busy_ns / 1e6, row.self_ns / 1e6,
                e2e_ns > 0 ? 100.0 * row.self_ns / e2e_ns : 0.0);
  }
  bool balanced = std::fabs(self_total_ns - e2e_ns) <= 1e-6 * std::max(1.0, e2e_ns);
  std::printf("  self times + other = %.3f ms, e2e = %.3f ms (%s)\n",
              self_total_ns / 1e6, e2e_ns / 1e6,
              balanced ? "balanced" : "UNBALANCED");
  return balanced;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

void SpanLog::WriteJson(std::FILE* out, const std::string& workload) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(out, "{\"name\": \"%s\", \"spans\": [",
               JsonEscape(workload).c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n{\"id\": %zu, \"name\": \"%s\", \"class\": \"%s\", "
                 "\"start_ns\": %" PRIu64 ", \"end_ns\": %" PRIu64
                 ", \"parent\": %" PRId64 ", \"request\": %" PRIu64 "}",
                 i == 0 ? "" : ",", i, JsonEscape(s.name).c_str(),
                 JsonEscape(s.cls).c_str(), s.start_ns, s.end_ns, s.parent,
                 s.request);
  }
  std::fprintf(out, "\n]}");
}

OpenLoopResult RunOpenLoop(uint64_t start_ns, uint64_t end_ns, double rate,
                           const std::function<bool(size_t)>& exec) {
  OpenLoopResult out;
  const double interval_ns = 1e9 / rate;
  const uint64_t give_up_ns = end_ns + 2'000'000'000ull;
  for (size_t i = 0;; ++i) {
    const uint64_t due = start_ns + static_cast<uint64_t>(i * interval_ns);
    if (due >= end_ns) break;
    uint64_t now = NowNs();
    if (now >= give_up_ns) {
      ++out.attempted;
      ++out.failed;
      continue;
    }
    // Sleep to just short of the due time, then spin: a sleeping thread
    // wakes tens of microseconds late, which would be charged as latency.
    constexpr uint64_t kSpinNs = 200'000;
    if (now + kSpinNs < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - kSpinNs));
    }
    while ((now = NowNs()) < due) std::this_thread::yield();
    ++out.attempted;
    out.late_ms.Add(static_cast<double>(now - due) / 1e6);
    bool ok = exec(i);
    out.latency_ms.Add(static_cast<double>(NowNs() - due) / 1e6);
    if (!ok) ++out.failed;
  }
  return out;
}

uint64_t Fnv1a(const std::string& text, uint64_t hash) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + JsonEscape(metrics[i].name) +
           "\": {\"value\": " + value + ", \"unit\": \"" +
           JsonEscape(metrics[i].unit) + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace idaa_bench
