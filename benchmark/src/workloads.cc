#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string_view>
#include <thread>

#include "accel/sharded_accelerator.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "idaa/system.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace idaa_bench {
namespace {

using idaa::IdaaSystem;
using idaa::Rng;
using idaa::StrFormat;
namespace federation = idaa::federation;
namespace metric = idaa::metric;

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

enum class Traffic { kReports, kLookups, kPipelines, kHtap };

struct Spec {
  const char* name;
  Traffic traffic;
  size_t orders;        ///< fact-table rows
  size_t shards;        ///< SystemOptions::accelerator_shards
  bool writes_are_ops;  ///< the timed operation is the writer's statement
  double tail_pct;      ///< reported tail percentile (see Samples::Beyond)
};

// Table sizes keep three set-ups, the window and the DB2 oracle of one run
// near 20 s on a 4-core host; README.md gives the reason for each workload.
// htap_reads and htap_writes run identical traffic and differ only in whose
// latency is the timed operation: the reader's or the open-loop writer's.
constexpr Spec kSpecs[] = {
    {"olap_report", Traffic::kReports, 500'000, 1, false, 95.0},
    {"point_lookup", Traffic::kLookups, 500'000, 1, false, 99.0},
    {"elt_mining", Traffic::kPipelines, 500'000, 1, false, 90.0},
    {"htap_reads", Traffic::kHtap, 100'000, 4, false, 95.0},
    {"htap_writes", Traffic::kHtap, 100'000, 4, true, 99.0},
};

constexpr int64_t kCustomers = 1000;
constexpr int kRounds = 3;  ///< set-ups per untraced run, one window slice each
constexpr double kOracleFraction = 0.01;
constexpr int kHotKeys = 64;
// htap writer: open loop at kWriteRate statements/s. DB2 executes UPDATE
// and DELETE by key as a table scan, so their share sets the sustainable
// rate; see README.md.
constexpr double kWriteRate = 200;
constexpr int kInsertWeight = 196;
constexpr int kUpdateWeight = 3;
constexpr int kDeleteWeight = 1;
constexpr double kGroomIntervalS = 2.0;

const char* const kRegions[] = {"NORTH", "SOUTH", "EAST", "WEST"};
const char* const kTiers[] = {"GOLD", "SILVER", "BRONZE"};

/// Independent random streams derived from the run seed (splitmix64). Data
/// streams use round 0; each measured round draws its own statements.
enum Stream : uint64_t {
  kOrdersData = 1,
  kCustomersData,
  kReaderStream,
  kWriterStream,
  kPipelineStream,
  kOracleStream,
  kHotKeyStream,
  kWarmStream,
};

uint64_t StreamSeed(uint64_t seed, Stream stream, uint64_t round = 0) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull +
               round * 0x8CB92BA72F3D8DD7ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

const Spec* FindSpec(const std::string& name) {
  for (const Spec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

/// A read statement shape: its mix weight and a literal generator.
struct Shape {
  const char* name;
  int weight;
  std::function<std::string(Rng&)> sql;
};

std::string Amount(Rng& rng) {
  return StrFormat("%.2f", static_cast<double>(rng.Uniform(0, 99999)) / 100.0);
}

std::string PointLookup(int64_t id) {
  return StrFormat(
      "SELECT id, cust, amount, region, qty FROM orders WHERE id = %lld",
      static_cast<long long>(id));
}

std::vector<Shape> ReadShapes(const Spec& spec, uint64_t seed) {
  const int64_t n = static_cast<int64_t>(spec.orders);
  switch (spec.traffic) {
    case Traffic::kReports:
      return {
          {"r1_scan_agg", 20,
           [](Rng& r) {
             return "SELECT COUNT(*), SUM(amount), AVG(qty) FROM orders "
                    "WHERE amount > " + Amount(r);
           }},
          {"r2_group", 20,
           [](Rng& r) {
             return "SELECT region, COUNT(*), SUM(amount), MAX(qty) FROM "
                    "orders WHERE amount < " + Amount(r) +
                    " GROUP BY region ORDER BY region";
           }},
          {"r3_star_join", 20,
           [](Rng& r) {
             return "SELECT c.tier, COUNT(*), SUM(o.amount) FROM orders o "
                    "JOIN customers c ON o.cust = c.cid WHERE o.amount > " +
                    Amount(r) + " GROUP BY c.tier ORDER BY c.tier";
           }},
          {"r4_range", 20,
           [n](Rng& r) {
             int64_t lo = r.Uniform(0, n - n / 20);
             return StrFormat("SELECT COUNT(*), SUM(amount), MIN(amount) FROM "
                              "orders WHERE id BETWEEN %lld AND %lld AND "
                              "amount > ",
                              static_cast<long long>(lo),
                              static_cast<long long>(lo + n / 20)) +
                    Amount(r);
           }},
          {"r5_topk", 10,
           [](Rng& r) {
             return "SELECT id, amount FROM orders WHERE amount > " +
                    Amount(r) + " ORDER BY amount DESC, id LIMIT 10";
           }},
          {"r6_or_residual", 10,
           [](Rng& r) {
             return StrFormat("SELECT COUNT(*), SUM(amount) FROM orders WHERE "
                              "qty = %d OR amount < ",
                              static_cast<int>(r.Uniform(1, 50))) +
                    Amount(r);
           }},
      };
    case Traffic::kLookups: {
      Rng hot_rng(StreamSeed(seed, kHotKeyStream));
      auto hot = std::make_shared<std::vector<int64_t>>();
      for (int i = 0; i < kHotKeys; ++i) hot->push_back(hot_rng.Uniform(0, n - 1));
      return {
          {"l1_point", 70, [n](Rng& r) { return PointLookup(r.Uniform(0, n - 1)); }},
          {"l2_point_hot", 20,
           [hot](Rng& r) { return PointLookup((*hot)[r.Index(hot->size())]); }},
          {"l3_range", 10,
           [n](Rng& r) {
             int64_t lo = r.Uniform(0, n - 101);
             return StrFormat("SELECT COUNT(*), SUM(amount) FROM orders WHERE "
                              "id BETWEEN %lld AND %lld",
                              static_cast<long long>(lo),
                              static_cast<long long>(lo + 100));
           }},
      };
    }
    case Traffic::kHtap:
      return {
          {"h1_pruned_agg", 30,
           [](Rng& r) {
             return StrFormat("SELECT COUNT(*), SUM(amount), MAX(qty) FROM "
                              "orders WHERE cust = %lld",
                              static_cast<long long>(r.Uniform(0, kCustomers - 1)));
           }},
          {"h2_scatter_group", 40,
           [](Rng& r) {
             return "SELECT region, COUNT(*), SUM(amount) FROM orders WHERE "
                    "amount > " + Amount(r) + " GROUP BY region ORDER BY region";
           }},
          {"h3_bcast_join", 30,
           [](Rng& r) {
             return StrFormat("SELECT c.tier, COUNT(*), SUM(o.amount) FROM "
                              "orders o JOIN customers c ON o.cust = c.cid "
                              "WHERE o.qty < %d GROUP BY c.tier ORDER BY c.tier",
                              static_cast<int>(r.Uniform(2, 50)));
           }},
      };
    case Traffic::kPipelines:
      return {};
  }
  return {};
}

/// Draws items in shuffled rounds that hold each one exactly in proportion
/// to its weight, so a window of a few rounds always has the exact mix and
/// the draw adds no run-to-run noise.
class Deck {
 public:
  explicit Deck(const std::vector<int>& weights) {
    int unit = 0;
    for (int w : weights) unit = std::gcd(unit, w);
    for (size_t i = 0; i < weights.size(); ++i) {
      cards_.insert(cards_.end(), static_cast<size_t>(weights[i] / unit), i);
    }
    next_ = cards_.size();
  }

  size_t Draw(Rng& rng) {
    if (next_ == cards_.size()) {
      for (size_t i = cards_.size() - 1; i > 0; --i) {
        std::swap(cards_[i], cards_[rng.Index(i + 1)]);
      }
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  std::vector<size_t> cards_;
  size_t next_ = 0;
};

std::vector<int> Weights(const std::vector<Shape>& shapes) {
  std::vector<int> out;
  for (const Shape& s : shapes) out.push_back(s.weight);
  return out;
}

/// The htap writer's statement stream: inserts of new keys, updates of a
/// non-key column and deletes, drawn from the keys it knows to be live, so
/// every UPDATE and DELETE hits exactly one row.
class WriteGen {
 public:
  struct Op {
    const char* cls;
    std::string sql;
  };

  WriteGen(uint64_t seed, uint64_t round, size_t rows)
      : rng_(StreamSeed(seed, kWriterStream, round)),
        kinds_({kInsertWeight, kUpdateWeight, kDeleteWeight}),
        next_id_(static_cast<int64_t>(rows)),
        live_(rows) {
    std::iota(live_.begin(), live_.end(), int64_t{0});
  }

  Op Next() {
    const size_t kind = kinds_.Draw(rng_);
    if (kind == 0) {
      int64_t id = next_id_++;
      live_.push_back(id);
      return {"w_insert",
              StrFormat("INSERT INTO orders VALUES (%lld, %lld, %s, '%s', %lld)",
                        static_cast<long long>(id),
                        static_cast<long long>(rng_.Uniform(0, kCustomers - 1)),
                        Amount(rng_).c_str(), kRegions[rng_.Uniform(0, 3)],
                        static_cast<long long>(rng_.Uniform(1, 50)))};
    }
    size_t pos = rng_.Index(live_.size());
    const long long id = live_[pos];
    if (kind == 1) {
      return {"w_update",
              StrFormat("UPDATE orders SET amount = %s WHERE id = %lld",
                        Amount(rng_).c_str(), id)};
    }
    live_[pos] = live_.back();
    live_.pop_back();
    return {"w_delete", StrFormat("DELETE FROM orders WHERE id = %lld", id)};
  }

 private:
  Rng rng_;
  Deck kinds_;
  int64_t next_id_;
  std::vector<int64_t> live_;
};

/// One elt_mining pipeline: a seeded region and qty cut (about 10% of the
/// orders) and the k-means seed.
struct PipelineParams {
  std::string region;
  int qty_cut = 0;
  int kmeans_seed = 0;
};

PipelineParams NextPipeline(Rng& rng) {
  PipelineParams p;
  p.region = kRegions[rng.Uniform(0, 3)];
  p.qty_cut = static_cast<int>(rng.Uniform(16, 24));
  p.kmeans_seed = static_cast<int>(rng.Uniform(1, 1000));
  return p;
}

// ---------------------------------------------------------------------------
// Clients: every statement goes through Connection::Execute; while a span
// log is attached, a SELECT is then replayed through the public function
// of each layer it crossed, each call timed as one span.
// ---------------------------------------------------------------------------

struct Outcome {
  bool ok = false;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  federation::StatementResult result;
  std::string error;
  int64_t span = -1;
  uint64_t request = 0;

  double Ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
  uint64_t RowsOut() const { return result.rows.NumRows() + result.rows_affected; }
};

class Client {
 public:
  explicit Client(IdaaSystem* system)
      : system_(system), conn_(system->NewConnection()) {}

  void set_spans(SpanLog* spans) { spans_ = spans; }
  SpanLog* spans() const { return spans_; }

  /// Executes `sql`. `layer` names the root span: "idaa.execute" for a
  /// SELECT (replayed), otherwise the layer whose entry point the statement
  /// is (only its parse is replayed).
  Outcome Run(const std::string& sql, const char* layer, const std::string& cls,
              int64_t parent = -1) {
    Outcome out;
    out.start_ns = NowNs();
    auto executed = conn_->Execute(sql);
    out.end_ns = NowNs();
    if (executed.ok()) {
      out.ok = true;
      out.result = std::move(*executed);
    } else {
      out.error = executed.status().ToString();
    }
    if (spans_ != nullptr) {
      out.request = spans_->NewRequest();
      out.span = spans_->Add({layer, cls, out.start_ns, out.end_ns, parent,
                              out.request});
      if (std::string_view(layer) == "idaa.execute") {
        ReplaySelect(sql, cls, out.span, out.request);
      } else {
        uint64_t t = NowNs();
        if (!idaa::sql::ParseStatement(sql).ok()) ++replay_errors;
        spans_->Add({"sql.parse", cls, t, NowNs(), out.span, out.request});
      }
    }
    return out;
  }

  /// ExecuteSelect with a QueryTrace attached minus without, per replay.
  Samples trace_cost_us;
  uint64_t replay_errors = 0;

 private:
  void ReplaySelect(const std::string& sql, const std::string& cls,
                    int64_t root, uint64_t request) {
    auto span = [&](const char* name, uint64_t start, uint64_t end) {
      spans_->Add({name, cls, start, end, root, request});
    };
    uint64_t t = NowNs();
    auto parsed = idaa::sql::ParseStatement(sql);
    span("sql.parse", t, NowNs());
    if (!parsed.ok() || (*parsed)->kind() != idaa::sql::StatementKind::kSelect) {
      ++replay_errors;
      return;
    }
    const auto& select = static_cast<const idaa::sql::SelectStatement&>(**parsed);
    t = NowNs();
    auto route = system_->federation().router().RouteSelect(
        select, conn_->acceleration_mode());
    span("federation.route", t, NowNs());
    t = NowNs();
    idaa::sql::Binder binder(system_->catalog());
    auto plan = binder.BindSelect(select);
    span("sql.bind", t, NowNs());
    if (!route.ok() || !plan.ok() ||
        route->target != federation::Target::kAccelerator) {
      ++replay_errors;
      return;
    }
    t = NowNs();
    idaa::Status sent = system_->channel().SendStatement(select.ToSql());
    span("federation.transfer", t, NowNs());
    t = NowNs();
    idaa::Transaction* txn = system_->txn_manager().Begin();
    span("txn.begin_commit", t, NowNs());

    idaa::accel::Accelerator& accel = system_->accelerator();
    auto traced_ns = [&] {
      idaa::QueryTrace trace;
      idaa::TraceSpan statement(&trace, "statement");
      uint64_t start = NowNs();
      (void)accel.ExecuteSelect(*plan, txn->id(), txn->snapshot_csn(),
                                statement.context());
      return NowNs() - start;
    };
    // Alternate which variant runs first so warm caches favour neither.
    const bool traced_first = (replays_++ % 2) == 1;
    uint64_t traced = traced_first ? traced_ns() : 0;
    t = NowNs();
    auto rows = accel.ExecuteSelect(*plan, txn->id(), txn->snapshot_csn());
    const uint64_t untraced_end = NowNs();
    span("accel.exec", t, untraced_end);
    if (!traced_first) traced = traced_ns();
    trace_cost_us.Add(
        (static_cast<double>(traced) - static_cast<double>(untraced_end - t)) / 1e3);

    bool fetched = false;
    t = NowNs();
    if (rows.ok()) {
      fetched = system_->channel().FetchResultFromAccelerator(*rows).ok();
    }
    span("federation.transfer", t, NowNs());
    t = NowNs();
    idaa::Status committed = system_->txn_manager().Commit(txn);
    span("txn.begin_commit", t, NowNs());
    if (!sent.ok() || !fetched || !committed.ok()) ++replay_errors;
  }

  IdaaSystem* system_;
  std::unique_ptr<idaa::Connection> conn_;
  SpanLog* spans_ = nullptr;
  uint64_t replays_ = 0;
};

void NoteError(std::vector<std::string>* errors, const std::string& sql,
               const std::string& error) {
  if (errors->size() < 5) errors->push_back(sql + " -> " + error);
}

// ---------------------------------------------------------------------------
// elt_mining pipelines
// ---------------------------------------------------------------------------

struct PipelineRecord {
  PipelineParams params;
  uint64_t s1_rows = 0;
  uint64_t s2_rows = 0;
};

struct PipelineStats {
  Samples latency_ms;
  std::map<std::string, Samples> stage_ms;
  std::vector<PipelineRecord> records;
  uint64_t attempted = 0;  ///< statements
  uint64_t failed = 0;
  uint64_t mismatches = 0;  ///< in-pipeline row-count disagreements
  uint64_t rows_out = 0;
  std::vector<std::string> errors;
};

/// Runs one pipeline; every AOT it creates is dropped again at the end.
void RunPipeline(Client& client, const PipelineParams& p, PipelineStats* stats) {
  struct Step {
    std::string sql;
    const char* layer;
    const char* cls;
  };
  const std::vector<Step> steps = {
      {"CREATE TABLE elt_s1 (id INT, cust INT, amount DOUBLE, qty INT) "
       "IN ACCELERATOR",
       "catalog.ddl", "ddl"},
      {StrFormat("INSERT INTO elt_s1 SELECT id, cust, amount, qty FROM orders "
                 "WHERE region = '%s' AND qty <= %d",
                 p.region.c_str(), p.qty_cut),
       "accel.aot_insert", "s1_insert"},
      {"CREATE TABLE elt_s2 (cust INT, spend DOUBLE, items INT, n INT) "
       "IN ACCELERATOR",
       "catalog.ddl", "ddl"},
      {"INSERT INTO elt_s2 SELECT cust, SUM(amount), SUM(qty), COUNT(*) "
       "FROM elt_s1 GROUP BY cust",
       "accel.aot_insert", "s2_insert"},
      {"CALL IDAA.NORMALIZE('input=elt_s2', 'output=elt_s3', "
       "'columns=spend,items,n')",
       "analytics.normalize", "normalize"},
      {StrFormat("CALL IDAA.KMEANS('input=elt_s3', 'output=elt_s4', "
                 "'columns=spend,items,n', 'k=4', 'seed=%d')",
                 p.kmeans_seed),
       "analytics.kmeans", "kmeans"},
      {"CALL IDAA.LINREG('input=elt_s3', 'target=spend', "
       "'columns=items,n', 'output=elt_s5')",
       "analytics.linreg", "linreg"},
      {"SELECT cluster, COUNT(*), AVG(spend) FROM elt_s4 GROUP BY cluster "
       "ORDER BY cluster",
       "idaa.execute", "final_select"},
      {"DROP TABLE elt_s1", "catalog.ddl", "ddl"},
      {"DROP TABLE elt_s2", "catalog.ddl", "ddl"},
      {"DROP TABLE elt_s3", "catalog.ddl", "ddl"},
      {"DROP TABLE elt_s4", "catalog.ddl", "ddl"},
      {"DROP TABLE elt_s5", "catalog.ddl", "ddl"},
  };
  SpanLog* spans = client.spans();
  const uint64_t start = NowNs();
  int64_t root = -1;
  if (spans != nullptr) {
    root = spans->Add({"pipeline", "pipeline", start, start, -1,
                       spans->NewRequest()});
  }
  PipelineRecord record{p, 0, 0};
  uint64_t clustered = 0;
  for (const Step& step : steps) {
    Outcome o = client.Run(step.sql, step.layer, step.cls, root);
    ++stats->attempted;
    if (!o.ok) {
      ++stats->failed;
      NoteError(&stats->errors, step.sql, o.error);
      for (int i = 1; i <= 5; ++i) {
        (void)client.Run(StrFormat("DROP TABLE IF EXISTS elt_s%d", i),
                         "catalog.ddl", "ddl", root);
      }
      if (spans != nullptr) spans->Finish(root, NowNs());
      return;
    }
    stats->rows_out += o.RowsOut();
    stats->stage_ms[step.cls].Add(o.Ms());
    if (std::string_view(step.cls) == "s1_insert") record.s1_rows = o.result.rows_affected;
    if (std::string_view(step.cls) == "s2_insert") record.s2_rows = o.result.rows_affected;
    if (std::string_view(step.cls) == "final_select") {
      for (const idaa::Row& row : o.result.rows.rows()) {
        clustered += static_cast<uint64_t>(row[1].AsInteger());
      }
    }
  }
  const uint64_t end = NowNs();
  if (spans != nullptr) spans->Finish(root, end);
  stats->latency_ms.Add(static_cast<double>(end - start) / 1e6);
  // Every grouped customer must land in exactly one cluster.
  if (clustered != record.s2_rows) {
    ++stats->mismatches;
    NoteError(&stats->errors, "pipeline " + p.region,
              StrFormat("k-means clustered %llu of %llu rows",
                        static_cast<unsigned long long>(clustered),
                        static_cast<unsigned long long>(record.s2_rows)));
  }
  stats->records.push_back(std::move(record));
}

// ---------------------------------------------------------------------------
// Set-up: load, ACCEL_ADD_TABLES, GROOM and one warm pass of every shape.
// ---------------------------------------------------------------------------

idaa::Status LoadTable(IdaaSystem& system, const std::string& table,
                       idaa::Schema schema, size_t rows, uint64_t seed,
                       const std::function<idaa::Row(Rng&, size_t)>& make) {
  Rng rng(seed);
  idaa::loader::GeneratorSource source(
      std::move(schema), rows, [&](size_t i) { return make(rng, i); });
  idaa::loader::LoadOptions options;
  options.batch_size = 8192;
  auto report = system.loader().Load(table, &source, options);
  return report.ok() ? idaa::Status::OK() : report.status();
}

struct Setup {
  std::unique_ptr<IdaaSystem> system;
  double total_s = 0;
  double load_s = 0;
  double add_s = 0;
  double groom_s = 0;
  double warm_s = 0;
  size_t rows_loaded = 0;
  std::string error;  ///< non-empty when set-up failed
};

Setup BuildSystem(const Spec& spec, uint64_t seed,
                  const std::vector<Shape>& shapes, SpanLog* spans) {
  Setup out;
  const uint64_t t0 = NowNs();
  idaa::SystemOptions options;
  options.accelerator_shards = spec.shards;
  if (spec.shards > 1) options.accelerator.num_threads = 1;
  out.system = std::make_unique<IdaaSystem>(options);
  IdaaSystem& system = *out.system;

  auto timed = [&](const char* layer, const std::function<idaa::Status()>& fn,
                   double* seconds) {
    const uint64_t start = NowNs();
    idaa::Status st = fn();
    const uint64_t end = NowNs();
    *seconds += static_cast<double>(end - start) / 1e9;
    if (spans != nullptr) {
      spans->Add({layer, "setup", start, end, -1, spans->NewRequest()});
    }
    return st;
  };
  auto exec = [&](const std::string& sql) -> idaa::Status {
    auto r = system.Execute(sql);
    return r.ok() ? idaa::Status::OK() : r.status();
  };
  auto failed = [&](const std::string& step, const idaa::Status& st) {
    out.error = step + ": " + st.ToString();
    return std::move(out);
  };

  const std::string distribute = spec.shards > 1 ? " DISTRIBUTE BY (cust)" : "";
  for (const std::string& ddl :
       {"CREATE TABLE orders (id INT NOT NULL, cust INT, amount DOUBLE, "
        "region VARCHAR, qty INT)" + distribute,
        std::string("CREATE TABLE customers (cid INT NOT NULL, tier VARCHAR, "
                    "score DOUBLE)")}) {
    idaa::Status st = exec(ddl);
    if (!st.ok()) return failed(ddl, st);
  }

  idaa::Status st = timed("loader.load", [&] {
    idaa::Schema orders({{"ID", idaa::DataType::kInteger, false},
                         {"CUST", idaa::DataType::kInteger, true},
                         {"AMOUNT", idaa::DataType::kDouble, true},
                         {"REGION", idaa::DataType::kVarchar, true},
                         {"QTY", idaa::DataType::kInteger, true}});
    IDAA_RETURN_IF_ERROR(LoadTable(
        system, "orders", std::move(orders), spec.orders,
        StreamSeed(seed, kOrdersData), [](Rng& r, size_t i) {
          return idaa::Row{
              idaa::Value::Integer(static_cast<int64_t>(i)),
              idaa::Value::Integer(r.Uniform(0, kCustomers - 1)),
              idaa::Value::Double(static_cast<double>(r.Uniform(0, 99999)) / 100.0),
              idaa::Value::Varchar(kRegions[r.Uniform(0, 3)]),
              idaa::Value::Integer(r.Uniform(1, 50))};
        }));
    idaa::Schema customers({{"CID", idaa::DataType::kInteger, false},
                            {"TIER", idaa::DataType::kVarchar, true},
                            {"SCORE", idaa::DataType::kDouble, true}});
    return LoadTable(system, "customers", std::move(customers), kCustomers,
                     StreamSeed(seed, kCustomersData), [](Rng& r, size_t i) {
                       return idaa::Row{
                           idaa::Value::Integer(static_cast<int64_t>(i)),
                           idaa::Value::Varchar(kTiers[r.Uniform(0, 2)]),
                           idaa::Value::Double(r.UniformDouble(0, 1))};
                     });
  }, &out.load_s);
  if (!st.ok()) return failed("load", st);
  out.rows_loaded = spec.orders + kCustomers;

  st = timed("federation.add_tables", [&] {
    IDAA_RETURN_IF_ERROR(exec("CALL SYSPROC.ACCEL_ADD_TABLES('orders')"));
    return exec("CALL SYSPROC.ACCEL_ADD_TABLES('customers')");
  }, &out.add_s);
  if (!st.ok()) return failed("ACCEL_ADD_TABLES", st);

  st = timed("accel.groom", [&] { return exec("CALL SYSPROC.ACCEL_GROOM()"); },
             &out.groom_s);
  if (!st.ok()) return failed("ACCEL_GROOM", st);

  const uint64_t warm_start = NowNs();
  Rng warm(StreamSeed(seed, kWarmStream));
  for (const Shape& shape : shapes) {
    std::string sql = shape.sql(warm);
    st = exec(sql);
    if (!st.ok()) return failed(sql, st);
  }
  if (spec.traffic == Traffic::kPipelines) {
    Client client(&system);
    PipelineStats warm_stats;
    RunPipeline(client, NextPipeline(warm), &warm_stats);
    if (warm_stats.failed > 0 || warm_stats.mismatches > 0) {
      return failed("warm pipeline",
                    idaa::Status::Internal(warm_stats.errors.empty()
                                               ? "mismatch"
                                               : warm_stats.errors.front()));
    }
  }
  out.warm_s = static_cast<double>(NowNs() - warm_start) / 1e9;
  out.total_s = static_cast<double>(NowNs() - t0) / 1e9;
  return out;
}

// ---------------------------------------------------------------------------
// The timed window
// ---------------------------------------------------------------------------

struct ReadStats {
  Samples latency_ms;
  std::map<std::string, Samples> shape_ms;
  Samples queued_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rows_out = 0;
  size_t pending_max = 0;
  std::vector<std::pair<std::string, idaa::ResultSet>> sampled;  ///< oracle
  std::vector<std::string> errors;
};

struct WriteStats {
  OpenLoopResult loop;
  std::map<std::string, Samples> kind_ms;
  Samples db2_write_us;  ///< statements during which no apply batch ran
  Samples apply_ms;      ///< replication apply paid inside a statement
  uint64_t rows_out = 0;
  std::vector<std::string> errors;
};

/// Counter deltas over one phase.
struct Counters {
  uint64_t boundary_bytes = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_skipped = 0;
  uint64_t encoded_eval = 0;
  uint64_t decode_fallback = 0;
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t result_hits = 0;
  uint64_t result_misses = 0;
  uint64_t repl_batches = 0;
  uint64_t repl_changes = 0;

  static Counters Read(const idaa::MetricsRegistry& m) {
    Counters c;
    c.boundary_bytes = m.Get(metric::kFederationBytesToAccel) +
                       m.Get(metric::kFederationBytesFromAccel);
    c.rows_scanned = m.Get(metric::kAccelRowsScanned);
    c.rows_skipped = m.Get(metric::kAccelRowsSkippedZoneMap);
    c.encoded_eval = m.Get(metric::kAccelRowsEncodedEval);
    c.decode_fallback = m.Get(metric::kAccelRowsDecodeFallback);
    c.plan_hits = m.Get(metric::kPlanCacheHits);
    c.plan_misses = m.Get(metric::kPlanCacheMisses);
    c.result_hits = m.Get(metric::kResultCacheHits);
    c.result_misses = m.Get(metric::kResultCacheMisses);
    c.repl_batches = m.Get(metric::kReplicationBatches);
    c.repl_changes = m.Get(metric::kReplicationChangesApplied);
    return c;
  }

  /// Adds `after - before` to this.
  void AddDelta(const Counters& after, const Counters& before) {
    boundary_bytes += after.boundary_bytes - before.boundary_bytes;
    rows_scanned += after.rows_scanned - before.rows_scanned;
    rows_skipped += after.rows_skipped - before.rows_skipped;
    encoded_eval += after.encoded_eval - before.encoded_eval;
    decode_fallback += after.decode_fallback - before.decode_fallback;
    plan_hits += after.plan_hits - before.plan_hits;
    plan_misses += after.plan_misses - before.plan_misses;
    result_hits += after.result_hits - before.result_hits;
    result_misses += after.result_misses - before.result_misses;
    repl_batches += after.repl_batches - before.repl_batches;
    repl_changes += after.repl_changes - before.repl_changes;
  }
};

struct Phase {
  double seconds = 0;
  ReadStats reads;
  WriteStats writes;
  PipelineStats pipelines;
  Samples groom_ms;
  uint64_t groom_attempted = 0;
  uint64_t groom_failed = 0;
  Counters counters;

  uint64_t Attempted() const {
    return reads.attempted + writes.loop.attempted + pipelines.attempted +
           groom_attempted;
  }
  uint64_t Failed() const {
    return reads.failed + writes.loop.failed + pipelines.failed +
           pipelines.mismatches + groom_failed;
  }
  uint64_t RowsOut() const {
    return reads.rows_out + writes.rows_out + pipelines.rows_out;
  }
};

/// The client sessions and statement generators of one workload, run
/// against a set-up system for one round. They persist across calls to Run,
/// so a traced phase continues the statement stream of the untraced one.
class Clients {
 public:
  Clients(const Spec& spec, IdaaSystem* system, uint64_t seed, uint64_t round,
         std::vector<Shape> shapes)
      : spec_(spec),
        system_(system),
        shapes_(std::move(shapes)),
        reader_(system),
        writer_(system),
        groomer_(system),
        reads_(StreamSeed(seed, kReaderStream, round)),
        mix_(Weights(shapes_)),
        sampler_(StreamSeed(seed, kOracleStream, round)),
        pipelines_(StreamSeed(seed, kPipelineStream, round)),
        writes_(seed, round, spec.orders) {}

  /// Runs the traffic for `seconds`, adding what it measures to `out`.
  void Run(double seconds, SpanLog* spans, Phase* out) {
    for (Client* c : {&reader_, &writer_, &groomer_}) c->set_spans(spans);
    const Counters before = Counters::Read(system_->metrics());
    const uint64_t start = NowNs();
    const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
    switch (spec_.traffic) {
      case Traffic::kReports:
      case Traffic::kLookups:
        ReadLoop(end, &out->reads);
        break;
      case Traffic::kPipelines:
        while (NowNs() < end) {
          RunPipeline(reader_, NextPipeline(pipelines_), &out->pipelines);
        }
        break;
      case Traffic::kHtap: {
        OpenLoopResult loop;
        std::thread writer([&] {
          loop = RunOpenLoop(start, end, kWriteRate,
                             [&](size_t) { return WriteOnce(&out->writes); });
        });
        std::thread groomer([&] { GroomLoop(start, end, out); });
        ReadLoop(end, &out->reads);
        writer.join();
        groomer.join();
        out->writes.loop.latency_ms.Append(loop.latency_ms);
        out->writes.loop.late_ms.Append(loop.late_ms);
        out->writes.loop.attempted += loop.attempted;
        out->writes.loop.failed += loop.failed;
        break;
      }
    }
    out->seconds += static_cast<double>(NowNs() - start) / 1e9;
    out->counters.AddDelta(Counters::Read(system_->metrics()), before);
  }

  /// The reader runs every SELECT, so it alone measures the trace cost.
  Samples TraceCostUs() const { return reader_.trace_cost_us; }
  uint64_t ReplayErrors() const {
    return reader_.replay_errors + writer_.replay_errors + groomer_.replay_errors;
  }

 private:
  void ReadLoop(uint64_t end, ReadStats* out) {
    while (NowNs() < end) {
      const Shape& shape = shapes_[mix_.Draw(reads_)];
      std::string sql = shape.sql(reads_);
      const bool sample = sampler_.Bernoulli(kOracleFraction);
      out->pending_max =
          std::max(out->pending_max, system_->replication().PendingChanges());
      Outcome o = reader_.Run(sql, "idaa.execute", shape.name);
      ++out->attempted;
      if (!o.ok) {
        ++out->failed;
        NoteError(&out->errors, sql, o.error);
        continue;
      }
      out->latency_ms.Add(o.Ms());
      out->shape_ms[shape.name].Add(o.Ms());
      out->queued_us.Add(static_cast<double>(o.result.queued_us));
      out->rows_out += o.RowsOut();
      if (sample) out->sampled.emplace_back(sql, std::move(o.result.rows));
    }
  }

  bool WriteOnce(WriteStats* out) {
    WriteGen::Op op = writes_.Next();
    idaa::LatencyHistogram& apply =
        system_->histograms().GetOrCreate(idaa::histo::kReplicationBatchApplyUs);
    const uint64_t batches = system_->metrics().Get(metric::kReplicationBatches);
    const uint64_t apply_us = apply.Sum();
    Outcome o = writer_.Run(op.sql, "db2.write", op.cls);
    if (!o.ok) {
      NoteError(&out->errors, op.sql, o.error);
      return false;
    }
    out->kind_ms[op.cls].Add(o.Ms());
    out->rows_out += o.RowsOut();
    if (system_->metrics().Get(metric::kReplicationBatches) == batches) {
      out->db2_write_us.Add(o.Ms() * 1e3);
    } else {
      // The statement's commit applied a replication batch inline.
      const uint64_t applied_us = apply.Sum() - apply_us;
      out->apply_ms.Add(static_cast<double>(applied_us) / 1e3);
      if (SpanLog* spans = writer_.spans()) {
        spans->Add({"replication.apply", op.cls,
                    o.end_ns - std::min(o.end_ns - o.start_ns, applied_us * 1000),
                    o.end_ns, o.span, o.request});
      }
    }
    return true;
  }

  void GroomLoop(uint64_t start, uint64_t end, Phase* out) {
    for (int k = 1;; ++k) {
      const uint64_t due = start + static_cast<uint64_t>(k * kGroomIntervalS * 1e9);
      if (due >= end) break;
      const uint64_t now = NowNs();
      if (now < due) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      Outcome o = groomer_.Run("CALL SYSPROC.ACCEL_GROOM()", "accel.groom", "groom");
      ++out->groom_attempted;
      if (o.ok) {
        out->groom_ms.Add(o.Ms());
      } else {
        ++out->groom_failed;
      }
    }
  }

  const Spec& spec_;
  IdaaSystem* system_;
  std::vector<Shape> shapes_;
  Client reader_;
  Client writer_;
  Client groomer_;
  Rng reads_;
  Deck mix_;
  Rng sampler_;
  Rng pipelines_;
  WriteGen writes_;
};

// ---------------------------------------------------------------------------
// Oracle checks (untimed, after the window)
// ---------------------------------------------------------------------------

bool SameValue(const idaa::Value& a, const idaa::Value& b) {
  if ((a.is_double() || a.is_integer()) && (b.is_double() || b.is_integer()) &&
      (a.is_double() || b.is_double())) {
    // The engines accumulate floating-point sums in different orders.
    double x = a.is_double() ? a.AsDouble() : static_cast<double>(a.AsInteger());
    double y = b.is_double() ? b.AsDouble() : static_cast<double>(b.AsInteger());
    return std::fabs(x - y) <= 1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
  }
  return a == b;
}

bool SameRows(const idaa::ResultSet& a, const idaa::ResultSet& b, bool ordered) {
  if (a.NumRows() != b.NumRows()) return false;
  auto sorted = [&](const idaa::ResultSet& rs) {
    std::vector<idaa::Row> rows = rs.rows();
    if (!ordered) std::sort(rows.begin(), rows.end());
    return rows;
  };
  std::vector<idaa::Row> x = sorted(a);
  std::vector<idaa::Row> y = sorted(b);
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].size() != y[i].size()) return false;
    for (size_t j = 0; j < x[i].size(); ++j) {
      if (!SameValue(x[i][j], y[i][j])) return false;
    }
  }
  return true;
}

federation::ExecOptions OnEngine(federation::AccelerationMode mode) {
  federation::ExecOptions opts;
  opts.acceleration = mode;
  opts.use_result_cache = false;
  return opts;
}

struct Oracle {
  uint64_t checks = 0;
  uint64_t mismatches = 0;
  std::vector<std::string> errors;

  void Check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      ++mismatches;
      NoteError(&errors, what, "mismatch");
    }
  }
};

using SampledReads = std::vector<std::pair<std::string, idaa::ResultSet>>;

/// Sampled reads re-executed on DB2 must return what the accelerator did.
void CheckReadsAgainstDb2(IdaaSystem& system, const SampledReads& sampled,
                          size_t from, Oracle* oracle) {
  for (size_t i = from; i < sampled.size(); ++i) {
    const auto& [sql, rows] = sampled[i];
    auto db2 = system.Execute(sql, OnEngine(federation::AccelerationMode::kNone));
    oracle->Check(db2.ok() && db2->routed_to == federation::Target::kDb2 &&
                      SameRows(rows, db2->rows,
                               sql.find("ORDER BY") != std::string::npos),
                  "DB2 re-execution of " + sql);
  }
}

/// htap: writers have moved on, so once replication is flushed the sampled
/// reads run again on both engines, and the replica is compared with DB2.
void CheckHtap(IdaaSystem& system, const SampledReads& sampled, size_t from,
               Oracle* oracle) {
  oracle->Check(system.replication().Flush().ok(), "replication flush");
  auto verify = system.Execute("CALL SYSPROC.ACCEL_VERIFY_TABLES('orders')");
  bool converged = verify.ok() && verify->rows.NumRows() == 1;
  if (converged) {
    auto col = verify->rows.schema().FindColumn("CONVERGED");
    converged = col && verify->rows.At(0, *col) == idaa::Value::Boolean(true);
  }
  oracle->Check(converged, "ACCEL_VERIFY_TABLES('orders')");
  for (size_t i = from; i < sampled.size(); ++i) {
    const std::string& sql = sampled[i].first;
    auto accel = system.Execute(sql, OnEngine(federation::AccelerationMode::kEligible));
    auto db2 = system.Execute(sql, OnEngine(federation::AccelerationMode::kNone));
    oracle->Check(accel.ok() && db2.ok() &&
                      accel->routed_to == federation::Target::kAccelerator &&
                      SameRows(accel->rows, db2->rows,
                               sql.find("ORDER BY") != std::string::npos),
                  "accelerator vs DB2 for " + sql);
  }
}

/// Each pipeline's AOT row counts must match what DB2 computes for its
/// region and qty cut: one grouped DB2 scan serves every pipeline.
void CheckPipelines(IdaaSystem& system, const std::vector<PipelineRecord>& records,
                    size_t from, Oracle* oracle) {
  auto groups = system.Execute(
      "SELECT region, qty, cust, COUNT(*) FROM orders GROUP BY region, qty, cust",
      OnEngine(federation::AccelerationMode::kNone));
  if (!groups.ok()) {
    oracle->Check(false, "DB2 grouping of orders: " + groups.status().ToString());
    return;
  }
  for (size_t i = from; i < records.size(); ++i) {
    const PipelineRecord& r = records[i];
    uint64_t rows = 0;
    std::set<int64_t> customers;
    for (const idaa::Row& g : groups->rows.rows()) {
      if (g[0].AsVarchar() == r.params.region &&
          g[1].AsInteger() <= r.params.qty_cut) {
        rows += static_cast<uint64_t>(g[3].AsInteger());
        customers.insert(g[2].AsInteger());
      }
    }
    oracle->Check(rows == r.s1_rows && customers.size() == r.s2_rows,
                  StrFormat("pipeline %s qty<=%d row counts", r.params.region.c_str(),
                            r.params.qty_cut));
  }
}

/// Oracle checks for what `phase` ran on `system` past the given sample
/// and pipeline indexes.
void CheckPhase(const Spec& spec, IdaaSystem& system, const Phase& phase,
                size_t sampled_from, size_t records_from, Oracle* oracle) {
  switch (spec.traffic) {
    case Traffic::kReports:
    case Traffic::kLookups:
      CheckReadsAgainstDb2(system, phase.reads.sampled, sampled_from, oracle);
      break;
    case Traffic::kPipelines:
      CheckPipelines(system, phase.pipelines.records, records_from, oracle);
      break;
    case Traffic::kHtap:
      CheckHtap(system, phase.reads.sampled, sampled_from, oracle);
      break;
  }
}

/// Accelerator column bytes per stored row over every shard, after GROOM.
double AccelBytesPerRow(IdaaSystem& system) {
  std::vector<idaa::accel::Accelerator*> instances;
  auto* sharded = dynamic_cast<idaa::accel::ShardedAccelerator*>(&system.accelerator());
  if (sharded != nullptr) {
    for (size_t i = 0; i < sharded->num_shards(); ++i) {
      instances.push_back(&sharded->shard(i));
    }
  } else {
    instances.push_back(&system.accelerator());
  }
  idaa::TransactionManager& tm = system.txn_manager();
  idaa::Transaction* txn = tm.Begin();
  double bytes = 0;
  double rows = 0;
  for (idaa::accel::Accelerator* instance : instances) {
    for (const char* name : {"ORDERS", "CUSTOMERS"}) {
      auto table = instance->GetTable(name);
      if (!table.ok()) continue;
      bytes += static_cast<double>((*table)->ByteSize());
      auto live = (*table)->CountVisible(txn->id(), txn->snapshot_csn(), tm);
      if (live.ok()) rows += static_cast<double>(*live);
    }
  }
  (void)tm.Commit(txn);
  return rows > 0 ? bytes / rows : 0;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Tail percentile of `spec`, or the highest one the sample supports.
double TailPct(const Spec& spec, const Samples& s) {
  if (Samples::Beyond(s.size(), spec.tail_pct) >= 10) return spec.tail_pct;
  std::printf("  warning: only %zu samples, p%g unsupported; reporting p%g\n",
              s.size(), spec.tail_pct, Samples::HighestSupported(s.size()));
  return Samples::HighestSupported(s.size());
}

void PrintSamples(const std::string& label, const Samples& s, const char* unit) {
  if (s.size() == 0) return;
  const double tail = Samples::HighestSupported(s.size());
  std::printf("  %-34s n=%-7zu p50=%-10.4g p%g=%-10.4g (%zu beyond) %s\n",
              label.c_str(), s.size(), s.Percentile(50), tail,
              s.Percentile(tail), Samples::Beyond(s.size(), tail), unit);
}

void PrintPhase(const Spec& spec, const Phase& p) {
  for (const auto& [shape, s] : p.reads.shape_ms) PrintSamples("read " + shape, s, "ms");
  PrintSamples("wlm.queued_us", p.reads.queued_us, "us");
  for (const auto& [cls, s] : p.pipelines.stage_ms) PrintSamples("stage " + cls, s, "ms");
  if (spec.traffic == Traffic::kHtap) {
    for (const auto& [cls, s] : p.writes.kind_ms) PrintSamples("write " + cls, s, "ms");
    PrintSamples("write from due time", p.writes.loop.latency_ms, "ms");
    PrintSamples("harness.gen_late_ms", p.writes.loop.late_ms, "ms");
    PrintSamples("db2.write_us", p.writes.db2_write_us, "us");
    PrintSamples("replication.apply_ms", p.writes.apply_ms, "ms");
    PrintSamples("accel.groom_ms", p.groom_ms, "ms");
    std::printf("  replication: %llu batches, %.1f changes/batch, pending_max %zu\n",
                static_cast<unsigned long long>(p.counters.repl_batches),
                Ratio(static_cast<double>(p.counters.repl_changes),
                      static_cast<double>(p.counters.repl_batches)),
                p.reads.pending_max);
  }
  for (const auto& errors : {p.reads.errors, p.writes.errors, p.pipelines.errors}) {
    for (const std::string& e : errors) std::printf("  error: %s\n", e.c_str());
  }
}

const Samples& PrimaryOps(const Spec& spec, const Phase& p) {
  if (spec.traffic == Traffic::kPipelines) return p.pipelines.latency_ms;
  if (spec.writes_are_ops) return p.writes.loop.latency_ms;
  return p.reads.latency_ms;
}

/// Traced over untraced median of the timed operation, in percent. Reads
/// compare per shape and average, so the mix each half drew cancels out.
double TraceOverheadPct(const Spec& spec, const Phase& untraced,
                        const Phase& traced) {
  if (spec.traffic == Traffic::kPipelines || spec.writes_are_ops) {
    return 100.0 * (Ratio(PrimaryOps(spec, traced).Percentile(50),
                          PrimaryOps(spec, untraced).Percentile(50)) - 1.0);
  }
  double sum = 0;
  int shapes = 0;
  for (const auto& [shape, s] : traced.reads.shape_ms) {
    auto base = untraced.reads.shape_ms.find(shape);
    if (base == untraced.reads.shape_ms.end()) continue;
    sum += Ratio(s.Percentile(50), base->second.Percentile(50)) - 1.0;
    ++shapes;
  }
  return shapes > 0 ? 100.0 * sum / shapes : 0;
}

double Median(std::vector<double> v) {
  Samples s;
  for (double x : v) s.Add(x);
  return s.Percentile(50);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Spec& spec : kSpecs) out.push_back(spec.name);
    return out;
  }();
  return names;
}

uint64_t StatementStreamHash(const std::string& name, uint64_t seed, size_t n) {
  const Spec* spec = FindSpec(name);
  if (spec == nullptr) return 0;
  uint64_t hash = Fnv1a(name);
  std::vector<Shape> shapes = ReadShapes(*spec, seed);
  Rng reads(StreamSeed(seed, kReaderStream));
  Deck mix(Weights(shapes));
  Rng pipelines(StreamSeed(seed, kPipelineStream));
  WriteGen writes(seed, 0, spec->orders);
  for (size_t i = 0; i < n; ++i) {
    if (!shapes.empty()) hash = Fnv1a(shapes[mix.Draw(reads)].sql(reads), hash);
    if (spec->traffic == Traffic::kHtap) hash = Fnv1a(writes.Next().sql, hash);
    if (spec->traffic == Traffic::kPipelines) {
      PipelineParams p = NextPipeline(pipelines);
      hash = Fnv1a(StrFormat("%s/%d/%d", p.region.c_str(), p.qty_cut, p.kmeans_seed),
                   hash);
    }
  }
  return hash;
}

WorkloadResult RunWorkload(const std::string& name, const RunOptions& options,
                           SpanLog* spans) {
  WorkloadResult result;
  const Spec* spec = FindSpec(name);
  if (spec == nullptr) {
    std::printf("unknown workload %s\n", name.c_str());
    result.correct = false;
    return result;
  }
  std::printf("\n== %s (seed %llu, %.1f s window, %s)\n", name.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? "traced" : "untraced");
  std::vector<Shape> shapes = ReadShapes(*spec, options.seed);

  // Set-up runs several times and reports the median. The window is split
  // into one round per set-up system, so the layout any one set-up happens
  // to produce averages out. A traced run sets up once and splits its
  // window into an untraced and a traced half.
  const int rounds = options.trace ? 1 : kRounds;
  const double round_s = options.seconds / (options.trace ? 2 : rounds);
  std::vector<double> setup_s;
  Setup setup;
  Oracle oracle;
  Phase measured;  // untraced: every e2e metric and the counter ratios
  Phase replayed;  // traced half (trace runs only)
  Samples trace_cost_us;
  uint64_t replay_errors = 0;
  double bytes_per_row = 0;
  for (int round = 0; round < rounds; ++round) {
    setup = Setup{};  // tear the previous system down first
    setup = BuildSystem(*spec, options.seed, shapes, options.trace ? spans : nullptr);
    if (!setup.error.empty()) {
      std::printf("  set-up failed: %s\n", setup.error.c_str());
      result.correct = false;
      return result;
    }
    setup_s.push_back(setup.total_s);
    IdaaSystem& system = *setup.system;
    const size_t sampled_from = measured.reads.sampled.size();
    const size_t records_from = measured.pipelines.records.size();
    {
      Clients clients(*spec, &system, options.seed, static_cast<uint64_t>(round), shapes);
      clients.Run(round_s, nullptr, &measured);
      if (options.trace) clients.Run(round_s, spans, &replayed);
      trace_cost_us.Append(clients.TraceCostUs());
      replay_errors += clients.ReplayErrors();
    }
    CheckPhase(*spec, system, measured, sampled_from, records_from, &oracle);
    if (options.trace) CheckPhase(*spec, system, replayed, 0, 0, &oracle);
    oracle.Check(system.Execute("CALL SYSPROC.ACCEL_GROOM()").ok(), "final GROOM");
    bytes_per_row = AccelBytesPerRow(system);
  }
  std::printf("  setup_s %.4f (median of %zu); load %.3f s, add_tables %.3f s, "
              "groom %.3f s, warm %.3f s, %zu rows\n",
              Median(setup_s), setup_s.size(), setup.load_s, setup.add_s,
              setup.groom_s, setup.warm_s, setup.rows_loaded);
  PrintPhase(*spec, measured);
  for (const std::string& e : oracle.errors) std::printf("  oracle: %s\n", e.c_str());

  result.attempted = measured.Attempted() + replayed.Attempted() + oracle.checks;
  result.failed = measured.Failed() + replayed.Failed() + oracle.mismatches +
                  replay_errors;
  result.correct = oracle.mismatches == 0 && replay_errors == 0;
  std::printf("  oracle: %llu checks, %llu mismatches; error_ratio %.6f "
              "(%llu failed / %llu attempted)\n",
              static_cast<unsigned long long>(oracle.checks),
              static_cast<unsigned long long>(oracle.mismatches),
              Ratio(static_cast<double>(result.failed),
                    static_cast<double>(result.attempted)),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));

  const Samples& ops = PrimaryOps(*spec, measured);
  if (!options.trace) {
    const double tail = TailPct(*spec, ops);
    std::printf("  ops: n=%zu p50=%.4f ms p%g=%.4f ms (%zu beyond)\n", ops.size(),
                ops.Percentile(50), tail, ops.Percentile(tail),
                Samples::Beyond(ops.size(), tail));
    const double statements = static_cast<double>(measured.Attempted());
    result.metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"p50_ms", ops.Percentile(50), "ms"},
        {"tail_ms", ops.Percentile(tail), "ms"},
        {"ops_per_s", static_cast<double>(ops.size()) / measured.seconds, "1/s"},
        {"boundary_bytes_per_stmt",
         Ratio(static_cast<double>(measured.counters.boundary_bytes), statements), "B"},
        {"accel_bytes_per_row", bytes_per_row, "B"},
    };
    return result;
  }

  if (!spans->PrintLayerTable(name)) result.correct = false;
  std::printf("  accel.exec per class (replayed, untraced ExecuteSelect):\n");
  for (const Shape& shape : shapes) {
    PrintSamples(std::string("accel.exec_us.") + shape.name,
                 spans->PerRequestUs("accel.exec", shape.name), "us");
  }
  PrintSamples("accel.exec_us.final_select",
               spans->PerRequestUs("accel.exec", "final_select"), "us");
  const Counters& c = measured.counters;
  Samples grooms = replayed.groom_ms;
  grooms.Append(measured.groom_ms);
  grooms.Add(setup.groom_s * 1e3);
  result.metrics = {
      {"idaa.front_door_us", spans->SelfUs("idaa.execute").Percentile(50), "us"},
      {"sql.parse_us", spans->PerRequestUs("sql.parse").Percentile(50), "us"},
      {"sql.bind_us", spans->PerRequestUs("sql.bind").Percentile(50), "us"},
      {"federation.route_us", spans->PerRequestUs("federation.route").Percentile(50), "us"},
      {"federation.transfer_us",
       spans->PerRequestUs("federation.transfer").Percentile(50), "us"},
      {"txn.begin_commit_us", spans->PerRequestUs("txn.begin_commit").Percentile(50), "us"},
      {"accel.exec_us", spans->PerRequestUs("accel.exec").Percentile(50), "us"},
      {"accel.trace_cost_us", trace_cost_us.Percentile(50), "us"},
      {"wlm.plan_cache_hit_ratio",
       Ratio(static_cast<double>(c.plan_hits),
             static_cast<double>(c.plan_hits + c.plan_misses)), "fraction"},
      {"wlm.result_cache_hit_ratio",
       Ratio(static_cast<double>(c.result_hits),
             static_cast<double>(c.result_hits + c.result_misses)), "fraction"},
      {"accel.rows_scanned_per_row_returned",
       Ratio(static_cast<double>(c.rows_scanned), static_cast<double>(measured.RowsOut())),
       "rows/row"},
      {"accel.zone_skip_ratio",
       Ratio(static_cast<double>(c.rows_skipped),
             static_cast<double>(c.rows_scanned + c.rows_skipped)), "fraction"},
      {"accel.encoded_eval_ratio",
       Ratio(static_cast<double>(c.encoded_eval),
             static_cast<double>(c.encoded_eval + c.decode_fallback)), "fraction"},
      {"accel.groom_ms", grooms.Percentile(50), "ms"},
      {"loader.rows_per_s", Ratio(static_cast<double>(setup.rows_loaded), setup.load_s),
       "rows/s"},
      {"federation.add_tables_s", setup.add_s, "s"},
      {"harness.trace_overhead_pct", TraceOverheadPct(*spec, measured, replayed), "%"},
  };
  return result;
}

}  // namespace idaa_bench
