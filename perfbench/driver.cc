#include "driver.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <functional>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>

#include "async/req_pump.h"
#include "common/strings.h"
#include "exec/executor.h"
#include "parser/ast.h"
#include "parser/parser.h"
#include "plan/async_rewriter.h"
#include "plan/binder.h"
#include "storage/page.h"
#include "storage/spill.h"

namespace perfbench {

std::unique_ptr<Workload> MakeWsqLocal(uint64_t seed);
std::unique_ptr<Workload> MakeTable1Latency(uint64_t seed);
std::unique_ptr<Workload> MakeStoredScan(uint64_t seed,
                                         const std::string& scratch);
std::unique_ptr<Workload> MakeStoredWrite(uint64_t seed,
                                          const std::string& scratch);

std::vector<std::string> WorkloadNames() {
  return {"wsq_local", "table1_latency", "stored_scan", "stored_write"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed,
                                       const std::string& scratch_dir) {
  if (name == "wsq_local") return MakeWsqLocal(seed);
  if (name == "table1_latency") return MakeTable1Latency(seed);
  if (name == "stored_scan") return MakeStoredScan(seed, scratch_dir);
  if (name == "stored_write") return MakeStoredWrite(seed, scratch_dir);
  return nullptr;
}

void RunClients(int clients, const std::function<void(int)>& fn) {
  // One client runs on the calling thread: a fresh thread per block
  // would take a fresh malloc arena and make peak RSS depend on which.
  if (clients == 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(fn, c);
  for (std::thread& t : threads) t.join();
}

std::vector<std::string> CanonicalRows(const wsq::ResultSet& result) {
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const wsq::Row& row : result.rows) {
    std::string s;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) s.push_back('\x1f');
      s += row.value(i).ToString();
    }
    rows.push_back(std::move(s));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

wsq::Result<std::string> PlanOperators(wsq::WsqDatabase* db,
                                       const std::string& sql, bool async) {
  WSQ_ASSIGN_OR_RETURN(std::string plan, db->ExplainSelect(sql, async));
  std::string out;
  size_t pos = 0;
  while (pos < plan.size()) {
    size_t end = plan.find('\n', pos);
    if (end == std::string::npos) end = plan.size();
    std::string_view line(plan.data() + pos, end - pos);
    pos = end + 1;
    size_t first = line.find_first_not_of(' ');
    if (first == std::string_view::npos || line.substr(first, 2) == "--") {
      continue;
    }
    out.push_back('\n');
    out.append(line.substr(first));
  }
  return out;
}

void TracingSearchService::Submit(wsq::SearchRequest request,
                                  wsq::SearchCallback done) {
  if (!enabled_.load()) {
    inner_->Submit(std::move(request), std::move(done));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    max_concurrent_ = std::max(max_concurrent_, ++in_flight_);
    requests_.push_back(request);
  }
  int64_t start = NowNanos();
  inner_->Submit(std::move(request),
                 [this, start, done = std::move(done)](wsq::SearchResponse r) {
                   {
                     std::lock_guard<std::mutex> lock(mu_);
                     --in_flight_;
                     call_micros_.push_back((NowNanos() - start) / 1e3);
                   }
                   done(std::move(r));
                 });
}

TracingSearchService::Snapshot TracingSearchService::Take() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Snapshot{call_micros_, max_concurrent_, requests_};
}

namespace {

constexpr double kTail = 99.0;
constexpr size_t kMaxProblems = 5;
/// Set-ups timed for setup_s (median reported): four before the timed
/// window, the last of which is measured, and three after it, so that
/// setup_s sees more than one moment of a host whose speed drifts. One
/// when tracing.
constexpr int kSetups = 7;
constexpr int kSetupsBefore = 4;

/// What one client observed; merged under a lock at the end.
struct Tally {
  std::vector<double> latency_ms;
  std::vector<size_t> kind;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Wall and client-thread CPU spent inside database calls (Execute
  /// or Checkpoint).
  int64_t busy_ns = 0;
  int64_t db_cpu_ns = 0;
  /// Client-thread CPU of the harness itself (statement generation,
  /// answer checks), subtracted from process CPU.
  int64_t harness_cpu_ns = 0;
  std::vector<std::string> problems;

  void Problem(const std::string& p) {
    ++failed;
    if (problems.size() < kMaxProblems) problems.push_back(p);
  }
  void Merge(const Tally& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    kind.insert(kind.end(), o.kind.begin(), o.kind.end());
    attempted += o.attempted;
    failed += o.failed;
    busy_ns += o.busy_ns;
    db_cpu_ns += o.db_cpu_ns;
    harness_cpu_ns += o.harness_cpu_ns;
    for (const std::string& p : o.problems) {
      if (problems.size() < kMaxProblems) problems.push_back(p);
    }
  }
};

/// Executes one statement (or checkpoint) and checks its answer.
/// Returns the execution when it succeeded with a correct answer (an
/// empty one for a checkpoint).
std::optional<wsq::QueryExecution> RunOne(Workload* w, const Stmt& s,
                                          bool async, Tally* t,
                                          int64_t* exec_ns = nullptr,
                                          int64_t* exec_cpu_ns = nullptr) {
  wsq::WsqDatabase::ExecOptions opts;
  opts.async_iteration = async;
  opts.memory_budget_bytes = s.memory_budget_bytes;
  auto call = [&]() -> wsq::Result<wsq::QueryExecution> {
    if (!s.checkpoint) return w->db()->Execute(s.sql, opts);
    WSQ_RETURN_IF_ERROR(w->db()->Checkpoint());
    return wsq::QueryExecution{};
  };
  int64_t cpu0 = ThreadCpuNanos();
  int64_t t0 = NowNanos();
  wsq::Result<wsq::QueryExecution> r = call();
  int64_t t1 = NowNanos();
  int64_t cpu1 = ThreadCpuNanos();
  ++t->attempted;
  t->latency_ms.push_back((t1 - t0) / 1e6);
  t->kind.push_back(s.kind);
  t->busy_ns += t1 - t0;
  t->db_cpu_ns += cpu1 - cpu0;
  if (exec_ns != nullptr) *exec_ns = t1 - t0;
  if (exec_cpu_ns != nullptr) *exec_cpu_ns = cpu1 - cpu0;

  std::optional<wsq::QueryExecution> out;
  std::string why;
  if (!r.ok()) {
    t->Problem("statement failed: " + r.status().ToString() + ": " + s.sql);
  } else if (!s.checkpoint && !w->Check(s, r->result, &why)) {
    t->Problem("wrong answer: " + why);
  } else {
    out = std::move(r).value();
  }
  return out;
}

/// The closed loop for `nanos`: each client sends its next statement
/// only after the previous one completed. `per_statement` (optional)
/// runs after each statement on the client's thread.
Tally ClosedLoop(Workload* w, bool async, int64_t nanos,
                 const std::function<void(int, const Stmt&,
                                          const wsq::QueryExecution&,
                                          int64_t, int64_t, Tally*)>&
                     per_statement = nullptr) {
  std::mutex mu;
  Tally total;
  const int64_t start = NowNanos();
  RunClients(w->clients(), [&](int client) {
    Tally t;
    int64_t cpu0 = ThreadCpuNanos();
    while (NowNanos() - start < nanos) {
      Stmt s = w->Next(client);
      int64_t exec_ns = 0, exec_cpu_ns = 0;
      std::optional<wsq::QueryExecution> exec =
          RunOne(w, s, async, &t, &exec_ns, &exec_cpu_ns);
      if (exec.has_value() && per_statement) {
        per_statement(client, s, *exec, exec_ns, exec_cpu_ns, &t);
      }
    }
    t.harness_cpu_ns = ThreadCpuNanos() - cpu0 - t.db_cpu_ns;
    std::lock_guard<std::mutex> lock(mu);
    total.Merge(t);
  });
  return total;
}

void CheckLedgers(Workload* w, std::vector<std::string>* problems) {
  wsq::WsqDatabase* db = w->db();
  wsq::ReqPumpStats p = db->pump()->stats();
  if (p.registered != p.completed + p.cancelled + p.shed) {
    problems->push_back(wsq::StrFormat(
        "ReqPump ledger: registered %" PRIu64 " != completed %" PRIu64
        " + cancelled %" PRIu64 " + shed %" PRIu64,
        p.registered, p.completed, p.cancelled, p.shed));
  }
  if (db->pump()->pending_results() != 0) {
    problems->push_back(wsq::StrFormat("ReqPump holds %zu untaken results",
                                       db->pump()->pending_results()));
  }
  // The buffer pool charges its resident frames to the database budget;
  // everything else (operator state, ReqSync buffers) must be released.
  size_t pool_bytes = db->buffer_pool()->resident_pages() * wsq::kPageSize;
  if (db->memory_budget()->used() != pool_bytes) {
    problems->push_back(wsq::StrFormat(
        "memory budget holds %zu bytes beyond the buffer pool's %zu",
        db->memory_budget()->used() - pool_bytes, pool_bytes));
  }
  if (db->spill() != nullptr) {
    wsq::SpillStats s = db->spill()->stats();
    if (s.files_created != s.files_removed ||
        db->spill()->active_files() != 0) {
      problems->push_back(wsq::StrFormat(
          "spill files: created %" PRIu64 ", removed %" PRIu64,
          s.files_created, s.files_removed));
    }
  }
}

// ---------------------------------------------------------------------
// Traced run: the benchmark calls the layers itself and times each call.

const char* OperatorCategory(const std::string& label) {
  static const std::pair<const char*, const char*> kPrefixes[] = {
      {"IndexScan:", "index_scan"}, {"Scan:", "scan"},
      {"Select:", "filter"},        {"Project:", "project"},
      {"Join:", "join"},            {"Cross-Product", "join"},
      {"Dependent Join:", "dependent_join"},
      {"Sort:", "sort"},            {"Aggregate:", "aggregate"},
      {"Distinct", "aggregate"},    {"Limit:", "limit"},
      {"AEVScan:", "aevscan"},      {"EVScan:", "aevscan"},
      {"ReqSync", "reqsync"}};
  for (const auto& [prefix, category] : kPrefixes) {
    if (label.rfind(prefix, 0) == 0) return category;
  }
  return nullptr;
}

const std::vector<std::string>& OperatorCategories() {
  static const std::vector<std::string> kCategories = {
      "scan",  "index_scan", "filter", "project", "join", "dependent_join",
      "sort",  "aggregate",  "limit",  "aevscan", "reqsync"};
  return kCategories;
}

struct LayerTally {
  uint64_t statements = 0;   // Execute and Checkpoint calls traced
  uint64_t selects = 0;      // ... of which replayed through the layers
  uint64_t executions = 0;   // Execute calls + layer replays
  double parse_us = 0, bind_us = 0, rewrite_us = 0, reqsync_ops = 0;
  double plan_us = 0, analyze_us = 0, facade_us = 0, blocked_us = 0;
  std::map<std::string, double> self_us;
  uint64_t scan_rows = 0, select_rows = 0, peak_buffered_rows = 0;
  uint64_t fetches = 0, hits = 0, evictions = 0, flushes = 0;
  uint64_t spill_bytes = 0, spill_runs = 0, rows = 0;
  /// wchar of the statements that wrote no spill run.
  int64_t durable_bytes = 0;
  double peak_memory_bytes = 0;
  uint64_t reserve_failures = 0;
  int64_t exec_ns = 0, exec_cpu_ns = 0;
  uint64_t checkpoints = 0;
  int64_t checkpoint_ns = 0;

  void Merge(const LayerTally& o) {
    statements += o.statements;
    selects += o.selects;
    executions += o.executions;
    parse_us += o.parse_us;
    bind_us += o.bind_us;
    rewrite_us += o.rewrite_us;
    reqsync_ops += o.reqsync_ops;
    plan_us += o.plan_us;
    analyze_us += o.analyze_us;
    facade_us += o.facade_us;
    blocked_us += o.blocked_us;
    for (const auto& [k, v] : o.self_us) self_us[k] += v;
    scan_rows += o.scan_rows;
    select_rows += o.select_rows;
    peak_buffered_rows = std::max(peak_buffered_rows, o.peak_buffered_rows);
    fetches += o.fetches;
    hits += o.hits;
    evictions += o.evictions;
    flushes += o.flushes;
    spill_bytes += o.spill_bytes;
    spill_runs += o.spill_runs;
    durable_bytes += o.durable_bytes;
    rows += o.rows;
    peak_memory_bytes += o.peak_memory_bytes;
    reserve_failures += o.reserve_failures;
    exec_ns += o.exec_ns;
    exec_cpu_ns += o.exec_cpu_ns;
    checkpoints += o.checkpoints;
    checkpoint_ns += o.checkpoint_ns;
  }
};

void WalkProfile(const wsq::PlanProfileNode& node, LayerTally* lt) {
  const char* category = OperatorCategory(node.label);
  if (category != nullptr) {
    lt->self_us[category] += static_cast<double>(node.self_micros);
  }
  if (node.label.rfind("Scan:", 0) == 0 ||
      node.label.rfind("IndexScan:", 0) == 0) {
    lt->scan_rows += node.profile.rows_out;
  }
  for (const wsq::PlanProfileNode& child : node.children) {
    WalkProfile(child, lt);
  }
}

/// Rows a statement returned, or for DML the rows it reports affected
/// (INSERT: the one row it wrote).
uint64_t RowsOf(const Stmt& s, const wsq::ResultSet& r) {
  if (s.select) return r.rows.size();
  if (r.rows.size() == 1 && r.rows[0].size() == 1 &&
      r.rows[0].value(0).is_int()) {
    return static_cast<uint64_t>(r.rows[0].value(0).AsInt());
  }
  return 1;
}

double Micros(int64_t nanos) { return nanos / 1e3; }

/// Replays a SELECT phase by phase: Parse, Bind, ApplyAsyncIteration,
/// ExecutePlan (plain, then with the analyze profile). Each result is
/// checked like the statement's own.
void ReplayLayers(Workload* w, const Stmt& s, int64_t exec_ns,
                  LayerTally* lt, Tally* t) {
  wsq::WsqDatabase* db = w->db();
  int64_t t0 = NowNanos();
  auto parsed = wsq::Parser::Parse(s.sql);
  int64_t parse_ns = NowNanos() - t0;
  lt->parse_us += Micros(parse_ns);
  if (!parsed.ok()) {
    t->Problem("replay parse failed: " + parsed.status().ToString());
    return;
  }
  if (!s.select) return;
  const auto& select =
      static_cast<const wsq::SelectStatement&>(**parsed);

  t0 = NowNanos();
  wsq::Binder binder(db->catalog(), db->vtables());
  auto plan = binder.Bind(select);
  int64_t bind_ns = NowNanos() - t0;
  if (!plan.ok()) {
    t->Problem("replay bind failed: " + plan.status().ToString());
    return;
  }
  t0 = NowNanos();
  auto rewritten = wsq::ApplyAsyncIteration(std::move(plan).value());
  int64_t rewrite_ns = NowNanos() - t0;
  if (!rewritten.ok()) {
    t->Problem("replay rewrite failed: " + rewritten.status().ToString());
    return;
  }
  wsq::PlanNodePtr root = std::move(rewritten).value();

  auto execute = [&](bool analyze, wsq::PlanProfileNode* profile,
                     int64_t* ns) -> bool {
    wsq::CancellationToken token;
    wsq::MemoryBudget query_budget("query", s.memory_budget_bytes,
                                   db->memory_budget());
    wsq::ExecContext ctx;
    ctx.pump = db->pump();
    ctx.token = &token;
    ctx.memory = &query_budget;
    ctx.spill = db->spill();
    int64_t start = NowNanos();
    auto r = wsq::ExecutePlan(*root, &ctx, analyze ? profile : nullptr);
    *ns = NowNanos() - start;
    ++lt->executions;
    ++t->attempted;
    lt->reserve_failures += query_budget.stats().reserve_failures;
    std::string why;
    if (!r.ok()) {
      t->Problem("replay execute failed: " + r.status().ToString());
      return false;
    }
    if (!w->Check(s, *r, &why)) {
      t->Problem("replay wrong answer: " + why);
      return false;
    }
    return true;
  };
  int64_t plan_ns = 0, analyze_ns = 0;
  wsq::PlanProfileNode profile;
  if (!execute(false, nullptr, &plan_ns)) return;
  if (!execute(true, &profile, &analyze_ns)) return;

  ++lt->selects;
  lt->bind_us += Micros(bind_ns);
  lt->rewrite_us += Micros(rewrite_ns);
  lt->reqsync_ops += static_cast<double>(wsq::CountReqSyncs(*root));
  lt->plan_us += Micros(plan_ns);
  lt->analyze_us += Micros(analyze_ns);
  lt->facade_us += Micros(exec_ns - parse_ns - bind_ns - rewrite_ns - plan_ns);
  lt->blocked_us += static_cast<double>(profile.TotalBlockedMicros());
  WalkProfile(profile, lt);
}

/// Pump and workload counters summed over traced blocks.
struct BlockDeltas {
  uint64_t calls = 0, resolved = 0, max_in_flight = 0;
  int64_t queue_wait_us = 0, in_flight_us = 0;
  uint64_t user_bytes = 0;
};

void AddLayerMetrics(Workload* w, const LayerTally& lt, const BlockDeltas& d,
                     double trace_overhead_pct, RunOutcome* out) {
  auto put = [&](const std::string& name, double value,
                 const std::string& unit) {
    out->metrics[name] = Metric{value, unit};
  };
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double stmts = static_cast<double>(lt.statements);
  const double selects = static_cast<double>(lt.selects);

  put("parser.parse_us",
      per(lt.parse_us, stmts - static_cast<double>(lt.checkpoints)), "us");
  put("plan.bind_us", per(lt.bind_us, selects), "us");
  put("plan.rewrite_us", per(lt.rewrite_us, selects), "us");
  put("plan.reqsync_ops", per(lt.reqsync_ops, selects), "count");
  put("exec.execute_us", per(lt.plan_us, selects), "us");
  for (const std::string& category : OperatorCategories()) {
    auto it = lt.self_us.find(category);
    put("exec.self_us." + category,
        per(it == lt.self_us.end() ? 0.0 : it->second, selects), "us");
  }
  put("exec.reqsync_blocked_us", per(lt.blocked_us, selects), "us");
  put("exec.rows_examined_per_row",
      per(static_cast<double>(lt.scan_rows),
          static_cast<double>(lt.select_rows)),
      "ratio");
  put("exec.peak_buffered_rows", static_cast<double>(lt.peak_buffered_rows),
      "count");

  const double resolved = static_cast<double>(d.resolved);
  put("async.calls_per_stmt",
      per(static_cast<double>(d.calls), static_cast<double>(lt.executions)),
      "count");
  put("async.queue_wait_us_per_call",
      per(static_cast<double>(d.queue_wait_us), resolved), "us");
  put("async.in_flight_us_per_call",
      per(static_cast<double>(d.in_flight_us), resolved), "us");
  put("async.max_in_flight", static_cast<double>(d.max_in_flight), "count");

  std::vector<double> call_us;
  uint64_t max_concurrent = 0;
  std::vector<std::pair<const wsq::SearchEngine*, wsq::SearchRequest>> reqs;
  for (TracingSearchService* svc : w->tracing_services()) {
    TracingSearchService::Snapshot snap = svc->Take();
    call_us.insert(call_us.end(), snap.call_micros.begin(),
                   snap.call_micros.end());
    max_concurrent = std::max(max_concurrent, snap.max_concurrent);
    for (wsq::SearchRequest& r : snap.requests) {
      reqs.emplace_back(svc->engine(), std::move(r));
    }
  }
  std::sort(call_us.begin(), call_us.end());
  put("net.call_p50_us", Percentile(call_us, 50), "us");
  put("net.call_p99_us", Percentile(call_us, 99), "us");
  put("net.max_concurrent", static_cast<double>(max_concurrent), "count");

  // The run's requests replayed against the engines directly (an even
  // sample of at most 2000).
  double count_ns = 0, topk_ns = 0;
  size_t counts = 0, topks = 0;
  size_t stride = std::max<size_t>(1, reqs.size() / 2000);
  for (size_t i = 0; i < reqs.size(); i += stride) {
    const auto& [engine, req] = reqs[i];
    int64_t t0 = NowNanos();
    if (req.kind == wsq::SearchRequest::Kind::kCount) {
      (void)engine->Count(req.query);
      count_ns += static_cast<double>(NowNanos() - t0);
      ++counts;
    } else {
      (void)engine->Search(req.query, req.k);
      topk_ns += static_cast<double>(NowNanos() - t0);
      ++topks;
    }
  }
  put("search.count_us", per(count_ns / 1e3, static_cast<double>(counts)),
      "us");
  put("search.topk_us", per(topk_ns / 1e3, static_cast<double>(topks)), "us");

  const double rows = static_cast<double>(lt.rows);
  put("storage.page_fetches_per_row",
      per(static_cast<double>(lt.fetches), rows), "ratio");
  put("storage.pool_hit_rate",
      per(static_cast<double>(lt.hits), static_cast<double>(lt.fetches)),
      "ratio");
  put("storage.evictions_per_stmt",
      per(static_cast<double>(lt.evictions), stmts), "count");
  put("storage.spill_bytes_per_stmt",
      per(static_cast<double>(lt.spill_bytes), stmts), "bytes");
  put("storage.spill_runs_per_stmt",
      per(static_cast<double>(lt.spill_runs), stmts), "count");
  put("storage.flushes_per_stmt", per(static_cast<double>(lt.flushes), stmts),
      "count");
  put("storage.checkpoint_ms",
      per(static_cast<double>(lt.checkpoint_ns) / 1e6,
          static_cast<double>(lt.checkpoints)),
      "ms");
  // Spill runs are scratch files, not durable writes, and wchar cannot
  // tell them apart: statements that spilled are left out here (they
  // write no user bytes).
  put("storage.bytes_written_per_user_byte",
      per(static_cast<double>(lt.durable_bytes),
          static_cast<double>(d.user_bytes)),
      "ratio");

  put("memory.peak_bytes_per_stmt", per(lt.peak_memory_bytes, stmts),
      "bytes");
  put("memory.reserve_failures", static_cast<double>(lt.reserve_failures),
      "count");

  put("wsq.facade_us", per(lt.facade_us, selects), "us");
  put("wsq.client_on_cpu_share",
      per(static_cast<double>(lt.exec_cpu_ns),
          static_cast<double>(lt.exec_ns)),
      "ratio");
  put("obs.analyze_overhead_pct",
      per(100.0 * (lt.analyze_us - lt.plan_us), lt.plan_us), "%");
  put("obs.trace_overhead_pct", trace_overhead_pct, "%");
}

/// Execute latency in traced blocks against untraced blocks, per
/// statement kind and weighted by the untraced mix, so a different
/// draw of heavy statements in the two halves does not read as
/// overhead.
double TraceOverheadPct(const Tally& untraced, const Tally& traced) {
  std::map<size_t, std::pair<double, size_t>> u, t;
  for (size_t i = 0; i < untraced.kind.size(); ++i) {
    u[untraced.kind[i]].first += untraced.latency_ms[i];
    ++u[untraced.kind[i]].second;
  }
  for (size_t i = 0; i < traced.kind.size(); ++i) {
    t[traced.kind[i]].first += traced.latency_ms[i];
    ++t[traced.kind[i]].second;
  }
  double base = 0, with_trace = 0;
  for (const auto& [kind, sum_n] : u) {
    auto it = t.find(kind);
    if (it == t.end()) continue;
    double n = static_cast<double>(sum_n.second);
    base += sum_n.first;
    with_trace += n * it->second.first / static_cast<double>(it->second.second);
  }
  return base > 0 ? 100.0 * (with_trace - base) / base : 0.0;
}

void TracedRun(Workload* w, const RunConfig& config, RunOutcome* out,
               Tally* total) {
  // Untraced and traced blocks alternate (about one second each), so
  // warm-up and drift affect both sides of obs.trace_overhead_pct alike.
  const int pairs = std::max(1, config.seconds / 2);
  const int64_t block = config.seconds * 1000000000LL / (2 * pairs);
  wsq::WsqDatabase* db = w->db();

  // Storage counters and wchar are read around each Execute (exact for
  // the one-client stored workloads); pump counters are block deltas.
  struct Before {
    wsq::BufferPoolStats pool;
    wsq::SpillStats spill;
    int64_t wchar = 0;
  };
  auto snapshot = [db] {
    Before b;
    b.pool = db->buffer_pool()->stats();
    if (db->spill() != nullptr) b.spill = db->spill()->stats();
    b.wchar = ProcWcharBytes();
    return b;
  };
  std::vector<Before> before(static_cast<size_t>(w->clients()));
  std::vector<LayerTally> per_client(static_cast<size_t>(w->clients()));
  auto per_statement = [&](int client, const Stmt& s,
                           const wsq::QueryExecution& exec, int64_t exec_ns,
                           int64_t exec_cpu_ns, Tally* t) {
    LayerTally& lt = per_client[client];
    Before after = snapshot();
    const Before& b = before[client];
    uint64_t hits = after.pool.hits - b.pool.hits;
    lt.hits += hits;
    lt.fetches += hits + after.pool.misses - b.pool.misses;
    lt.evictions += after.pool.evictions - b.pool.evictions;
    lt.flushes += after.pool.flushes - b.pool.flushes;
    lt.spill_bytes += after.spill.bytes_written - b.spill.bytes_written;
    lt.spill_runs += after.spill.runs_written - b.spill.runs_written;
    if (after.spill.runs_written == b.spill.runs_written && b.wchar >= 0) {
      lt.durable_bytes += after.wchar - b.wchar;
    }
    ++lt.statements;
    if (s.checkpoint) {
      ++lt.checkpoints;
      lt.checkpoint_ns += exec_ns;
      before[client] = after;
      return;
    }
    lt.rows += RowsOf(s, exec.result);
    if (s.select) lt.select_rows += exec.result.rows.size();
    lt.peak_memory_bytes += static_cast<double>(exec.stats.peak_memory_bytes);
    lt.peak_buffered_rows =
        std::max(lt.peak_buffered_rows, exec.stats.peak_buffered_rows);
    ++lt.executions;
    lt.exec_ns += exec_ns;
    lt.exec_cpu_ns += exec_cpu_ns;
    ReplayLayers(w, s, exec_ns, &lt, t);
    // Taken after the replays, so the next delta covers one Execute.
    before[client] = snapshot();
  };

  Tally untraced, traced;
  BlockDeltas deltas;
  for (int pair = 0; pair < pairs; ++pair) {
    untraced.Merge(ClosedLoop(w, /*async=*/true, block));

    for (TracingSearchService* svc : w->tracing_services()) {
      svc->set_enabled(true);
    }
    for (Before& b : before) b = snapshot();
    wsq::ReqPumpStats pump0 = db->pump()->stats();
    WorkloadCounters c0 = w->counters();
    traced.Merge(ClosedLoop(w, /*async=*/true, block, per_statement));
    wsq::ReqPumpStats pump1 = db->pump()->stats();
    WorkloadCounters c1 = w->counters();
    for (TracingSearchService* svc : w->tracing_services()) {
      svc->set_enabled(false);
    }
    deltas.calls += pump1.registered - pump0.registered;
    deltas.resolved += pump1.completed - pump0.completed;
    deltas.queue_wait_us +=
        pump1.queue_wait_micros_total - pump0.queue_wait_micros_total;
    deltas.in_flight_us +=
        pump1.in_flight_micros_total - pump0.in_flight_micros_total;
    deltas.max_in_flight = pump1.max_in_flight;
    deltas.user_bytes += c1.user_bytes_written - c0.user_bytes_written;
  }
  total->Merge(untraced);
  total->Merge(traced);

  LayerTally layers;
  for (const LayerTally& lt : per_client) layers.Merge(lt);
  AddLayerMetrics(w, layers, deltas, TraceOverheadPct(untraced, traced), out);
  out->notes.push_back(wsq::StrFormat(
      "traced: %" PRIu64 " statements (%" PRIu64
      " SELECTs replayed through parse/bind/rewrite/execute), untraced: %zu",
      layers.statements, layers.selects, untraced.latency_ms.size()));
}

void SummarizeKinds(Workload* w, const Tally& t, RunOutcome* out) {
  std::vector<std::string> names = w->kinds();
  std::vector<std::vector<double>> by_kind(names.size());
  for (size_t i = 0; i < t.latency_ms.size(); ++i) {
    by_kind[t.kind[i]].push_back(t.latency_ms[i]);
  }
  for (size_t k = 0; k < names.size(); ++k) {
    std::vector<double>& v = by_kind[k];
    if (v.size() < 2) continue;
    std::vector<double> q = Quartiles(v);
    out->notes.push_back(wsq::StrFormat(
        "kind %-15s n=%6zu share=%5.1f%%  q1=%9.3f  median=%9.3f  q3=%9.3f ms",
        names[k].c_str(), v.size(),
        100.0 * static_cast<double>(v.size()) /
            static_cast<double>(t.latency_ms.size()),
        q[0], q[1], q[2]));
  }
}

/// `count` statements of the workload's mix with async iteration off,
/// split over its clients.
Tally SyncBlock(Workload* w, size_t count) {
  std::mutex mu;
  Tally total;
  RunClients(w->clients(), [&](int client) {
    Tally t;
    for (size_t i = static_cast<size_t>(client); i < count;
         i += static_cast<size_t>(w->clients())) {
      RunOne(w, w->Next(client), /*async=*/false, &t);
    }
    std::lock_guard<std::mutex> lock(mu);
    total.Merge(t);
  });
  return total;
}

/// Statements of the driver's own sync pass, for workloads without a
/// prepared one (the stored workloads). The benchmark contract asks for
/// every end-to-end metric on every workload; there the ratio is about
/// 1 and guards the cost of the async machinery on stored-only plans.
constexpr size_t kSyncPassStatements = 600;

/// One 250 ms block of the timed window, and the sync-pass statements run
/// right after it.
struct Block {
  Tally async;
  /// Process CPU during the async block, minus the harness's own.
  int64_t cpu_ns = 0;
  Tally sync;
  int64_t steal_ticks = 0;
};

/// Steal ticks (1/100 s of one CPU, summed over the machine's CPUs)
/// above which a 250 ms block counts as disturbed: on 4 CPUs, 5 ticks
/// are 5% of the machine's time in the block.
constexpr int64_t kStolenTicks = 5;

/// Indices of the blocks that count for latency, qps and CPU. On a
/// virtual machine that shares its host with other tenants, the
/// hypervisor can steal a fifth of the CPU for seconds at a time, and
/// every hand-off between the client, pump and engine threads then waits
/// for a core. Blocks are dropped only on that external signal, the CPU
/// time stolen during them (/proc/stat), never on their own latency:
/// those above kStolenTicks are left out unless that leaves fewer than
/// `min_samples` statements, in which case the least-stolen of them are
/// taken back until there are enough.
std::vector<size_t> UndisturbedBlocks(const std::vector<Block>& blocks,
                                      size_t min_samples,
                                      std::string* diagnostic) {
  std::vector<size_t> order(blocks.size());
  for (size_t j = 0; j < order.size(); ++j) order[j] = j;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return blocks[a].steal_ticks < blocks[b].steal_ticks;
  });
  std::vector<bool> keep(blocks.size(), false);
  size_t samples = 0;
  for (size_t j : order) {
    if (blocks[j].steal_ticks > kStolenTicks && samples >= min_samples) break;
    keep[j] = true;
    samples += blocks[j].async.latency_ms.size();
  }
  diagnostic->clear();
  std::vector<size_t> kept;
  for (size_t j = 0; j < blocks.size(); ++j) {
    if (keep[j]) kept.push_back(j);
    *diagnostic +=
        wsq::StrFormat(" %s%lld", keep[j] ? "" : "-",
                       static_cast<long long>(blocks[j].steal_ticks));
  }
  return kept;
}

/// The timed run behind the end-to-end metrics: 250 ms closed-loop
/// blocks, each followed by its share of the sync pass. Latency, qps
/// and CPU come from the undisturbed blocks (see UndisturbedBlocks);
/// every statement of every block counts for success_rate.
void MeasureEndToEnd(Workload* w, const RunConfig& config, RunOutcome* out,
                     Tally* total) {
  constexpr int64_t kBlockNanos = 250000000;
  constexpr size_t kBlocksPerSecond = 4;
  const size_t min_blocks = kBlocksPerSecond * static_cast<size_t>(config.seconds);
  const size_t max_blocks = 2 * min_blocks;
  const size_t min_samples = MinSamplesForTail(kTail);
  std::vector<double> sync_ms = w->prepared_sync_ms();
  const size_t sync_per_block =
      sync_ms.empty() ? (kSyncPassStatements + min_blocks - 1) / min_blocks
                      : 0;

  std::vector<Block> blocks;
  std::vector<size_t> kept;
  std::string ranking;
  auto kept_samples = [&] {
    size_t n = 0;
    for (size_t j : kept) n += blocks[j].async.latency_ms.size();
    return n;
  };
  int64_t t0 = NowNanos();
  while (blocks.size() < max_blocks) {
    Block b;
    int64_t steal0 = StealTicks();
    int64_t cpu0 = ProcessCpuNanos();
    b.async = ClosedLoop(w, /*async=*/true, kBlockNanos);
    b.cpu_ns = ProcessCpuNanos() - cpu0 - b.async.harness_cpu_ns;
    b.steal_ticks = StealTicks() - steal0;
    if (sync_per_block > 0 && blocks.size() < min_blocks &&
        b.async.failed == 0) {
      b.sync = SyncBlock(w, sync_per_block);
    }
    total->Merge(b.async);
    total->Merge(b.sync);
    blocks.push_back(std::move(b));
    // A wrong answer or failed statement already fails the run.
    if (total->failed > 0) break;
    if (blocks.size() < min_blocks) continue;
    // Past the nominal window only to give p99 ten samples beyond it.
    kept = UndisturbedBlocks(blocks, min_samples, &ranking);
    if (kept_samples() >= min_samples) break;
  }
  double wall_s = (NowNanos() - t0) / 1e9;

  Tally pooled;
  int64_t cpu_ns = 0;
  for (size_t j : kept) {
    pooled.Merge(blocks[j].async);
    cpu_ns += blocks[j].cpu_ns;
    const std::vector<double>& s = blocks[j].sync.latency_ms;
    sync_ms.insert(sync_ms.end(), s.begin(), s.end());
  }
  std::vector<double> sorted = pooled.latency_ms;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  if (SamplesBeyond(n, kTail) < 10 && total->failed == 0) {
    total->Problem(wsq::StrFormat(
        "only %zu samples in the kept blocks: fewer than ten beyond p99", n));
  }
  const double stmts = static_cast<double>(std::max<size_t>(n, 1));
  const double p50 = Percentile(sorted, 50);
  const double sync_median = Median(sync_ms);
  auto put = [out](const char* name, double v, const char* unit) {
    out->metrics[name] = Metric{v, unit};
  };
  put("p50_ms", p50, "ms");
  put("p99_ms", Percentile(sorted, kTail), "ms");
  // Busy time is summed over clients, so this is clients * n / busy.
  double busy_s = pooled.busy_ns / 1e9;
  put("qps", busy_s > 0 ? stmts * w->clients() / busy_s : 0, "1/s");
  put("cpu_ms_per_stmt", cpu_ns / 1e6 / stmts, "ms");
  put("success_rate",
      total->attempted > 0
          ? 1.0 - static_cast<double>(total->failed) /
                      static_cast<double>(total->attempted)
          : 0,
      "ratio");
  put("peak_rss_mb", PeakRssMb(), "MB");
  put("speedup_vs_sync", p50 > 0 ? sync_median / p50 : 0, "ratio");

  out->notes.push_back(wsq::StrFormat(
      "blocks=%zu kept=%zu wall=%.2fs samples=%zu (p99 has %zu beyond it) "
      "sync_pass=%zu statements, median %.3f ms",
      blocks.size(), kept.size(), wall_s, n, SamplesBeyond(n, kTail),
      sync_ms.size(), sync_median));
  out->notes.push_back("stolen ticks per block (- = dropped):" + ranking);

  SummarizeKinds(w, pooled, out);
}

}  // namespace

RunOutcome RunWorkload(const RunConfig& config) {
  RunOutcome out;
  auto fail = [&out](const std::string& problem) {
    out.correct = false;
    ++out.failed;
    out.problems.push_back(problem);
    return out;
  };
  std::unique_ptr<Workload> w =
      MakeWorkload(config.workload, config.seed, config.scratch_dir);
  if (w == nullptr) return fail("unknown workload: " + config.workload);
  out.notes.push_back(wsq::StrFormat(
      "workload=%s seed=%" PRIu64 " seconds=%d trace=%d clients=%d",
      config.workload.c_str(), config.seed, config.seconds,
      config.trace ? 1 : 0, w->clients()));

  std::vector<double> setup_s;
  auto timed_setup = [&]() {
    int64_t t0 = NowNanos();
    wsq::Status s = w->Setup(config.trace);
    setup_s.push_back((NowNanos() - t0) / 1e9);
    return s;
  };
  for (int i = 0; i < (config.trace ? 1 : kSetupsBefore); ++i) {
    if (i > 0) w->Teardown();
    wsq::Status s = timed_setup();
    if (!s.ok()) return fail("set-up failed: " + s.ToString());
  }
  wsq::Status prepared = w->Prepare();
  if (!w->Describe().empty()) out.notes.push_back(w->Describe());
  if (!prepared.ok()) return fail("prepare failed: " + prepared.ToString());
  if (config.corrupt_expected) w->CorruptExpectedAnswers();

  Tally total;
  if (config.trace) {
    TracedRun(w.get(), config, &out, &total);
  } else {
    MeasureEndToEnd(w.get(), config, &out, &total);
  }

  out.attempted = total.attempted;
  out.failed += total.failed;
  for (const std::string& p : total.problems) out.problems.push_back(p);
  std::vector<std::string> ledger;
  CheckLedgers(w.get(), &ledger);
  wsq::Status final_check = w->FinalCheck();
  if (!final_check.ok()) ledger.push_back(final_check.ToString());
  if (!config.trace) {
    for (int i = kSetupsBefore; i < kSetups; ++i) {
      w->Teardown();
      wsq::Status s = timed_setup();
      if (!s.ok()) ledger.push_back("set-up failed: " + s.ToString());
    }
    out.metrics["setup_s"] = Metric{Median(setup_s), "s"};
    std::string setups;
    for (double v : setup_s) setups += wsq::StrFormat(" %.3f", v);
    out.notes.push_back("setups=[" + setups + " ] s");
  }
  for (const std::string& p : ledger) {
    out.problems.push_back(p);
    ++out.failed;
  }
  out.correct = out.failed == 0;
  w.reset();
  return out;
}

std::string ResultJson(const RunOutcome& outcome) {
  std::string metrics;
  for (const auto& [name, m] : outcome.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += wsq::StrFormat("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                              name.c_str(), m.value, m.unit.c_str());
  }
  return wsq::StrFormat(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": {%s}}",
      outcome.correct ? "true" : "false", outcome.attempted, outcome.failed,
      metrics.c_str());
}

}  // namespace perfbench
