// The interface every benchmark workload implements, and the factory
// the driver uses. A workload owns its whole deployment (tables,
// engines, database), generates seeded SQL, and checks answers; the
// driver (driver.cc) owns timing, tracing and reporting.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <atomic>
#include <functional>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench_util.h"
#include "net/search_service.h"
#include "search/search_engine.h"
#include "wsq/database.h"

namespace perfbench {

/// One statement a client sends.
struct Stmt {
  std::string sql;
  /// Index into Workload::kinds().
  size_t kind = 0;
  /// Index into the workload's own instance table (expected answers).
  size_t instance = 0;
  /// SELECT (replayable through the layers); false for DML.
  bool select = true;
  /// Per-query memory cap (ExecOptions::memory_budget_bytes).
  size_t memory_budget_bytes = 0;
  /// Not SQL: the client calls WsqDatabase::Checkpoint() instead of
  /// Execute, timed as a statement of its own kind.
  bool checkpoint = false;
};

/// Per-layer counters a workload contributes beyond what the driver
/// reads from the database itself.
struct WorkloadCounters {
  /// Payload bytes of the values INSERT and UPDATE statements write.
  uint64_t user_bytes_written = 0;
};

/// Bench-owned SearchService decorator for the traced run: times each
/// call from Submit to its callback, tracks concurrency, and keeps the
/// requests so they can be replayed against the engine directly.
class TracingSearchService : public wsq::SearchService {
 public:
  TracingSearchService(wsq::SearchService* inner,
                       const wsq::SearchEngine* engine)
      : inner_(inner), engine_(engine) {}

  const std::string& name() const override { return inner_->name(); }
  void Submit(wsq::SearchRequest request,
              wsq::SearchCallback done) override;

  void set_enabled(bool on) { enabled_.store(on); }
  const wsq::SearchEngine* engine() const { return engine_; }

  struct Snapshot {
    std::vector<double> call_micros;
    uint64_t max_concurrent = 0;
    std::vector<wsq::SearchRequest> requests;
  };
  Snapshot Take() const;

 private:
  wsq::SearchService* inner_;
  const wsq::SearchEngine* engine_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<double> call_micros_;
  std::vector<wsq::SearchRequest> requests_;
  uint64_t in_flight_ = 0;
  uint64_t max_concurrent_ = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual int clients() const = 0;
  /// Statement kinds, for the per-kind summary.
  virtual std::vector<std::string> kinds() const = 0;

  /// Builds the corpus, engines, database and tables. Timed (setup_s);
  /// may be called again after Teardown.
  virtual wsq::Status Setup(bool traced) = 0;
  virtual void Teardown() = 0;

  /// After Setup, untimed: plan-shape checks and expected answers.
  virtual wsq::Status Prepare() = 0;

  virtual wsq::WsqDatabase* db() = 0;

  /// Next statement for `client`; each client has its own stream.
  virtual Stmt Next(int client) = 0;
  /// Checks an answer (and, for DML, applies it to the shadow model).
  /// Returns false with a reason on a wrong answer. Not called for
  /// checkpoints.
  virtual bool Check(const Stmt& stmt, const wsq::ResultSet& result,
                     std::string* why) = 0;

  /// The sync pass behind speedup_vs_sync, when the workload timed one
  /// in Prepare (the WSQ workloads' §4.5 reference run of every
  /// instance). When empty, the driver runs its own sync pass over the
  /// workload's mix.
  virtual std::vector<double> prepared_sync_ms() const { return {}; }

  /// End-of-run checks beyond the shared ledgers (final table state).
  virtual wsq::Status FinalCheck() { return wsq::Status::OK(); }

  /// Bench-owned service decorators (traced run; empty otherwise).
  virtual std::vector<TracingSearchService*> tracing_services() {
    return {};
  }
  virtual WorkloadCounters counters() const { return {}; }
  /// One line about the deployment (table sizes), for the run notes.
  virtual std::string Describe() const { return ""; }

  /// Self-test hook: perturbs the expected answers (or shadow model) so
  /// that a run must report wrong answers.
  virtual void CorruptExpectedAnswers() = 0;
};

/// Runs fn(client) for each client, on its own thread when there are
/// several, and returns when all are done.
void RunClients(int clients, const std::function<void(int)>& fn);

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed,
                                       const std::string& scratch_dir);
std::vector<std::string> WorkloadNames();

/// The operator lines of ExplainSelect's plan (cost annotations
/// dropped), each preceded by a newline and with indentation removed,
/// so "\nScan: " finds a table scan at any depth.
wsq::Result<std::string> PlanOperators(wsq::WsqDatabase* db,
                                       const std::string& sql, bool async);

/// Canonical multiset form of a result: one string per row, sorted.
std::vector<std::string> CanonicalRows(const wsq::ResultSet& result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
