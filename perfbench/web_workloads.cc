// WSQ workloads: the paper's Table-1 templates (and, at zero latency,
// the §4.1 Sigs/Knuth query) over two simulated search engines.
//
//   wsq_local       1 client, LatencyModel::Instant(): with the network
//                   removed, local WSQ processing (front end, AEVScan /
//                   ReqSync, ReqPump hand-off, engine evaluation) is the
//                   whole cost.
//   table1_latency  2 clients, 3 ms +- 1 ms with 2% of calls 4x slower:
//                   the paper's claim; time is latency-bound, so only
//                   call overlap / pump limits / ReqSync placement move it.

#include <algorithm>
#include <mutex>

#include "common/strings.h"
#include "data/datasets.h"
#include "net/simulated_service.h"
#include "web/corpus.h"
#include "workload.h"
#include "wsq/demo.h"

namespace perfbench {
namespace {

using wsq::Status;

// The paper's Table 1 runs each template twice over eight instances.
constexpr int kInstancesPerKind = 16;

struct WebConfig {
  int clients;
  wsq::LatencyModel latency;
  std::vector<std::string> kinds;
  std::vector<double> weights;
};

class WebWorkload : public Workload {
 public:
  WebWorkload(WebConfig config, uint64_t seed)
      : config_(std::move(config)), seed_(seed) {
    Rng rng(seed);
    MakeInstances(rng);
    for (int c = 0; c < config_.clients; ++c) client_rngs_.push_back(rng.Fork());
  }

  ~WebWorkload() override { Teardown(); }

  int clients() const override { return config_.clients; }
  std::vector<std::string> kinds() const override { return config_.kinds; }
  wsq::WsqDatabase* db() override { return db_.get(); }

  Status Setup(bool traced) override {
    wsq::CorpusConfig corpus_config = wsq::DefaultPaperCorpusConfig();
    // The synthetic Web and the engines' rankings are fixed (the
    // library's default seeds); the seed picks constants, statement
    // order and latency draws.
    corpus_config.num_documents = 4000;
    corpus_ = std::make_unique<wsq::Corpus>(wsq::MakePaperCorpus(corpus_config));

    wsq::SearchEngineConfig av_cfg;
    av_cfg.name = "AltaVista";
    av_cfg.supports_near = true;
    av_cfg.rank_seed = 101 ^ 42;
    av_engine_ = std::make_unique<wsq::SearchEngine>(corpus_.get(), av_cfg);
    wsq::SearchEngineConfig g_cfg;
    g_cfg.name = "Google";
    g_cfg.supports_near = false;
    g_cfg.rank_seed = 20706 ^ 42;
    google_engine_ = std::make_unique<wsq::SearchEngine>(corpus_.get(), g_cfg);

    wsq::SimulatedSearchService::Options svc;
    svc.latency = config_.latency;
    svc.seed = seed_;
    av_service_ = std::make_unique<wsq::SimulatedSearchService>(
        av_engine_.get(), svc);
    svc.seed = seed_ + 1;
    google_service_ = std::make_unique<wsq::SimulatedSearchService>(
        google_engine_.get(), svc);
    wsq::SearchService* av = av_service_.get();
    wsq::SearchService* google = google_service_.get();
    if (traced) {
      av_traced_ = std::make_unique<TracingSearchService>(av, av_engine_.get());
      google_traced_ = std::make_unique<TracingSearchService>(
          google, google_engine_.get());
      av = av_traced_.get();
      google = google_traced_.get();
    }

    db_ = std::make_unique<wsq::WsqDatabase>();
    Status s = db_->RegisterSearchEngine("AV", av, /*supports_near=*/true);
    if (s.ok()) s = db_->RegisterSearchEngine("Google", google, false);
    if (s.ok()) s = wsq::LoadStatesTable(db_.get());
    if (s.ok()) s = wsq::LoadSigsTable(db_.get());
    return s;
  }

  void Teardown() override {
    // The database (and its pump) goes first: it drains in-flight calls
    // while the services that complete them are still alive.
    db_.reset();
    av_traced_.reset();
    google_traced_.reset();
    av_service_.reset();
    google_service_.reset();
    av_engine_.reset();
    google_engine_.reset();
    corpus_.reset();
  }

  Status Prepare() override {
    // Plan shape: every instance must plan AEVScans under a ReqSync
    // when rewritten, and plain EVScans without one when not.
    for (const Instance& inst : instances_) {
      WSQ_ASSIGN_OR_RETURN(std::string async_plan,
                           PlanOperators(db_.get(), inst.sql, true));
      WSQ_ASSIGN_OR_RETURN(std::string sync_plan,
                           PlanOperators(db_.get(), inst.sql, false));
      if (async_plan.find("AEVScan:") == std::string::npos ||
          async_plan.find("ReqSync") == std::string::npos ||
          sync_plan.find("ReqSync") != std::string::npos) {
        return Status::Internal("unexpected plan shape for: " + inst.sql +
                                "\n" + async_plan);
      }
    }
    // The §4.5 reference: every instance once with sequential iteration.
    // Its answers are what every asynchronous answer must equal.
    sync_instance_ms_.assign(instances_.size(), 0.0);
    Status failure;
    std::mutex mu;
    RunClients(config_.clients, [&](int client) {
      for (size_t i = client; i < instances_.size();
           i += static_cast<size_t>(config_.clients)) {
        wsq::WsqDatabase::ExecOptions opts;
        opts.async_iteration = false;
        int64_t t0 = NowNanos();
        auto r = db_->Execute(instances_[i].sql, opts);
        double ms = (NowNanos() - t0) / 1e6;
        std::lock_guard<std::mutex> lock(mu);
        if (!r.ok()) {
          failure = r.status();
          continue;
        }
        instances_[i].expected = CanonicalRows(r->result);
        sync_instance_ms_[i] = ms;
      }
    });
    if (!failure.ok()) return failure;
    description_ = "sync reference, median ms per kind:";
    for (size_t k = 0; k < config_.kinds.size(); ++k) {
      std::vector<double> ms(sync_instance_ms_.begin() + k * kInstancesPerKind,
                             sync_instance_ms_.begin() +
                                 (k + 1) * kInstancesPerKind);
      description_ += wsq::StrFormat(" %s=%.3f", config_.kinds[k].c_str(),
                                     Median(ms));
    }
    return Status::OK();
  }

  std::string Describe() const override { return description_; }

  Stmt Next(int client) override {
    Rng& rng = client_rngs_[client];
    size_t kind = PickWeighted(config_.weights, rng);
    size_t i = kind * kInstancesPerKind + rng.Uniform(kInstancesPerKind);
    Stmt s;
    s.sql = instances_[i].sql;
    s.kind = kind;
    s.instance = i;
    return s;
  }

  bool Check(const Stmt& stmt, const wsq::ResultSet& result,
             std::string* why) override {
    const Instance& inst = instances_[stmt.instance];
    if (CanonicalRows(result) == inst.expected) return true;
    *why = "answer differs from the sequential-iteration answer (" +
           std::to_string(result.rows.size()) + " vs " +
           std::to_string(inst.expected.size()) + " rows): " + stmt.sql;
    return false;
  }

  /// The §4.5 reference run: every instance once, in parallel over the
  /// clients (the paper's protocol).
  std::vector<double> prepared_sync_ms() const override {
    return sync_instance_ms_;
  }

  std::vector<TracingSearchService*> tracing_services() override {
    if (av_traced_ == nullptr) return {};
    return {av_traced_.get(), google_traced_.get()};
  }

  void CorruptExpectedAnswers() override {
    for (Instance& inst : instances_) inst.expected.push_back("corrupt");
  }

 private:
  struct Instance {
    std::string sql;
    std::vector<std::string> expected;
  };

  void MakeInstances(Rng& rng) {
    const std::vector<std::string>& pool = wsq::TemplateConstants();
    auto shuffled = [&](std::vector<std::string> v) {
      for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.Uniform(i)]);
      return v;
    };
    for (const std::string& kind : config_.kinds) {
      std::vector<std::string> c = shuffled(pool);
      if (kind == "Sigs") {
        c.insert(c.begin() + static_cast<long>(rng.Uniform(kInstancesPerKind)),
                 "Knuth");
      }
      for (int i = 0; i < kInstancesPerKind; ++i) {
        std::string sql;
        if (kind == "T1") {
          // 50 WebCount calls.
          sql = wsq::StrFormat(
              "Select Name, Count From States, WebCount "
              "Where Name = T1 and WebCount.T2 = '%s'",
              c[i].c_str());
        } else if (kind == "T2") {
          // WebCount + WebPages per state: 100 calls.
          sql = wsq::StrFormat(
              "Select Name, Count, URL, Rank "
              "From States, WebCount, WebPages "
              "Where Name = WebCount.T1 and WebCount.T2 = '%s' and "
              "Name = WebPages.T1 and WebPages.T2 = '%s' and "
              "WebPages.Rank <= 2",
              c[i].c_str(), c[(i + kInstancesPerKind / 2) % c.size()].c_str());
        } else if (kind == "T3") {
          // Two engines per Sig (paper Figure 5): 74 calls.
          sql = wsq::StrFormat(
              "Select Name, AV.URL, G.URL "
              "From Sigs, WebPages_AV AV, WebPages_Google G "
              "Where Name = AV.T1 and Name = G.T1 and AV.Rank <= 3 and "
              "G.Rank <= 3 and AV.T2 = '%s' and G.T2 = '%s'",
              c[i].c_str(), c[i].c_str());
        } else {
          // The §4.1 running example: 37 calls, ORDER BY.
          sql = wsq::StrFormat(
              "Select Name, Count From Sigs, WebCount "
              "Where Name = T1 and T2 = '%s' Order By Count Desc",
              c[i].c_str());
        }
        instances_.push_back(Instance{sql, {}});
      }
    }
  }

  WebConfig config_;
  uint64_t seed_;
  std::vector<Instance> instances_;
  std::vector<Rng> client_rngs_;
  std::vector<double> sync_instance_ms_;
  std::string description_;

  // Destruction order is handled by Teardown.
  std::unique_ptr<wsq::Corpus> corpus_;
  std::unique_ptr<wsq::SearchEngine> av_engine_;
  std::unique_ptr<wsq::SearchEngine> google_engine_;
  std::unique_ptr<wsq::SimulatedSearchService> av_service_;
  std::unique_ptr<wsq::SimulatedSearchService> google_service_;
  std::unique_ptr<TracingSearchService> av_traced_;
  std::unique_ptr<TracingSearchService> google_traced_;
  std::unique_ptr<wsq::WsqDatabase> db_;
};

}  // namespace

std::unique_ptr<Workload> MakeWsqLocal(uint64_t seed) {
  WebConfig c;
  c.clients = 1;
  c.latency = wsq::LatencyModel::Instant();
  c.kinds = {"T1", "T2", "T3", "Sigs"};
  // At zero latency Sigs < T3 < T1 < T2; these weights put p50 inside
  // the T1 latencies (35% to 70% of the mix), not between two kinds.
  c.weights = {0.35, 0.30, 0.20, 0.15};
  return std::make_unique<WebWorkload>(c, seed);
}

std::unique_ptr<Workload> MakeTable1Latency(uint64_t seed) {
  WebConfig c;
  c.clients = 2;
  c.latency = wsq::LatencyModel{3000, 1000, 0.02, 4.0};
  c.kinds = {"T1", "T2", "T3"};
  c.weights = {1.0, 1.0, 1.0};
  return std::make_unique<WebWorkload>(c, seed);
}

}  // namespace perfbench
