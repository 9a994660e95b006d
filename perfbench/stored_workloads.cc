// Stored-only workloads: no ReqPump traffic, just the storage ->
// executor path.
//
//   stored_scan   1 client, read-only. `hot` fits in the 256-frame pool
//                 (about 65% of it); `cold` is about 5.6x the pool, so
//                 each cold scan misses on every page; `dim` (100 rows)
//                 joins to both. Answers are checked against values
//                 computed here from the generated rows.
//   stored_write  1 client, file-backed database (SyncPolicy::kNone),
//                 one indexed table of 20k rows held at constant size by
//                 paired INSERT of new keys / DELETE of the oldest, plus
//                 UPDATE by key, point SELECT, short-range COUNT and a
//                 budgeted ORDER BY that spills; every 50th statement
//                 is a Checkpoint(). A shadow key -> balance model
//                 checks every answer.

#include <algorithm>
#include <cinttypes>
#include <filesystem>
#include <map>
#include <numeric>

#include "common/strings.h"
#include "storage/page.h"
#include "workload.h"

namespace perfbench {
namespace {

using wsq::Status;
using wsq::StrFormat;

constexpr int kInstancesPerKind = 16;
constexpr size_t kLoadBatch = 500;

std::string Tag(Rng& rng) {
  static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz";
  std::string s(8, 'a');
  for (char& c : s) c = kAlphabet[rng.Uniform(26)];
  return s;
}

int64_t IntAt(const wsq::Row& row, size_t i) {
  const wsq::Value& v = row.value(i);
  return v.is_int() ? v.AsInt()
                    : static_cast<int64_t>(v.NumericAsDouble());
}

Status ExecOk(wsq::WsqDatabase* db, const std::string& sql) {
  auto r = db->Execute(sql);
  return r.ok() ? Status::OK() : r.status();
}

// ---------------------------------------------------------------------
// stored_scan

struct FactRow {
  int64_t id, grp, val;
  std::string tag;
};

class StoredScan : public Workload {
 public:
  static constexpr int64_t kHotRows = 14000;
  static constexpr int64_t kColdRows = 120000;
  static constexpr int64_t kDimRows = 100;
  static constexpr int64_t kValRange = 1000000;
  /// Per-query cap for the spilling sort: well under the ~1.4 MB the
  /// hot table's rows take in memory.
  static constexpr size_t kSpillBudget = 256 * 1024;

  enum Kind {
    kPointHot, kPointCold, kFilterHot, kFilterCold, kGroupHot, kGroupCold,
    kTopKHot, kTopKCold, kSortHot, kJoinHot, kJoinCold, kSpillSortHot,
    kNumKinds
  };

  StoredScan(uint64_t seed, std::string scratch)
      : scratch_(std::move(scratch)), rng_(seed) {
    Rng data = rng_.Fork();
    for (int t = 0; t < 2; ++t) {
      std::vector<FactRow>& rows = t == 0 ? hot_ : cold_;
      int64_t n = t == 0 ? kHotRows : kColdRows;
      rows.reserve(n);
      for (int64_t id = 0; id < n; ++id) {
        rows.push_back({id, static_cast<int64_t>(data.Uniform(kDimRows)),
                        static_cast<int64_t>(data.Uniform(kValRange)),
                        Tag(data)});
      }
      // Zipf ranks map to keys through a permutation so popular keys
      // are spread over the table's pages.
      std::vector<int64_t>& perm = t == 0 ? hot_perm_ : cold_perm_;
      perm.resize(n);
      std::iota(perm.begin(), perm.end(), 0);
      for (size_t i = perm.size(); i > 1; --i) {
        std::swap(perm[i - 1], perm[data.Uniform(i)]);
      }
    }
    hot_zipf_ = std::make_unique<Zipf>(kHotRows, 1.0);
    cold_zipf_ = std::make_unique<Zipf>(kColdRows, 1.0);
    MakeInstances(rng_.Fork());
    client_rng_ = rng_.Fork();
  }

  int clients() const override { return 1; }
  std::vector<std::string> kinds() const override {
    return {"point_hot",  "point_cold", "filter_hot", "filter_cold",
            "group_hot",  "group_cold", "topk_hot",   "topk_cold",
            "sort_hot",   "join_hot",   "join_cold",  "spill_sort_hot"};
  }
  wsq::WsqDatabase* db() override { return db_.get(); }

  Status Setup(bool) override {
    wsq::WsqDatabase::Options options;
    options.spill_dir = scratch_;
    db_ = std::make_unique<wsq::WsqDatabase>(options);
    for (const char* t : {"hot", "cold"}) {
      WSQ_RETURN_IF_ERROR(ExecOk(db_.get(), StrFormat(
          "CREATE TABLE %s (id INT, grp INT, val INT, tag STRING)", t)));
      const std::vector<FactRow>& rows = t[0] == 'h' ? hot_ : cold_;
      for (size_t i = 0; i < rows.size(); i += kLoadBatch) {
        std::string sql = StrFormat("INSERT INTO %s VALUES ", t);
        for (size_t j = i; j < std::min(rows.size(), i + kLoadBatch); ++j) {
          const FactRow& r = rows[j];
          sql += StrFormat("%s(%" PRId64 ", %" PRId64 ", %" PRId64 ", '%s')",
                           j == i ? "" : ", ", r.id, r.grp, r.val,
                           r.tag.c_str());
        }
        WSQ_RETURN_IF_ERROR(ExecOk(db_.get(), sql));
      }
      WSQ_RETURN_IF_ERROR(ExecOk(
          db_.get(), StrFormat("CREATE INDEX %s_id ON %s (id)", t, t)));
    }
    WSQ_RETURN_IF_ERROR(ExecOk(
        db_.get(), "CREATE TABLE dim (id INT, name STRING, region INT)"));
    std::string sql = "INSERT INTO dim VALUES ";
    for (int64_t d = 0; d < kDimRows; ++d) {
      sql += StrFormat("%s(%" PRId64 ", 'dim%" PRId64 "', %" PRId64 ")",
                       d == 0 ? "" : ", ", d, d, d % 7);
    }
    return ExecOk(db_.get(), sql);
  }

  void Teardown() override { db_.reset(); }

  Status Prepare() override {
    // Table sizes against the pool, measured as buffer-pool misses of a
    // full scan: `hot` scanned right after `cold` misses once per hot
    // page, and `cold` misses once per page on every scan.
    auto scan_misses = [this](const char* table) -> wsq::Result<uint64_t> {
      uint64_t before = db_->buffer_pool()->stats().misses;
      WSQ_RETURN_IF_ERROR(
          ExecOk(db_.get(), StrFormat("SELECT COUNT(*) FROM %s", table)));
      return db_->buffer_pool()->stats().misses - before;
    };
    WSQ_RETURN_IF_ERROR(scan_misses("cold").status());
    WSQ_ASSIGN_OR_RETURN(uint64_t hot_pages, scan_misses("hot"));
    WSQ_ASSIGN_OR_RETURN(uint64_t cold_pages, scan_misses("cold"));
    const uint64_t pool = db_->buffer_pool()->pool_size();
    description_ = StrFormat(
        "pool=%" PRIu64 " frames; hot=%" PRIu64 " pages (%.0f%% of the pool)"
        ", cold=%" PRIu64 " pages (%.1fx the pool)",
        pool, hot_pages, 100.0 * hot_pages / pool, cold_pages,
        static_cast<double>(cold_pages) / pool);
    if (hot_pages * 4 > pool * 3 || cold_pages < 5 * pool) {
      return Status::Internal("table sizes off target: " + description_);
    }

    // Access paths: unindexed filters must scan, point lookups must
    // probe the index, and the budgeted sort must really spill.
    for (const Instance& inst : instances_) {
      WSQ_ASSIGN_OR_RETURN(std::string plan,
                           PlanOperators(db_.get(), inst.sql, true));
      bool index = plan.find("IndexScan:") != std::string::npos;
      bool scan = plan.find("\nScan: ") != std::string::npos;
      bool want_index = inst.kind == kPointHot || inst.kind == kPointCold;
      if (index != want_index || scan == want_index) {
        return Status::Internal("unexpected access path for: " + inst.sql +
                                "\n" + plan);
      }
    }
    for (const Instance& inst : instances_) {
      if (inst.kind != kSpillSortHot) continue;
      wsq::WsqDatabase::ExecOptions opts;
      opts.memory_budget_bytes = inst.memory_budget_bytes;
      WSQ_ASSIGN_OR_RETURN(wsq::QueryExecution exec,
                           db_->Execute(inst.sql, opts));
      if (exec.stats.spill_runs == 0) {
        return Status::Internal("budgeted sort did not spill: " + inst.sql);
      }
    }
    return Status::OK();
  }

  Stmt Next(int) override {
    // Weights: point lookups (30%) sit below the hot-table statements
    // (61%, 3-10 ms), so p50 falls inside the hot statements rather than
    // on a boundary between kinds; the cold statements (6%) and the
    // spilling sort (3%) make the tail, and p99 lies among them.
    static const std::vector<double> kWeights = {
        0.15, 0.15, 0.14, 0.015, 0.12, 0.015, 0.14, 0.015, 0.07, 0.14, 0.015,
        0.03};
    size_t kind = PickWeighted(kWeights, client_rng_);
    Stmt s;
    s.kind = kind;
    if (kind == kPointHot || kind == kPointCold) {
      bool hot = kind == kPointHot;
      int64_t key = hot ? hot_perm_[hot_zipf_->Sample(client_rng_)]
                        : cold_perm_[cold_zipf_->Sample(client_rng_)];
      s.sql = StrFormat("SELECT id, grp, val, tag FROM %s WHERE id = %" PRId64,
                        hot ? "hot" : "cold", key);
      s.instance = static_cast<size_t>(key);
      return s;
    }
    s.instance = by_kind_[kind][client_rng_.Uniform(kInstancesPerKind)];
    s.sql = instances_[s.instance].sql;
    s.memory_budget_bytes = instances_[s.instance].memory_budget_bytes;
    return s;
  }

  bool Check(const Stmt& stmt, const wsq::ResultSet& result,
             std::string* why) override {
    std::string problem = CheckImpl(stmt, result);
    if (problem.empty()) return true;
    *why = problem + ": " + stmt.sql;
    return false;
  }

  std::string Describe() const override { return description_; }

  void CorruptExpectedAnswers() override {
    for (Instance& inst : instances_) inst.count += 1;
  }

 private:
  struct Instance {
    std::string sql;
    size_t kind;
    size_t memory_budget_bytes = 0;
    // Expected answer: row count and two column sums, plus, for ordered
    // kinds, the exact leading and trailing rows.
    int64_t count = 0;
    int64_t sum_a = 0;
    int64_t sum_b = 0;
    std::vector<std::pair<int64_t, int64_t>> head, tail;
    std::map<int64_t, std::pair<int64_t, int64_t>> groups;
    bool hot = true;
  };

  void MakeInstances(Rng rng) {
    by_kind_.assign(kNumKinds, {});
    for (size_t kind = kFilterHot; kind < kNumKinds; ++kind) {
      for (int i = 0; i < kInstancesPerKind; ++i) {
        by_kind_[kind].push_back(instances_.size());
        instances_.push_back(MakeInstance(kind, rng));
      }
    }
  }

  Instance MakeInstance(size_t kind, Rng& rng) {
    Instance inst;
    inst.kind = kind;
    inst.hot = kind == kFilterHot || kind == kGroupHot || kind == kTopKHot ||
               kind == kSortHot || kind == kJoinHot || kind == kSpillSortHot;
    const char* t = inst.hot ? "hot" : "cold";
    const std::vector<FactRow>& rows = inst.hot ? hot_ : cold_;
    auto ordered = [&](std::vector<std::pair<int64_t, int64_t>> keys) {
      inst.count = static_cast<int64_t>(keys.size());
      size_t k = std::min<size_t>(10, keys.size());
      inst.head.assign(keys.begin(), keys.begin() + k);
      inst.tail.assign(keys.end() - k, keys.end());
    };
    switch (kind) {
      case kFilterHot:
      case kFilterCold:
      case kJoinHot:
      case kJoinCold: {
        bool join = kind == kJoinHot || kind == kJoinCold;
        int64_t width = join ? kValRange / 200 : kValRange / 100;
        int64_t lo = static_cast<int64_t>(rng.Uniform(kValRange - width));
        inst.sql = join
            ? StrFormat("SELECT dim.name, %s.id, %s.val FROM %s, dim WHERE "
                        "%s.val >= %" PRId64 " AND %s.val < %" PRId64
                        " AND %s.grp = dim.id",
                        t, t, t, t, lo, t, lo + width, t)
            : StrFormat("SELECT id, val FROM %s WHERE val >= %" PRId64
                        " AND val < %" PRId64,
                        t, lo, lo + width);
        for (const FactRow& r : rows) {
          if (r.val < lo || r.val >= lo + width) continue;
          ++inst.count;
          inst.sum_a += r.id;
          inst.sum_b += r.val;
        }
        break;
      }
      case kGroupHot:
      case kGroupCold: {
        int64_t lo = static_cast<int64_t>(rng.Uniform(kValRange / 10));
        inst.sql = StrFormat(
            "SELECT grp, COUNT(*), SUM(val) FROM %s WHERE val >= %" PRId64
            " GROUP BY grp",
            t, lo);
        for (const FactRow& r : rows) {
          if (r.val < lo) continue;
          auto& g = inst.groups[r.grp];
          ++g.first;
          g.second += r.val;
        }
        break;
      }
      case kTopKHot:
      case kTopKCold: {
        int64_t g = static_cast<int64_t>(rng.Uniform(kDimRows));
        inst.sql = StrFormat(
            "SELECT id, val FROM %s WHERE grp = %" PRId64
            " ORDER BY val DESC, id LIMIT 10",
            t, g);
        std::vector<std::pair<int64_t, int64_t>> keys;
        for (const FactRow& r : rows) {
          if (r.grp == g) keys.push_back({-r.val, r.id});
        }
        std::sort(keys.begin(), keys.end());
        keys.resize(std::min<size_t>(10, keys.size()));
        for (auto& k : keys) k.first = -k.first;
        ordered(keys);
        break;
      }
      case kSortHot: {
        int64_t lo = static_cast<int64_t>(rng.Uniform(kValRange / 10));
        inst.sql = StrFormat(
            "SELECT id, val FROM hot WHERE val >= %" PRId64
            " ORDER BY val, id",
            lo);
        std::vector<std::pair<int64_t, int64_t>> keys;
        for (const FactRow& r : rows) {
          if (r.val >= lo) keys.push_back({r.val, r.id});
        }
        std::sort(keys.begin(), keys.end());
        ordered(keys);
        break;
      }
      case kSpillSortHot: {
        // ORDER BY grp, val, id: a total order on distinct ids.
        int64_t lo = static_cast<int64_t>(rng.Uniform(kValRange / 10));
        inst.memory_budget_bytes = kSpillBudget;
        inst.sql = StrFormat(
            "SELECT id, grp, val, tag FROM hot WHERE val >= %" PRId64
            " ORDER BY grp, val, id",
            lo);
        std::vector<std::pair<int64_t, int64_t>> keys;
        std::vector<std::tuple<int64_t, int64_t, int64_t>> full;
        for (const FactRow& r : rows) {
          if (r.val >= lo) full.emplace_back(r.grp, r.val, r.id);
        }
        std::sort(full.begin(), full.end());
        for (const auto& [grp, val, id] : full) keys.push_back({val, id});
        ordered(keys);
        break;
      }
    }
    return inst;
  }

  std::string CheckImpl(const Stmt& stmt, const wsq::ResultSet& result) {
    const auto& rows = result.rows;
    if (stmt.kind == kPointHot || stmt.kind == kPointCold) {
      const FactRow& want =
          (stmt.kind == kPointHot ? hot_ : cold_)[stmt.instance];
      if (rows.size() != 1) return "point lookup returned != 1 row";
      const wsq::Row& r = rows[0];
      if (IntAt(r, 0) != want.id || IntAt(r, 1) != want.grp ||
          IntAt(r, 2) != want.val || r.value(3).AsString() != want.tag) {
        return "point lookup row differs";
      }
      return "";
    }
    const Instance& inst = instances_[stmt.instance];
    const std::vector<FactRow>& data = inst.hot ? hot_ : cold_;
    switch (inst.kind) {
      case kFilterHot:
      case kFilterCold:
      case kJoinHot:
      case kJoinCold: {
        bool join = inst.kind == kJoinHot || inst.kind == kJoinCold;
        int64_t sum_a = 0, sum_b = 0;
        for (const wsq::Row& r : rows) {
          int64_t id = IntAt(r, join ? 1 : 0);
          sum_a += id;
          sum_b += IntAt(r, join ? 2 : 1);
          if (join && (id < 0 || id >= static_cast<int64_t>(data.size()) ||
                       r.value(0).AsString() !=
                           "dim" + std::to_string(data[id].grp))) {
            return "joined dimension row differs";
          }
        }
        if (static_cast<int64_t>(rows.size()) != inst.count ||
            sum_a != inst.sum_a || sum_b != inst.sum_b) {
          return StrFormat("count/sums differ (%zu rows, want %" PRId64 ")",
                           rows.size(), inst.count);
        }
        return "";
      }
      case kGroupHot:
      case kGroupCold: {
        if (rows.size() != inst.groups.size()) return "group count differs";
        for (const wsq::Row& r : rows) {
          auto it = inst.groups.find(IntAt(r, 0));
          if (it == inst.groups.end() || IntAt(r, 1) != it->second.first ||
              IntAt(r, 2) != it->second.second) {
            return "group aggregate differs";
          }
        }
        return "";
      }
      default: {
        // Ordered kinds: (val, id) columns, exact head and tail, and
        // the whole output in order.
        bool spill = inst.kind == kSpillSortHot;
        size_t val_col = spill ? 2 : 1;
        if (static_cast<int64_t>(rows.size()) != inst.count) {
          return StrFormat("row count differs (%zu, want %" PRId64 ")",
                           rows.size(), inst.count);
        }
        auto key = [&](size_t i) {
          return std::make_pair(IntAt(rows[i], val_col), IntAt(rows[i], 0));
        };
        for (size_t i = 0; i < inst.head.size(); ++i) {
          if (key(i) != inst.head[i]) return "leading rows differ";
          if (key(rows.size() - inst.tail.size() + i) != inst.tail[i]) {
            return "trailing rows differ";
          }
        }
        for (size_t i = 1; i < rows.size(); ++i) {
          if (spill) {
            auto full = [&](size_t j) {
              return std::make_tuple(IntAt(rows[j], 1), IntAt(rows[j], 2),
                                     IntAt(rows[j], 0));
            };
            if (full(i) < full(i - 1)) return "output not in order";
          } else if (inst.kind == kSortHot && key(i) < key(i - 1)) {
            return "output not in order";
          }
        }
        return "";
      }
    }
  }

  std::string scratch_;
  std::string description_;
  Rng rng_;
  Rng client_rng_{0};
  std::vector<FactRow> hot_, cold_;
  std::vector<int64_t> hot_perm_, cold_perm_;
  std::unique_ptr<Zipf> hot_zipf_, cold_zipf_;
  std::vector<Instance> instances_;
  std::vector<std::vector<size_t>> by_kind_;
  std::unique_ptr<wsq::WsqDatabase> db_;
};

// ---------------------------------------------------------------------
// stored_write

class StoredWrite : public Workload {
 public:
  static constexpr int64_t kRows = 20000;
  /// Every 50th statement is a Checkpoint(), timed as a statement of
  /// its own kind.
  static constexpr int kCheckpointEvery = 50;
  static constexpr int64_t kRangeWidth = 50;

  /// Per-query cap for the spilling sort: well under the ~2 MB its
  /// rows take in memory.
  static constexpr size_t kSpillBudget = 256 * 1024;

  enum Kind {
    kInsert,
    kDelete,
    kUpdate,
    kPoint,
    kRange,
    kSpillSort,
    kCheckpoint
  };

  StoredWrite(uint64_t seed, std::string scratch)
      : scratch_(std::move(scratch)), seed_(seed), rng_(seed) {}

  ~StoredWrite() override { Teardown(); }

  int clients() const override { return 1; }
  std::vector<std::string> kinds() const override {
    return {"insert", "delete", "update", "point",
            "range",  "spill_sort", "checkpoint"};
  }
  wsq::WsqDatabase* db() override { return db_.get(); }

  Status Setup(bool) override {
    Teardown();
    std::filesystem::create_directories(scratch_);
    path_ = scratch_ + "/stored_write.db";
    wsq::WsqDatabase::Options options;
    options.sync_policy = wsq::SyncPolicy::kNone;
    options.spill_dir = scratch_;
    WSQ_ASSIGN_OR_RETURN(db_, wsq::WsqDatabase::Open(path_, options));
    WSQ_RETURN_IF_ERROR(ExecOk(
        db_.get(), "CREATE TABLE acct (k INT, bal INT, note STRING)"));
    Rng data(seed_ ^ 0xda7a);
    shadow_.clear();
    for (int64_t i = 0; i < kRows; i += kLoadBatch) {
      std::string sql = "INSERT INTO acct VALUES ";
      for (int64_t k = i; k < std::min(kRows, i + int64_t{kLoadBatch}); ++k) {
        Account a{static_cast<int64_t>(data.Uniform(100000)), Note(data)};
        sql += StrFormat("%s(%" PRId64 ", %" PRId64 ", '%s')",
                         k == i ? "" : ", ", k, a.bal, a.note.c_str());
        shadow_[k] = a;
      }
      WSQ_RETURN_IF_ERROR(ExecOk(db_.get(), sql));
    }
    WSQ_RETURN_IF_ERROR(ExecOk(db_.get(), "CREATE INDEX acct_k ON acct (k)"));
    next_key_ = kRows;
    WSQ_RETURN_IF_ERROR(db_->Checkpoint());
    description_ = StrFormat(
        "pool=%zu frames; database file after load=%ju pages (heap, index, "
        "catalog)",
        db_->buffer_pool()->pool_size(),
        static_cast<uintmax_t>(std::filesystem::file_size(path_) /
                               wsq::kPageSize));
    return Status::OK();
  }

  std::string Describe() const override { return description_; }

  void Teardown() override {
    db_.reset();
    if (!path_.empty()) {
      std::filesystem::remove(path_);
      std::filesystem::remove(path_ + ".wal");
    }
  }

  Status Prepare() override {
    for (const char* sql :
         {"SELECT k, bal, note FROM acct WHERE k = 17",
          "SELECT COUNT(*), SUM(bal) FROM acct WHERE k >= 10 AND k < 60"}) {
      WSQ_ASSIGN_OR_RETURN(std::string plan,
                           PlanOperators(db_.get(), sql, true));
      if (plan.find("IndexScan:") == std::string::npos) {
        return Status::Internal(std::string("expected an IndexScan for: ") +
                                sql + "\n" + plan);
      }
    }
    wsq::WsqDatabase::ExecOptions opts;
    opts.memory_budget_bytes = kSpillBudget;
    WSQ_ASSIGN_OR_RETURN(wsq::QueryExecution exec,
                         db_->Execute(SpillSortSql(0), opts));
    if (exec.stats.spill_runs == 0) {
      return Status::Internal("budgeted sort did not spill");
    }
    return Status::OK();
  }

  Stmt Next(int) override {
    Stmt s;
    if (++since_checkpoint_ == kCheckpointEvery) {
      since_checkpoint_ = 0;
      s.kind = kCheckpoint;
      s.select = false;
      s.checkpoint = true;
      s.sql = "<checkpoint>";
      return s;
    }
    // Weights of the other 98%: churn (INSERT 15%, DELETE 15%), UPDATE
    // 20%, point SELECT 25%, range COUNT 22%, spilling sort 3%. By
    // latency the INSERTs and point SELECTs make up the fastest 39%, so
    // p50 falls inside the range COUNTs (39-61%) rather than on a
    // boundary between kinds; the spilling sorts are the slowest 3%, so
    // p99 falls well inside them.
    static const std::vector<double> kWeights = {0.30, 0.20, 0.25, 0.22,
                                                 0.03};
    size_t pick = PickWeighted(kWeights, rng_);
    int64_t lo = shadow_.begin()->first;
    int64_t live = next_key_ - lo;
    auto random_key = [&] { return lo + static_cast<int64_t>(rng_.Uniform(live)); };
    if (pick == 0) {
      // Churn: INSERT a new key, or DELETE the oldest, keeping the
      // table at kRows rows.
      if (static_cast<int64_t>(shadow_.size()) <= kRows) {
        pending_ = {next_key_, static_cast<int64_t>(rng_.Uniform(100000)),
                    Note(rng_)};
        s.kind = kInsert;
        s.sql = StrFormat("INSERT INTO acct VALUES (%" PRId64 ", %" PRId64
                          ", '%s')",
                          pending_.key, pending_.bal, pending_.note.c_str());
      } else {
        s.kind = kDelete;
        pending_.key = lo;
        s.sql = StrFormat("DELETE FROM acct WHERE k = %" PRId64, lo);
      }
      s.select = false;
    } else if (pick == 1) {
      s.kind = kUpdate;
      s.select = false;
      pending_.key = random_key();
      pending_.bal = static_cast<int64_t>(rng_.Uniform(2001)) - 1000;
      s.sql = StrFormat("UPDATE acct SET bal = bal + %" PRId64
                        " WHERE k = %" PRId64,
                        pending_.bal, pending_.key);
    } else if (pick == 2) {
      s.kind = kPoint;
      pending_.key = random_key();
      s.sql = StrFormat("SELECT k, bal, note FROM acct WHERE k = %" PRId64,
                        pending_.key);
    } else if (pick == 3) {
      s.kind = kRange;
      pending_.key = lo + static_cast<int64_t>(
                              rng_.Uniform(static_cast<uint64_t>(live)));
      s.sql = StrFormat("SELECT COUNT(*), SUM(bal) FROM acct WHERE k >= %" PRId64
                        " AND k < %" PRId64,
                        pending_.key, pending_.key + kRangeWidth);
    } else {
      // ORDER BY over at least 90% of the table under a per-query cap:
      // the sort must spill runs to disk.
      s.kind = kSpillSort;
      s.memory_budget_bytes = kSpillBudget;
      pending_.key = lo + static_cast<int64_t>(rng_.Uniform(
                              static_cast<uint64_t>(live / 10)));
      s.sql = SpillSortSql(pending_.key);
    }
    return s;
  }

  bool Check(const Stmt& stmt, const wsq::ResultSet& result,
             std::string* why) override {
    std::string problem = CheckImpl(stmt, result);
    if (problem.empty()) return true;
    *why = problem + ": " + stmt.sql;
    return false;
  }

  Status FinalCheck() override {
    WSQ_ASSIGN_OR_RETURN(wsq::QueryExecution all,
                         db_->Execute("SELECT k, bal, note FROM acct"));
    if (all.result.rows.size() != shadow_.size()) {
      return Status::Internal(StrFormat(
          "final table has %zu rows, shadow model %zu",
          all.result.rows.size(), shadow_.size()));
    }
    for (const wsq::Row& r : all.result.rows) {
      auto it = shadow_.find(IntAt(r, 0));
      if (it == shadow_.end() || it->second.bal != IntAt(r, 1) ||
          it->second.note != r.value(2).AsString()) {
        return Status::Internal("final table differs from the shadow model "
                                "at k=" + std::to_string(IntAt(r, 0)));
      }
    }
    return Status::OK();
  }

  WorkloadCounters counters() const override { return counters_; }

  void CorruptExpectedAnswers() override {
    for (auto& entry : shadow_) entry.second.bal += 1;
  }

 private:
  struct Account {
    int64_t bal = 0;
    std::string note;
  };
  struct Pending {
    int64_t key = 0;
    int64_t bal = 0;
    std::string note;
  };

  /// 48-character notes make the heap about 1.5x the buffer pool, so a
  /// full scan (UPDATE and DELETE by key) misses on every page from the
  /// start of the run. A heap near the pool size would instead cross it
  /// part-way through a run as updates append, and scan cost would jump.
  static std::string Note(Rng& rng) {
    std::string note;
    for (int i = 0; i < 6; ++i) note += Tag(rng);
    return note;
  }

  static std::string SpillSortSql(int64_t from_key) {
    return StrFormat("SELECT k, bal, note FROM acct WHERE k >= %" PRId64
                     " ORDER BY note, k",
                     from_key);
  }

  std::string CheckImpl(const Stmt& stmt, const wsq::ResultSet& result) {
    const auto& rows = result.rows;
    switch (stmt.kind) {
      case kInsert:
        shadow_[pending_.key] = {pending_.bal, pending_.note};
        ++next_key_;
        counters_.user_bytes_written += 16 + pending_.note.size();
        return rows.empty() ? "" : "INSERT returned rows";
      case kDelete:
        shadow_.erase(pending_.key);
        if (rows.size() != 1 || IntAt(rows[0], 0) != 1) {
          return "DELETE did not report exactly one row";
        }
        return "";
      case kUpdate:
        shadow_[pending_.key].bal += pending_.bal;
        counters_.user_bytes_written += 8;
        if (rows.size() != 1 || IntAt(rows[0], 0) != 1) {
          return "UPDATE did not report exactly one row";
        }
        return "";
      case kPoint: {
        const Account& a = shadow_.at(pending_.key);
        if (rows.size() != 1 || IntAt(rows[0], 0) != pending_.key ||
            IntAt(rows[0], 1) != a.bal ||
            rows[0].value(2).AsString() != a.note) {
          return "point SELECT differs from the shadow model";
        }
        return "";
      }
      case kSpillSort: {
        std::vector<std::pair<std::string, int64_t>> want;
        for (auto it = shadow_.lower_bound(pending_.key); it != shadow_.end();
             ++it) {
          want.emplace_back(it->second.note, it->first);
        }
        std::sort(want.begin(), want.end());
        if (rows.size() != want.size()) {
          return "spilling sort row count differs from the shadow model";
        }
        for (size_t i = 0; i < rows.size(); ++i) {
          const Account& a = shadow_.at(want[i].second);
          if (IntAt(rows[i], 0) != want[i].second ||
              IntAt(rows[i], 1) != a.bal ||
              rows[i].value(2).AsString() != a.note) {
            return "spilling sort output differs from the shadow model";
          }
        }
        return "";
      }
      default: {
        int64_t count = 0, sum = 0;
        for (auto it = shadow_.lower_bound(pending_.key);
             it != shadow_.end() && it->first < pending_.key + kRangeWidth;
             ++it) {
          ++count;
          sum += it->second.bal;
        }
        // SUM over no rows is NULL.
        bool ok = rows.size() == 1 && IntAt(rows[0], 0) == count &&
                  (count == 0 ? rows[0].value(1).is_null()
                              : IntAt(rows[0], 1) == sum);
        return ok ? "" : "range COUNT/SUM differs from the shadow model";
      }
    }
  }

  std::string scratch_;
  std::string description_;
  uint64_t seed_;
  Rng rng_;
  std::string path_;
  std::map<int64_t, Account> shadow_;
  int64_t next_key_ = 0;
  Pending pending_;
  int since_checkpoint_ = 0;
  WorkloadCounters counters_;
  std::unique_ptr<wsq::WsqDatabase> db_;
};

}  // namespace

std::unique_ptr<Workload> MakeStoredScan(uint64_t seed,
                                         const std::string& scratch) {
  return std::make_unique<StoredScan>(seed, scratch);
}

std::unique_ptr<Workload> MakeStoredWrite(uint64_t seed,
                                          const std::string& scratch) {
  return std::make_unique<StoredWrite>(seed, scratch);
}

}  // namespace perfbench
