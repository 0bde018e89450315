#include "workloads.h"

#include <algorithm>
#include <map>

namespace e2ebench {

const char* ClassName(Cls cls) {
  switch (cls) {
    case Cls::kPointSelect: return "point_select";
    case Cls::kAnalyticSelect: return "analytic_select";
    case Cls::kViewRead: return "view_read";
    case Cls::kWideSelect: return "wide_select";
    case Cls::kExecute: return "execute";
    case Cls::kWrite: return "write";
    case Cls::kAdvance: return "advance";
    case Cls::kMaintenance: return "maintenance";
    case Cls::kSetup: return "setup";
  }
  return "?";
}

bool IsRead(Cls cls) {
  return cls == Cls::kPointSelect || cls == Cls::kAnalyticSelect ||
         cls == Cls::kViewRead || cls == Cls::kWideSelect ||
         cls == Cls::kExecute;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int64_t Rng::Uniform(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
}

double Rng::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

std::string Workload::Check(const Stmt& stmt,
                            const expdb::sql::ExecResult& result) {
  const int64_t at = result.served_at.ticks();
  Model& m = models_[stmt.model];
  switch (stmt.op) {
    case Op::kNone:
      return "";
    case Op::kInsert:
      for (const Row& row : stmt.rows) m.Insert(stmt.table, row, at, stmt.ttl);
      return "";
    case Op::kDelete: {
      const int64_t key = stmt.args[0];
      const size_t n = m.EraseLive(stmt.table, at,
                                   [&](const Row& row) { return row[0] == key; });
      const std::string expect =
          std::to_string(n) + (n == 1 ? " row" : " rows") + " deleted";
      if (result.message.rfind(expect, 0) != 0) {
        return "engine says '" + result.message + "', model expects '" +
               expect + "'";
      }
      return "";
    }
    default:
      break;
  }
  if (!result.relation.has_value()) return "read returned no relation";
  return CompareResult(*result.relation, at, Expect(stmt, at));
}

namespace {

std::string RowsSql(const std::vector<Row>& rows) {
  std::string sql;
  for (size_t i = 0; i < rows.size(); ++i) {
    sql += i ? ", (" : "(";
    for (size_t j = 0; j < rows[i].size(); ++j) {
      sql += (j ? ", " : "") + std::to_string(rows[i][j]);
    }
    sql += ")";
  }
  return sql;
}

Stmt InsertStmt(Cls cls, int model, const std::string& table,
                std::vector<Row> rows, int64_t ttl) {
  Stmt s;
  s.cls = cls;
  s.op = Op::kInsert;
  s.model = model;
  s.table = table;
  s.sql = "INSERT INTO " + table + " VALUES " + RowsSql(rows) + " TTL " +
          std::to_string(ttl);
  s.rows = std::move(rows);
  s.ttl = ttl;
  return s;
}

Stmt PlainStmt(Cls cls, std::string sql) {
  Stmt s;
  s.cls = cls;
  s.sql = std::move(sql);
  return s;
}

/// Initial data as one INSERT per distinct TTL.
void AppendLoad(int model, const std::string& table,
                const std::map<int64_t, std::vector<Row>>& by_ttl,
                std::vector<Stmt>* out) {
  for (const auto& [ttl, rows] : by_ttl) {
    for (size_t i = 0; i < rows.size(); i += 64) {
      std::vector<Row> chunk(rows.begin() + i,
                             rows.begin() + std::min(rows.size(), i + 64));
      out->push_back(InsertStmt(Cls::kSetup, model, table, std::move(chunk), ttl));
    }
  }
}

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[static_cast<size_t>(rng->Uniform(0, i - 1))]);
  }
}

/// The remaining lifetime of a row that is live at a random tick of a
/// steady stream of inserts with TTL uniform in [lo, hi]: a row inserted
/// `age` ticks ago with TTL `ttl` is live when ttl > age, with ttl - age
/// ticks to go. In [1, hi].
int64_t SteadyTtl(Rng* rng, int64_t lo, int64_t hi) {
  for (;;) {
    const int64_t age = rng->Uniform(0, hi - 1);
    const int64_t ttl = rng->Uniform(lo, hi);
    if (ttl > age) return ttl - age;
  }
}

// --- ttl_churn --------------------------------------------------------------
//
// Three sessions, each owning a disjoint uid range of one table and
// pausing 1.5 ms after each statement, send short-lived inserts (half of
// them re-inserting recently written keys, which extends a live row's
// texp), point selects and a few deletes.
// Session 0 advances the clock once per 50-statement round and runs a
// maintenance pass every tenth round.

class TtlChurn : public Workload {
 public:
  static constexpr int kSessions = 3;
  static constexpr int64_t kKeysPerSession = 12000;
  static constexpr int64_t kInitialPerSession = 6667;
  static constexpr size_t kRecent = 256;

  explicit TtlChurn(uint64_t seed) : Workload(kSessions), setup_rng_(seed) {
    for (int s = 0; s < kSessions; ++s) {
      sessions_.push_back(SessionState{Rng(seed * 31 + 7 + s), {}, 0, 0});
    }
  }

  int sessions() const override { return kSessions; }
  // Without a pause the three sessions kept the table's shared lock held
  // almost without a gap, writers waited for the rare gaps, and
  // throughput moved by a fifth between runs of one seed. Pausing about
  // as long as a point select takes leaves each session in a statement
  // half the time; over ten seeds the quartile spread of throughput fell
  // from 0.23 (0.3 ms pause) to 0.14.
  int64_t pause_us() const override { return 1500; }

  std::vector<Stmt> Setup() override {
    std::vector<Stmt> out;
    out.push_back(PlainStmt(Cls::kSetup,
                            "CREATE TABLE sess (uid INT, region INT, score INT)"));
    for (int s = 0; s < kSessions; ++s) {
      std::vector<int64_t> keys(kKeysPerSession);
      for (int64_t i = 0; i < kKeysPerSession; ++i) keys[i] = Base(s) + i;
      Shuffle(&keys, &setup_rng_);
      keys.resize(kInitialPerSession);
      std::map<int64_t, std::vector<Row>> by_ttl;
      for (int64_t uid : keys) {
        by_ttl[setup_rng_.Uniform(1, 1200)].push_back(RowFor(uid));
      }
      AppendLoad(s, "sess", by_ttl, &out);
      // The longest-lived initial keys seed the re-insert ring.
      for (auto it = by_ttl.rbegin();
           it != by_ttl.rend() && sessions_[s].recent.size() < kRecent; ++it) {
        for (const Row& row : it->second) {
          if (sessions_[s].recent.size() < kRecent) {
            sessions_[s].recent.push_back(row[0]);
          }
        }
      }
    }
    return out;
  }

  void NextRound(int s, std::vector<Stmt>* out) override {
    SessionState& st = sessions_[s];
    // 22 writes (11 fresh keys, 11 re-inserts), 27 selects and one slot
    // that is a delete every sixteenth round and a select otherwise. On
    // session 0 one select slot is the clock tick and every tenth round
    // another is a maintenance pass. A delete sorts the whole table under
    // its write lock for about 10 ms (Session::ExecuteDelete), and every
    // select that arrives meanwhile waits: at one delete per round those
    // convoys decided the run, and at one per four rounds about 1% of
    // selects waited, which put read_p99_us on the edge between waiting
    // and not waiting, so that it moved by a quarter from run to run.
    std::vector<char> slots;
    slots.insert(slots.end(), 11, 'n');
    slots.insert(slots.end(), 11, 'r');
    slots.push_back(st.rounds % 16 == 0 ? 'd' : 's');
    slots.insert(slots.end(), 27, 's');
    if (s == 0) {
      slots.pop_back();
      if (st.rounds % 10 == 9) {
        slots.pop_back();
        slots.push_back('m');
      }
    }
    Shuffle(&slots, &st.rng);
    if (s == 0) out->push_back(PlainStmt(Cls::kAdvance, "ADVANCE TIME 1"));
    for (char slot : slots) {
      switch (slot) {
        case 'n':
        case 'r': {
          const int64_t uid =
              slot == 'n' ? Base(s) + st.rng.Uniform(0, kKeysPerSession - 1)
                          : Recent(&st);
          if (slot == 'n') Remember(&st, uid);
          out->push_back(InsertStmt(Cls::kWrite, s, "sess", {RowFor(uid)},
                                    st.rng.Uniform(100, 1100)));
          break;
        }
        case 'd': {
          const int64_t uid = Recent(&st);
          Stmt d = PlainStmt(Cls::kWrite,
                             "DELETE FROM sess WHERE uid = " + std::to_string(uid));
          d.op = Op::kDelete;
          d.model = s;
          d.table = "sess";
          d.args = {uid};
          out->push_back(std::move(d));
          break;
        }
        case 's': {
          const int64_t uid = st.rng.Unit() < 0.5
                                  ? Recent(&st)
                                  : Base(s) + st.rng.Uniform(0, kKeysPerSession - 1);
          out->push_back(PointSelect(s, uid));
          break;
        }
        case 'm':
          out->push_back(PlainStmt(Cls::kMaintenance, "MAINTENANCE RUN"));
          break;
      }
    }
    ++st.rounds;
  }

  Probe MakeProbe() override {
    // The longest-lived initial key of session 0 is live right after
    // set-up.
    const int64_t uid = sessions_[0].recent.front();
    return Probe{PointSelect(0, uid), "sess", RowFor(uid)};
  }

 protected:
  Expected Expect(const Stmt& stmt, int64_t at) override {
    Expected e;
    const Row row = RowFor(stmt.args[0]);
    const int64_t texp = models_[stmt.model].LiveTexp("sess", row, at);
    if (texp > 0) e.rows[row] = texp;
    return e;
  }

 private:
  struct SessionState {
    Rng rng;
    std::vector<int64_t> recent;
    size_t recent_pos;
    uint64_t rounds;
  };

  static int64_t Base(int s) { return s * kKeysPerSession; }
  static Row RowFor(int64_t uid) { return {uid, uid % 16, (uid * 7919) % 1000}; }

  static Stmt PointSelect(int s, int64_t uid) {
    Stmt q = PlainStmt(Cls::kPointSelect,
                       "SELECT * FROM sess WHERE uid = " + std::to_string(uid));
    q.op = Op::kPoint;
    q.model = s;
    q.args = {uid};
    return q;
  }

  static int64_t Recent(SessionState* st) {
    return st->recent[static_cast<size_t>(
        st->rng.Uniform(0, static_cast<int64_t>(st->recent.size()) - 1))];
  }

  static void Remember(SessionState* st, int64_t uid) {
    st->recent[st->recent_pos] = uid;
    st->recent_pos = (st->recent_pos + 1) % st->recent.size();
  }

  Rng setup_rng_;
  std::vector<SessionState> sessions_;
};

// --- view_dashboard -----------------------------------------------------------
//
// One session with SET parallelism = 4 over events (ev), accounts (acct)
// and a ban list (ban). Three views cover the paper's cases: a monotonic
// selection, an EXCEPT maintained WITH (mode = patch), and a GROUP BY
// COUNT(*). Each round reads every view twice, runs joins and group-bys
// whose literals come from eight regions (so the result cache hits,
// patches and misses), trickles a few TTL inserts in and ticks the clock.
//
// The initial ev and ban rows are what the round's inserts leave live at
// any tick once the run is long under way (SteadyTtl), so the tables keep
// their size from the first round on. Loaded otherwise, the live row
// count climbed and fell over the first 600 ticks, and a run's cost per
// round depended on how many rounds it got through.

class ViewDashboard : public Workload {
 public:
  static constexpr int64_t kUids = 2000;
  static constexpr int64_t kRegions = 8;
  static constexpr int64_t kKinds = 4;
  // Events: two inserts of 8 rows per round (one tick), TTL in [100, 600].
  static constexpr int64_t kEventTtlLo = 100;
  static constexpr int64_t kEventTtlHi = 600;
  static constexpr int64_t kInitialEvents = 16 * (kEventTtlLo + kEventTtlHi) / 2;
  // Bans: one insert of 2 rows every other round, TTL in [20, 200].
  static constexpr int64_t kBanTtlLo = 20;
  static constexpr int64_t kBanTtlHi = 200;
  static constexpr int64_t kInitialBans = (kBanTtlLo + kBanTtlHi) / 2;

  explicit ViewDashboard(uint64_t seed)
      : Workload(1), setup_rng_(seed), rng_(seed * 31 + 7) {}

  size_t parallelism() const override { return 4; }

  std::vector<Stmt> Setup() override {
    std::vector<Stmt> out;
    out.push_back(PlainStmt(Cls::kSetup, "SET parallelism = 4"));
    out.push_back(PlainStmt(Cls::kSetup,
                            "CREATE TABLE ev (uid INT, region INT, kind INT)"));
    out.push_back(PlainStmt(Cls::kSetup, "CREATE TABLE acct (uid INT, tier INT)"));
    out.push_back(PlainStmt(Cls::kSetup, "CREATE TABLE ban (uid INT)"));
    std::map<int64_t, std::vector<Row>> acct;
    for (int64_t uid = 0; uid < kUids; ++uid) {
      acct[3000 + 100 * setup_rng_.Uniform(0, 30)].push_back(AcctRow(uid));
    }
    AppendLoad(0, "acct", acct, &out);
    std::map<int64_t, std::vector<Row>> ban;
    for (int64_t i = 0; i < kInitialBans; ++i) {
      ban[SteadyTtl(&setup_rng_, kBanTtlLo, kBanTtlHi)].push_back(
          {setup_rng_.Uniform(0, kUids - 1)});
    }
    AppendLoad(0, "ban", ban, &out);
    std::map<int64_t, std::vector<Row>> ev;
    for (int64_t i = 0; i < kInitialEvents; ++i) {
      ev[SteadyTtl(&setup_rng_, kEventTtlLo, kEventTtlHi)].push_back(
          EventRow(&setup_rng_));
    }
    AppendLoad(0, "ev", ev, &out);
    out.push_back(PlainStmt(Cls::kSetup,
                            "CREATE VIEW v_sel AS SELECT * FROM ev WHERE kind = 1"));
    out.push_back(PlainStmt(Cls::kSetup,
                            "CREATE VIEW v_act WITH (mode = patch) AS "
                            "SELECT uid FROM ev EXCEPT SELECT uid FROM ban"));
    out.push_back(PlainStmt(Cls::kSetup,
                            "CREATE VIEW v_cnt AS "
                            "SELECT region, COUNT(*) FROM ev GROUP BY region"));
    return out;
  }

  void NextRound(int, std::vector<Stmt>* out) override {
    std::vector<Stmt> round;
    for (int i = 0; i < 2; ++i) {
      round.push_back(ViewRead("v_sel", Op::kViewSelect));
      round.push_back(ViewRead("v_act", Op::kViewExcept));
      round.push_back(ViewRead("v_cnt", Op::kViewCount));
    }
    for (int i = 0; i < 4; ++i) {
      const int64_t region = rng_.Uniform(0, kRegions - 1);
      Stmt j = PlainStmt(Cls::kAnalyticSelect,
                         "SELECT e.uid, a.tier FROM ev e, acct a WHERE "
                         "e.uid = a.uid AND e.region = " +
                             std::to_string(region));
      j.op = Op::kJoin;
      j.args = {region};
      round.push_back(std::move(j));
    }
    for (int i = 0; i < 4; ++i) {
      const int64_t region = rng_.Uniform(0, kRegions - 1);
      Stmt g = PlainStmt(Cls::kAnalyticSelect,
                         "SELECT kind, COUNT(*) FROM ev WHERE region = " +
                             std::to_string(region) + " GROUP BY kind");
      g.op = Op::kGroup;
      g.args = {region};
      round.push_back(std::move(g));
    }
    for (int i = 0; i < 2; ++i) {
      std::vector<Row> rows;
      for (int r = 0; r < 8; ++r) rows.push_back(EventRow(&rng_));
      round.push_back(InsertStmt(Cls::kWrite, 0, "ev", std::move(rows),
                                 rng_.Uniform(kEventTtlLo, kEventTtlHi)));
    }
    if (rounds_ % 2 == 1) {
      round.push_back(InsertStmt(Cls::kWrite, 0, "ban",
                                 {{rng_.Uniform(0, kUids - 1)},
                                  {rng_.Uniform(0, kUids - 1)}},
                                 rng_.Uniform(kBanTtlLo, kBanTtlHi)));
    }
    Shuffle(&round, &rng_);
    for (Stmt& s : round) out->push_back(std::move(s));
    out->push_back(PlainStmt(Cls::kAdvance, "ADVANCE TIME 1"));
    ++rounds_;
  }

  Probe MakeProbe() override {
    Row row;
    models_[0].ForEachLive("ev", 0, [&](const Row& r, int64_t) {
      if (r[2] == 1 && (row.empty() || r < row)) row = r;
    });
    return Probe{ViewRead("v_sel", Op::kViewSelect), "ev", row};
  }

 protected:
  Expected Expect(const Stmt& stmt, int64_t at) override {
    const Model& m = models_[0];
    Expected e;
    switch (stmt.op) {
      case Op::kViewSelect:
        m.ForEachLive("ev", at, [&](const Row& r, int64_t t) {
          if (r[2] == 1) e.rows[r] = t;
        });
        break;
      case Op::kViewExcept: {
        e.exact_texp = false;
        m.ForEachLive("ev", at, [&](const Row& r, int64_t) { e.rows[{r[0]}] = 0; });
        m.ForEachLive("ban", at, [&](const Row& r, int64_t) { e.rows.erase(r); });
        break;
      }
      case Op::kViewCount: {
        e.exact_texp = false;
        std::map<int64_t, int64_t> counts;
        m.ForEachLive("ev", at, [&](const Row& r, int64_t) { ++counts[r[1]]; });
        for (const auto& [region, n] : counts) e.rows[{region, n}] = 0;
        break;
      }
      case Op::kJoin: {
        // Join: min of the inputs' texps; projection: max over the
        // event rows that coincide on (uid, tier).
        const int64_t region = stmt.args[0];
        m.ForEachLive("ev", at, [&](const Row& r, int64_t t_ev) {
          if (r[1] != region) return;
          const Row acct = AcctRow(r[0]);
          const int64_t t_acct = m.LiveTexp("acct", acct, at);
          if (t_acct < 0) return;
          int64_t& t = e.rows[acct];
          t = std::max(t, std::min(t_ev, t_acct));
        });
        break;
      }
      case Op::kGroup: {
        e.exact_texp = false;
        std::map<int64_t, int64_t> counts;
        m.ForEachLive("ev", at, [&](const Row& r, int64_t) {
          if (r[1] == stmt.args[0]) ++counts[r[2]];
        });
        for (const auto& [kind, n] : counts) e.rows[{kind, n}] = 0;
        break;
      }
      default:
        break;
    }
    return e;
  }

 private:
  static Row AcctRow(int64_t uid) { return {uid, uid % 5}; }
  static Row EventRow(Rng* rng) {
    return {rng->Uniform(0, kUids - 1), rng->Uniform(0, kRegions - 1),
            rng->Uniform(0, kKinds - 1)};
  }
  static Stmt ViewRead(const std::string& view, Op op) {
    Stmt s = PlainStmt(Cls::kViewRead, "SELECT * FROM " + view);
    s.op = op;
    return s;
  }

  Rng setup_rng_;
  Rng rng_;
  uint64_t rounds_ = 0;
};

// --- wide_plans -----------------------------------------------------------------
//
// One session over four small, static, long-TTL tables. Each round sends
// eight UNION chains of 8 to 128 branches with literals drawn afresh for
// every chain (so the result cache misses), most reusing a fixed shape (so the
// statement cache hits) and one in ten with a shape not seen before, plus
// three EXECUTEs of prepared chains of 16, 32 and 64 branches.

class WidePlans : public Workload {
 public:
  static constexpr int kTables = 4;
  static constexpr int64_t kRows = 300;
  static constexpr int kMaxBranches = 128;
  static constexpr int kPrepared[3] = {16, 32, 64};

  explicit WidePlans(uint64_t seed)
      : Workload(1), setup_rng_(seed), rng_(seed * 31 + 7) {
    // The fixed shapes cycle through every (table, column) pair, so that
    // the seed varies literals and sizes but not how much the branches
    // of a chain resemble each other.
    for (int i = 0; i < kMaxBranches; ++i) master_.push_back({i % kTables, (i / kTables) % 2});
  }

  std::vector<Stmt> Setup() override {
    std::vector<Stmt> out;
    // Every statement here misses the result cache and fills an entry
    // that keeps its instantiated plan and captured per-node state, none
    // of which the byte budget counts (about 2 MB per chain here). Under
    // the default 64 MiB budget the process grows by hundreds of MB per
    // second; a 64 KiB budget keeps it near 100 MB, still with one
    // eviction per miss.
    out.push_back(PlainStmt(Cls::kSetup, "SET result_cache_bytes = 65536"));
    for (int t = 0; t < kTables; ++t) {
      const std::string table = "w" + std::to_string(t);
      out.push_back(PlainStmt(Cls::kSetup,
                              "CREATE TABLE " + table + " (a INT, b INT, c INT)"));
      std::map<int64_t, std::vector<Row>> rows;
      for (int64_t a = 0; a < kRows; ++a) {
        Row row = {a, setup_rng_.Uniform(0, 999), setup_rng_.Uniform(0, 999)};
        values_[t][0].push_back(row[1]);
        values_[t][1].push_back(row[2]);
        rows[1000000 + 10 * setup_rng_.Uniform(0, 99)].push_back(std::move(row));
      }
      AppendLoad(0, table, rows, &out);
    }
    for (int n : kPrepared) {
      std::string sql = "PREPARE pw" + std::to_string(n) + " AS ";
      for (int i = 0; i < n; ++i) {
        sql += (i ? " UNION " : "") + BranchSql(master_[i], "$" + std::to_string(i + 1));
      }
      out.push_back(PlainStmt(Cls::kSetup, std::move(sql)));
    }
    return out;
  }

  void NextRound(int, std::vector<Stmt>* out) override {
    for (int i = 0; i < 8; ++i) {
      const double u = rng_.Unit();
      const int n = 8 + static_cast<int>(120 * u * u);
      std::vector<std::pair<int, int>> shape;
      if (rng_.Unit() < 0.1) {
        for (int b = 0; b < n; ++b) shape.push_back(RandomBranch(&rng_));
      } else {
        shape.assign(master_.begin(), master_.begin() + n);
      }
      Stmt s = PlainStmt(Cls::kWideSelect, "");
      s.op = Op::kUnion;
      for (const auto& branch : shape) {
        const int64_t lit = Literal(branch);
        s.sql += (s.sql.empty() ? "" : " UNION ") + BranchSql(branch, std::to_string(lit));
        s.args.insert(s.args.end(), {branch.first, branch.second, lit});
      }
      out->push_back(std::move(s));
    }
    for (int n : kPrepared) {
      Stmt s = PlainStmt(Cls::kExecute, "EXECUTE pw" + std::to_string(n) + " (");
      s.op = Op::kUnion;
      for (int i = 0; i < n; ++i) {
        const int64_t lit = Literal(master_[i]);
        s.sql += (i ? ", " : "") + std::to_string(lit);
        s.args.insert(s.args.end(), {master_[i].first, master_[i].second, lit});
      }
      s.sql += ")";
      out->push_back(std::move(s));
    }
  }

  Probe MakeProbe() override {
    // w0 rows have distinct `a`, so the row matching the first branch is
    // the only source of its output tuple.
    const int64_t lit = values_[0][0][0];
    Stmt s = PlainStmt(Cls::kWideSelect,
                       BranchSql({0, 0}, std::to_string(lit)) + " UNION " +
                           BranchSql({1, 0}, "1000"));
    s.op = Op::kUnion;
    s.args = {0, 0, lit, 1, 0, 1000};
    Row row;
    models_[0].ForEachLive("w0", 0, [&](const Row& r, int64_t) {
      if (r[0] == 0) row = r;
    });
    return Probe{std::move(s), "w0", row};
  }

 protected:
  Expected Expect(const Stmt& stmt, int64_t at) override {
    // Union and projection both keep the latest texp of coinciding
    // tuples.
    Expected e;
    for (size_t i = 0; i + 2 < stmt.args.size(); i += 3) {
      const int64_t col = 1 + stmt.args[i + 1];
      const int64_t lit = stmt.args[i + 2];
      models_[0].ForEachLive("w" + std::to_string(stmt.args[i]), at,
                             [&](const Row& r, int64_t t) {
                               if (r[col] != lit) return;
                               int64_t& best = e.rows[{r[0]}];
                               best = std::max(best, t);
                             });
    }
    return e;
  }

 private:
  static std::pair<int, int> RandomBranch(Rng* rng) {
    return {static_cast<int>(rng->Uniform(0, kTables - 1)),
            static_cast<int>(rng->Uniform(0, 1))};
  }
  static std::string BranchSql(std::pair<int, int> branch, const std::string& lit) {
    return "SELECT a FROM w" + std::to_string(branch.first) + " WHERE " +
           (branch.second == 0 ? "b" : "c") + " = " + lit;
  }
  /// Half the literals match a stored value, half are drawn from the
  /// whole domain.
  int64_t Literal(std::pair<int, int> branch) {
    if (rng_.Unit() < 0.5) {
      const auto& v = values_[branch.first][branch.second];
      return v[static_cast<size_t>(rng_.Uniform(0, kRows - 1))];
    }
    return rng_.Uniform(0, 999);
  }

  Rng setup_rng_;
  Rng rng_;
  /// Every fixed shape is a prefix of this branch sequence.
  std::vector<std::pair<int, int>> master_;
  std::vector<int64_t> values_[kTables][2];
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "ttl_churn") return std::make_unique<TtlChurn>(seed);
  if (name == "view_dashboard") return std::make_unique<ViewDashboard>(seed);
  if (name == "wide_plans") return std::make_unique<WidePlans>(seed);
  return nullptr;
}

}  // namespace e2ebench
