// Two-tier cache regressions (plan layer): parameter binding (a bound
// plan shares its skeleton and carries its arguments, also under
// concurrent execution and result-cache patching), result-cache
// hit/patch/miss outcomes, broken delta history (Relation::Clear), expiry
// passage, LRU byte-budget eviction, and plan-size scaling of a statement.

#include "plan/cache.h"

#include <gtest/gtest.h>
#include <pthread.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/expression.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "sql/session.h"

namespace expdb {
namespace plan {
namespace {

using namespace algebra;  // NOLINT

Timestamp T(int64_t t) { return Timestamp(t); }

Value V(int64_t v) { return Value(v); }

class ResultCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Relation* r =
        db_.CreateRelation("R", Schema({{"a", ValueType::kInt64}})).value();
    ASSERT_TRUE(r->Insert(Tuple{1}, T(10)).ok());
    ASSERT_TRUE(r->Insert(Tuple{2}, T(20)).ok());
    ASSERT_TRUE(r->Insert(Tuple{3}, Timestamp::Infinity()).ok());
  }

  /// σ_{a >= $1}(R): one parameter slot.
  ExpressionPtr ParamExpr() const {
    return Select(Base("R"),
                  Predicate::Compare(Operand::Column(0), ComparisonOp::kGe,
                                     Operand::Parameter(0)));
  }

  PhysicalPlanPtr ParamPlan() {
    return Planner::Plan(ParamExpr(), db_, PlannerOptions{}).value();
  }

  /// Executes σ_{a >= arg}(R) at `now` (capturing node state) and fills
  /// `cache` under `key`.
  void Fill(ResultCache* cache, const std::string& key, int64_t arg,
            Timestamp now) {
    PhysicalPlanPtr bound = InstantiatePlan(ParamPlan(), {V(arg)}).value();
    NodeCapture capture;
    MaterializedResult result =
        ExecutePlan(*bound, db_, now, bound->options().eval, nullptr,
                    &capture)
            .value();
    cache->Insert(key, std::move(bound), &capture, std::move(result), db_,
                  now);
  }

  Database db_;
};

TEST_F(ResultCacheTest, BoundPlanSharesTheSkeleton) {
  PhysicalPlanPtr skeleton = ParamPlan();
  EXPECT_EQ(skeleton->param_count(), 1u);
  EXPECT_TRUE(skeleton->params().empty());
  auto bound = InstantiatePlan(skeleton, {V(2)});
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  // Binding copies no node and no expression: the bound plan is the
  // skeleton plus its arguments.
  EXPECT_EQ(&bound.value()->root(), &skeleton->root());
  EXPECT_EQ(bound.value()->planned_expr(), skeleton->planned_expr());
  EXPECT_EQ(bound.value()->source_expr(), skeleton->source_expr());
  EXPECT_EQ(&bound.value()->options(), &skeleton->options());
  EXPECT_EQ(bound.value()->params(), std::vector<Value>{V(2)});
  EXPECT_TRUE(skeleton->params().empty());
}

TEST_F(ResultCacheTest, InstantiatePlanRejectsWrongArgumentCounts) {
  PhysicalPlanPtr skeleton = ParamPlan();
  auto none = InstantiatePlan(skeleton, {});
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kInvalidArgument);
  auto two = InstantiatePlan(skeleton, {V(1), V(2)});
  ASSERT_FALSE(two.ok());
  EXPECT_EQ(two.status().code(), StatusCode::kInvalidArgument);
  // A plan without parameters binds only the empty argument vector.
  PhysicalPlanPtr plain = Planner::Plan(Base("R"), db_).value();
  EXPECT_EQ(plain->param_count(), 0u);
  EXPECT_TRUE(InstantiatePlan(plain, {}).ok());
  EXPECT_EQ(InstantiatePlan(plain, {V(1)}).status().code(),
            StatusCode::kInvalidArgument);
}

// Two bindings of one skeleton, executed at once from four threads: each
// execution resolves the parameters against its own plan's arguments.
TEST_F(ResultCacheTest, ConcurrentBindingsReturnTheirOwnResults) {
  PhysicalPlanPtr skeleton = ParamPlan();
  PhysicalPlanPtr ge2 = InstantiatePlan(skeleton, {V(2)}).value();
  PhysicalPlanPtr ge3 = InstantiatePlan(skeleton, {V(3)}).value();
  EvalOptions options;
  options.enable_metrics = false;
  std::vector<int> wrong(4, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const bool two = (t + i) % 2 == 0;
        auto r = ExecutePlan(two ? *ge2 : *ge3, db_, T(0), options);
        if (!r.ok() || r->relation.size() != (two ? 2u : 1u)) ++wrong[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong, std::vector<int>(4, 0));
}

TEST_F(ResultCacheTest, InstantiatePlanBindsArguments) {
  PhysicalPlanPtr skeleton = ParamPlan();
  auto ge2 = InstantiatePlan(skeleton, {V(2)});
  ASSERT_TRUE(ge2.ok()) << ge2.status().ToString();
  auto res2 = ExecutePlan(*ge2.value(), db_, T(0));
  ASSERT_TRUE(res2.ok());
  EXPECT_EQ(res2->relation.size(), 2u);

  // The same skeleton instantiates again with different arguments.
  auto ge3 = InstantiatePlan(skeleton, {V(3)});
  ASSERT_TRUE(ge3.ok());
  auto res3 = ExecutePlan(*ge3.value(), db_, T(0));
  ASSERT_TRUE(res3.ok());
  EXPECT_EQ(res3->relation.size(), 1u);
}

TEST_F(ResultCacheTest, UnchangedBasesHit) {
  ResultCache cache;
  Fill(&cache, "k", 1, T(0));
  auto hit = cache.Lookup("k", db_, T(5));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->relation.CountUnexpiredAt(T(5)), 3u);
  // In-place expiry: the same entry serves a later instant with fewer
  // live tuples (Theorems 1-2), still without execution.
  auto later = cache.Lookup("k", db_, T(15));
  ASSERT_TRUE(later.has_value());
  EXPECT_EQ(later->relation.CountUnexpiredAt(T(15)), 2u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().patches, 0u);
}

TEST_F(ResultCacheTest, DriftedCursorPatchesThroughDeltas) {
  ResultCache cache;
  Fill(&cache, "k", 1, T(0));
  Relation* r = db_.GetRelation("R").value();
  ASSERT_TRUE(r->Insert(Tuple{4}, Timestamp::Infinity()).ok());
  auto hit = cache.Lookup("k", db_, T(5));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->relation.CountUnexpiredAt(T(5)), 4u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().patches, 1u);
  // The patch refreshed the cursors: the next lookup is a plain hit.
  ASSERT_TRUE(cache.Lookup("k", db_, T(6)).has_value());
  EXPECT_EQ(cache.stats().patches, 1u);
}

// Regression (issue satellite): Relation::Clear() breaks delta history —
// a cached result over the cleared base must invalidate, not serve the
// pre-Clear tuples.
TEST_F(ResultCacheTest, ClearedBaseInvalidatesInsteadOfServingStale) {
  ResultCache cache;
  Fill(&cache, "k", 1, T(0));
  Relation* r = db_.GetRelation("R").value();
  r->Clear();
  ASSERT_TRUE(r->Insert(Tuple{7}, Timestamp::Infinity()).ok());
  EXPECT_FALSE(cache.Lookup("k", db_, T(1)).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);  // dropped, not retried forever
}

TEST_F(ResultCacheTest, RecreatedBaseMissesOnInstanceId) {
  ResultCache cache;
  Fill(&cache, "k", 1, T(0));
  ASSERT_TRUE(db_.DropRelation("R").ok());
  Relation* r =
      db_.CreateRelation("R", Schema({{"a", ValueType::kInt64}})).value();
  ASSERT_TRUE(r->Insert(Tuple{9}, Timestamp::Infinity()).ok());
  EXPECT_FALSE(cache.Lookup("k", db_, T(1)).has_value());
}

TEST_F(ResultCacheTest, LapsedEntryMisses) {
  // R -exp S has a finite texp: tuple 1 of S expires at 5, so the cached
  // difference is only valid on [0, 5).
  Relation* s =
      db_.CreateRelation("S", Schema({{"a", ValueType::kInt64}})).value();
  ASSERT_TRUE(s->Insert(Tuple{1}, T(5)).ok());
  PhysicalPlanPtr plan =
      Planner::Plan(Difference(Base("R"), Base("S")), db_, PlannerOptions{})
          .value();
  NodeCapture capture;
  MaterializedResult result =
      ExecutePlan(*plan, db_, T(0), plan->options().eval, nullptr, &capture)
          .value();
  ASSERT_EQ(result.texp, T(5));
  ResultCache cache;
  cache.Insert("k", std::move(plan), &capture, std::move(result), db_,
               T(0));
  EXPECT_TRUE(cache.Lookup("k", db_, T(4)).has_value());
  EXPECT_FALSE(cache.Lookup("k", db_, T(6)).has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST_F(ResultCacheTest, LruEvictionUnderByteBudget) {
  ResultCache cache;
  Fill(&cache, "k1", 1, T(0));
  const size_t one_entry = cache.stats().bytes;
  ASSERT_GT(one_entry, 0u);
  cache.set_max_bytes(one_entry + one_entry / 2);  // room for one and a half
  Fill(&cache, "k2", 2, T(0));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.Lookup("k1", db_, T(1)).has_value());
  EXPECT_TRUE(cache.Lookup("k2", db_, T(1)).has_value());
}

TEST_F(ResultCacheTest, ZeroBudgetDisablesTheCache) {
  ResultCache cache;
  cache.set_max_bytes(0);
  EXPECT_FALSE(cache.enabled());
  Fill(&cache, "k", 1, T(0));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_FALSE(cache.Lookup("k", db_, T(1)).has_value());
}

using Entries = std::vector<std::pair<Tuple, Timestamp>>;

/// Sorted (tuple, texp) pairs of the tuples live at `now`.
Entries LiveAt(const Relation& r, Timestamp now) {
  return r.UnexpiredAt(now).SortedEntries();
}

/// Fills `cache` with one entry per argument of `skeleton`, inserts
/// `rows` into `table`, and checks that every entry is patched to exactly
/// what a fresh execution of its own binding returns.
void ExpectPatchesMatchFreshExecution(Database* db,
                                      const PhysicalPlanPtr& skeleton,
                                      const std::vector<int64_t>& args,
                                      const std::string& table,
                                      const std::vector<Tuple>& rows) {
  ResultCache cache;
  std::vector<Entries> before;
  for (int64_t arg : args) {
    PhysicalPlanPtr bound = InstantiatePlan(skeleton, {V(arg)}).value();
    NodeCapture capture;
    MaterializedResult result =
        ExecutePlan(*bound, *db, T(0), {}, nullptr, &capture).value();
    before.push_back(LiveAt(result.relation, T(0)));
    cache.Insert(std::to_string(arg), bound, &capture, std::move(result),
                 *db, T(0));
  }
  ASSERT_EQ(cache.stats().entries, args.size());
  Relation* rel = db->GetRelation(table).value();
  for (const Tuple& row : rows) {
    ASSERT_TRUE(rel->Insert(row, Timestamp::Infinity()).ok());
  }
  for (size_t i = 0; i < args.size(); ++i) {
    SCOPED_TRACE("argument " + std::to_string(args[i]));
    auto patched = cache.Lookup(std::to_string(args[i]), *db, T(1));
    ASSERT_TRUE(patched.has_value());
    PhysicalPlanPtr bound = InstantiatePlan(skeleton, {V(args[i])}).value();
    MaterializedResult fresh = ExecutePlan(*bound, *db, T(1)).value();
    EXPECT_EQ(LiveAt(patched->relation, T(1)), LiveAt(fresh.relation, T(1)));
    // Only the entry whose own argument the inserts match changes.
    EXPECT_EQ(LiveAt(patched->relation, T(1)) != before[i], i == 0);
  }
  EXPECT_EQ(cache.stats().patches, args.size());
}

// σ_{b = ?1}(P): the insert matches the first entry's argument only.
TEST_F(ResultCacheTest, PatchedSelectionUsesTheEntrysOwnArgument) {
  const Schema ab({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}});
  Relation* p = db_.CreateRelation("P", ab).value();
  ASSERT_TRUE(p->Insert(Tuple{1, 10}, Timestamp::Infinity()).ok());
  ASSERT_TRUE(p->Insert(Tuple{2, 20}, Timestamp::Infinity()).ok());
  const Operand b = Operand::Column(1);
  const Operand arg = Operand::Parameter(0);
  const Predicate b_is_arg = Predicate::Compare(b, ComparisonOp::kEq, arg);
  PhysicalPlanPtr skeleton =
      Planner::Plan(Select(Base("P"), b_is_arg), db_).value();
  ExpectPatchesMatchFreshExecution(&db_, skeleton, {10, 20}, "P",
                                   {Tuple{3, 10}, Tuple{4, 30}});
}

// L ⋈_{$1 = $3 and $4 = ?1} S: hash join on the key with a parameterized
// residual; the insert into S matches the first entry's argument only.
TEST_F(ResultCacheTest, PatchedJoinResidualUsesTheEntrysOwnArgument) {
  const Schema kx({{"k", ValueType::kInt64}, {"x", ValueType::kInt64}});
  const Schema ky({{"k", ValueType::kInt64}, {"y", ValueType::kInt64}});
  Relation* l = db_.CreateRelation("L", kx).value();
  Relation* s = db_.CreateRelation("S", ky).value();
  for (int64_t k = 1; k <= 3; ++k) {
    ASSERT_TRUE(l->Insert(Tuple{k, 100 * k}, Timestamp::Infinity()).ok());
  }
  ASSERT_TRUE(s->Insert(Tuple{1, 7}, Timestamp::Infinity()).ok());
  ASSERT_TRUE(s->Insert(Tuple{2, 8}, Timestamp::Infinity()).ok());
  const Operand y = Operand::Column(3);
  const Operand arg = Operand::Parameter(0);
  const Predicate y_is_arg = Predicate::Compare(y, ComparisonOp::kEq, arg);
  const Predicate p = Predicate::ColumnsEqual(0, 2).And(y_is_arg);
  PhysicalPlanPtr skeleton =
      Planner::Plan(Join(Base("L"), Base("S"), p), db_).value();
  ASSERT_TRUE(PlanSupportsDelta(*skeleton, skeleton->options().eval));
  ExpectPatchesMatchFreshExecution(&db_, skeleton, {7, 8}, "S",
                                   {Tuple{3, 7}, Tuple{1, 9}});
}

TEST_F(ResultCacheTest, StatementCacheLruAndInvalidation) {
  StatementCache cache(2);
  auto prepared = [&](const std::string& fp) {
    PreparedPlan p;
    p.plan = ParamPlan();
    p.param_count = 1;
    p.fingerprint = fp;
    return p;
  };
  cache.Insert("a", prepared("a"));
  cache.Insert("b", prepared("b"));
  EXPECT_TRUE(cache.Lookup("a").has_value());  // refreshes a over b
  cache.Insert("c", prepared("c"));            // evicts b (LRU)
  EXPECT_FALSE(cache.Lookup("b").has_value());
  EXPECT_TRUE(cache.Lookup("a").has_value());
  EXPECT_TRUE(cache.Lookup("c").has_value());
  // Every skeleton reads R: DDL on R empties the cache.
  cache.InvalidateBase("R");
  EXPECT_EQ(cache.size(), 0u);
}

/// Best-of-three wall time of one UNION chain of `n` branches
/// `SELECT x FROM t WHERE x = k` through Session::Execute, each run with
/// fresh literals (a result-cache miss) on a warm statement cache. The
/// table stays at six rows, so plan size is the only axis that grows.
double BestChainSeconds(int n) {
  sql::Session session;
  const std::string load = "INSERT INTO t VALUES (0), (1), (2), (3), (4), (5)";
  EXPECT_TRUE(session.Execute("CREATE TABLE t (x INT)").ok());
  EXPECT_TRUE(session.Execute(load).ok());
  double best = 1e9;
  for (int run = 0; run < 4; ++run) {
    std::string sql;
    for (int i = 0; i < n; ++i) {
      if (i > 0) sql += " UNION ";
      sql += "SELECT x FROM t WHERE x = " + std::to_string((i + run) % 8);
    }
    const auto t0 = std::chrono::steady_clock::now();
    auto r = session.Execute(sql);
    const std::chrono::duration<double> secs =
        std::chrono::steady_clock::now() - t0;
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    // The first run plans the skeleton; the timed three reuse it.
    if (run > 0) best = std::min(best, secs.count());
  }
  return best;
}

/// Runs `fn` on a thread with a 64 MiB stack and waits for it. Planning
/// and execution recurse once per plan level, and under AddressSanitizer
/// a 1000-branch chain needs more than the default 8 MiB stack.
void RunOnLargeStack(std::function<void()> fn) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, size_t{64} << 20), 0);
  auto trampoline = [](void* arg) -> void* {
    (*static_cast<std::function<void()>*>(arg))();
    return nullptr;
  };
  pthread_t thread;
  ASSERT_EQ(pthread_create(&thread, &attr, trampoline, &fn), 0);
  pthread_join(thread, nullptr);
  pthread_attr_destroy(&attr);
}

// Statement cost grows about linearly with plan size: four times the
// branches must cost well under eight times as much (linear growth gives
// about 4x; the former per-execution plan clone was quadratic to cubic,
// 16x or more). A ratio keeps the check meaningful under sanitizers.
TEST(PlanSizeScalingTest, UnionChainCostGrowsLinearly) {
  double small = 0;
  double large = 0;
  RunOnLargeStack([&] {
    small = BestChainSeconds(250);
    large = BestChainSeconds(1000);
  });
  EXPECT_LT(large, 8 * small) << small << " s vs " << large << " s";
}

}  // namespace
}  // namespace plan
}  // namespace expdb
