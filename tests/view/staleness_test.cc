// Explicit base updates vs. views: the paper assumes no source updates
// (Sec. 1); ExpDB lifts this incrementally — an explicit insert/delete
// marks every dependent view stale, and the next maintenance point
// applies the recorded base deltas through the cached plan (or rebuilds
// when the incremental path is unavailable), so reads never serve
// update-invalidated contents. Set-identity of the two maintenance
// paths is swept in delta_property_test.cc; these tests pin the
// staleness protocol itself.

#include <string>

#include <gtest/gtest.h>

#include "core/eval.h"
#include "obs/log.h"
#include "sql/session.h"
#include "view/view_manager.h"

namespace expdb {
namespace {

using namespace algebra;  // NOLINT

Timestamp T(int64_t t) { return Timestamp(t); }

TEST(StalenessTest, MarkStaleForcesRecomputeOnNextRead) {
  Database db;
  Relation* r = db.CreateRelation(
                       "R", Schema({{"x", ValueType::kInt64}})).value();
  ASSERT_TRUE(r->Insert(Tuple{1}, T(100)).ok());

  MaterializedView view(Base("R"), {});
  ASSERT_TRUE(view.Initialize(db, T(0)).ok());
  // Out-of-band insert the view cannot see through expiration.
  ASSERT_TRUE(r->Insert(Tuple{2}, T(100)).ok());
  auto before = view.Read(db, T(1)).MoveValue();
  EXPECT_EQ(before.size(), 1u);  // still serving the old materialization

  view.MarkStale();
  EXPECT_TRUE(view.stale());
  auto after = view.Read(db, T(2)).MoveValue();
  EXPECT_EQ(after.size(), 2u);
  EXPECT_FALSE(view.stale());
  EXPECT_EQ(view.stats().recomputations, 1u);
}

TEST(StalenessTest, NotifyBaseChangedTargetsOnlyDependents) {
  Database db;
  (void)db.CreateRelation("A", Schema({{"x", ValueType::kInt64}}));
  (void)db.CreateRelation("B", Schema({{"x", ValueType::kInt64}}));
  ViewManager mgr(&db);
  ASSERT_TRUE(mgr.CreateView("va", Base("A"), {}, T(0)).ok());
  ASSERT_TRUE(mgr.CreateView("vb", Base("B"), {}, T(0)).ok());
  ASSERT_TRUE(
      mgr.CreateView("vab", Union(Base("A"), Base("B")), {}, T(0)).ok());

  EXPECT_EQ(mgr.NotifyBaseChanged("A"), 2u);  // va and vab
  EXPECT_TRUE(mgr.GetView("va").value()->stale());
  EXPECT_FALSE(mgr.GetView("vb").value()->stale());
  EXPECT_TRUE(mgr.GetView("vab").value()->stale());
  EXPECT_EQ(mgr.NotifyBaseChanged("nonexistent"), 0u);
}

TEST(StalenessTest, SqlInsertRefreshesDependentViews) {
  sql::Session s;
  ASSERT_TRUE(s.Execute("CREATE TABLE t (x INT)").ok());
  ASSERT_TRUE(s.Execute("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(s.Execute("CREATE VIEW v AS SELECT x FROM t").ok());
  // Insert after view creation: the view must reflect it on next read.
  ASSERT_TRUE(s.Execute("INSERT INTO t VALUES (2)").ok());
  auto r = s.Execute("SELECT * FROM v");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->relation->CountUnexpiredAt(r->served_at), 2u);
}

TEST(StalenessTest, SqlDeleteRefreshesDependentViews) {
  sql::Session s;
  ASSERT_TRUE(s.Execute("CREATE TABLE t (x INT)").ok());
  ASSERT_TRUE(s.Execute("INSERT INTO t VALUES (1), (2), (3)").ok());
  ASSERT_TRUE(s.Execute("CREATE VIEW v AS SELECT x FROM t").ok());
  ASSERT_TRUE(s.Execute("DELETE FROM t WHERE x = 2").ok());
  auto r = s.Execute("SELECT * FROM v");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->relation->CountUnexpiredAt(r->served_at), 2u);
  EXPECT_FALSE(r->relation->Contains(Tuple{2}));
}

TEST(StalenessTest, DropTableWithDependentViewRejected) {
  sql::Session s;
  ASSERT_TRUE(s.Execute("CREATE TABLE t (x INT)").ok());
  ASSERT_TRUE(s.Execute("CREATE VIEW v AS SELECT x FROM t").ok());
  auto r = s.Execute("DROP TABLE t");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // Dropping the view first unblocks the table.
  ASSERT_TRUE(s.Execute("DROP VIEW v").ok());
  EXPECT_TRUE(s.Execute("DROP TABLE t").ok());
}

TEST(StalenessTest, StalePatchViewRebuildsHelper) {
  Database db;
  Relation* r = db.CreateRelation(
                       "R", Schema({{"x", ValueType::kInt64}})).value();
  Relation* q = db.CreateRelation(
                       "S", Schema({{"x", ValueType::kInt64}})).value();
  ASSERT_TRUE(r->Insert(Tuple{1}, T(50)).ok());

  MaterializedView::Options opts;
  opts.mode = RefreshMode::kPatchDifference;
  MaterializedView view(Difference(Base("R"), Base("S")), opts);
  ASSERT_TRUE(view.Initialize(db, T(0)).ok());
  EXPECT_EQ(view.pending_patches(), 0u);

  // A new critical pair arrives via explicit update.
  ASSERT_TRUE(r->Insert(Tuple{2}, T(40)).ok());
  ASSERT_TRUE(q->Insert(Tuple{2}, T(10)).ok());
  view.MarkStale();

  auto at5 = view.Read(db, T(5)).MoveValue();
  EXPECT_EQ(at5.size(), 1u);  // <2> suppressed by S until 10
  EXPECT_EQ(view.pending_patches(), 1u);  // helper rebuilt with <2>
  auto at12 = view.Read(db, T(12)).MoveValue();
  EXPECT_EQ(at12.size(), 2u);  // <2> patched back in
}

/// A break in a base's delta cursor, and the fallback reason it must
/// produce.
struct CursorBreak {
  const char* name;
  bool replace;  ///< Database::PutRelation (new instance id), else Clear()
  const char* reason;
};

class CursorBreakTest : public ::testing::TestWithParam<CursorBreak> {};

/// The view-side twin of ResultCacheTest's cleared/recreated-base cases:
/// a seeded incremental view whose base history is gone must recompute,
/// never patch from a stream that does not describe its seed state.
TEST_P(CursorBreakTest, SeededViewFallsBackToRecompute) {
  Database db;
  ASSERT_TRUE(
      db.CreateRelation("R", Schema({{"x", ValueType::kInt64}})).ok());
  for (int64_t x = 1; x <= 4; ++x) {
    ASSERT_TRUE(db.Insert("R", Tuple{x}, T(100)).ok());
  }
  const ExpressionPtr expr = Base("R");
  MaterializedView view(expr, {});
  ASSERT_TRUE(view.Initialize(db, T(0)).ok());
  // The first explicit update recomputes and seeds; the second one takes
  // the delta path, proving the view is seeded.
  for (int64_t x : {5, 6}) {
    ASSERT_TRUE(db.Insert("R", Tuple{x}, T(100)).ok());
    view.MarkStale();
    ASSERT_TRUE(view.Read(db, T(x - 4)).ok());
  }
  ASSERT_EQ(view.stats().delta_applies, 1u);
  ASSERT_EQ(view.stats().delta_fallbacks, 1u);

  // Three tuples: the size stays within 2× of the plan-time four, so no
  // re-plan masks the cursor break.
  if (GetParam().replace) {
    Relation fresh(Schema({{"x", ValueType::kInt64}}));
    for (int64_t x : {7, 8, 9}) ASSERT_TRUE(fresh.Insert(Tuple{x}, T(50)).ok());
    ASSERT_TRUE(db.DropRelation("R").ok());
    ASSERT_TRUE(db.PutRelation("R", std::move(fresh)).ok());
  } else {
    Relation* r = db.GetRelation("R").value();
    r->Clear();
    for (int64_t x : {7, 8, 9}) ASSERT_TRUE(r->Insert(Tuple{x}, T(50)).ok());
  }

  obs::EventLog& log = obs::EventLog::Global();
  const bool was_enabled = log.enabled();
  log.Clear();
  log.set_enabled(true);
  view.MarkStale();
  auto read = view.Read(db, T(3));
  log.set_enabled(was_enabled);
  ASSERT_TRUE(read.ok()) << read.status().ToString();

  EXPECT_EQ(view.stats().delta_applies, 1u);
  EXPECT_EQ(view.stats().delta_fallbacks, 2u);
  auto fresh = Evaluate(expr, db, T(3));
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(Relation::EqualAt(fresh->relation, *read, T(3)));
  EXPECT_EQ(view.texp(), fresh->texp);

  std::string reason;
  for (const obs::LogEvent& e : log.Snapshot()) {
    if (e.component != "view" || e.event != "delta_fallback") continue;
    for (const auto& [key, value] : e.fields) {
      if (key == "reason") reason = value;
    }
  }
  log.Clear();
  EXPECT_EQ(reason, GetParam().reason);
}

INSTANTIATE_TEST_SUITE_P(
    Breaks, CursorBreakTest,
    ::testing::Values(CursorBreak{"cleared", false, "history_lost"},
                      CursorBreak{"replaced", true, "base_replaced"}),
    [](const ::testing::TestParamInfo<CursorBreak>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace expdb
