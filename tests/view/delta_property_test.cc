// Incremental maintenance is invisible in the results.
//
// Two materialized views over the same expression — one maintained by
// pushing recorded base deltas through its cached physical plan
// (Options::incremental = true, the default), one forced onto the full
// recomputation path — must agree exactly (tuples, per-tuple texps, and
// texp(e)) after every step of a randomized interleaving of inserts,
// deletes, texp bumps, and time advances, across all refresh modes and
// operators. The incremental path may fall back to recomputation
// whenever it cannot prove a plan incrementalizable; the property holds
// either way, which is exactly the point: correctness never depends on
// the delta engine firing.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/expression.h"
#include "testing/workload.h"
#include "view/materialized_view.h"

namespace expdb {
namespace {

std::vector<Relation::Entry> SortedEntries(const Relation& r) {
  std::vector<Relation::Entry> out = r.entries();
  std::sort(out.begin(), out.end(),
            [](const Relation::Entry& a, const Relation::Entry& b) {
              if (!(a.tuple == b.tuple)) return a.tuple < b.tuple;
              return a.texp < b.texp;
            });
  return out;
}

void ExpectSameEntries(const Relation& expected, const Relation& actual,
                       const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  const auto lhs = SortedEntries(expected);
  const auto rhs = SortedEntries(actual);
  for (size_t i = 0; i < lhs.size(); ++i) {
    ASSERT_TRUE(lhs[i].tuple == rhs[i].tuple)
        << context << "\ntuple #" << i << ": " << lhs[i].tuple.ToString()
        << " vs " << rhs[i].tuple.ToString();
    ASSERT_EQ(lhs[i].texp, rhs[i].texp)
        << context << "\ntexp of " << lhs[i].tuple.ToString();
  }
}

struct Config {
  uint64_t seed;
  size_t num_tuples;
  size_t max_depth;
  int64_t value_domain;
  RefreshMode mode;
  AggregateExpirationMode agg_mode;
};

class DeltaPropertyTest : public ::testing::TestWithParam<Config> {
 protected:
  void Fill(Database* db, Rng& rng) {
    const Config& cfg = GetParam();
    testing::RelationSpec rspec;
    rspec.num_tuples = cfg.num_tuples;
    rspec.arity = 2;
    rspec.value_domain = cfg.value_domain;
    rspec.ttl_min = 5;
    rspec.ttl_max = 60;
    rspec.infinite_fraction = 0.15;
    ASSERT_TRUE(testing::FillDatabase(db, rng, rspec, 3).ok());
  }

  /// One random mutation against a random base relation: an insert of a
  /// fresh tuple, a re-insert of an existing tuple with a longer TTL (a
  /// texp bump under Insert's max-merge), or a delete of an existing
  /// tuple. All go through the Database mutators so they land in the
  /// delta rings the incremental view reads.
  void Mutate(Database* db, Rng& rng, Timestamp now) {
    const Config& cfg = GetParam();
    const std::string name = "R" + std::to_string(rng.UniformInt(0, 2));
    Relation* rel = db->GetRelation(name).value();
    const double roll = rng.UniformDouble();
    if (roll < 0.5 || rel->size() == 0) {
      Tuple t{rng.UniformInt(0, cfg.value_domain - 1),
              rng.UniformInt(0, cfg.value_domain - 1)};
      // Mostly future expirations; sometimes ∞, sometimes already dead
      // (an insert invisible to every expτ reader — must be a no-op).
      Timestamp texp = Timestamp(now.ticks() + rng.UniformInt(0, 25));
      if (rng.Bernoulli(0.1)) texp = Timestamp::Infinity();
      ASSERT_TRUE(db->Insert(name, std::move(t), texp).ok());
      return;
    }
    const std::vector<Relation::Entry> entries = rel->entries();
    const Relation::Entry& victim =
        entries[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(entries.size()) - 1))];
    if (roll < 0.75 && !victim.texp.IsInfinite()) {
      // Texp bump: recorded as delete(t, old) + insert(t, new).
      ASSERT_TRUE(db->Insert(name, victim.tuple,
                             Timestamp(victim.texp.ticks() +
                                       rng.UniformInt(1, 20)))
                      .ok());
    } else {
      ASSERT_TRUE(db->Erase(name, victim.tuple).ok());
    }
  }

  MaterializedView::Options Options(bool incremental) const {
    const Config& cfg = GetParam();
    MaterializedView::Options opts;
    opts.mode = cfg.mode;
    opts.eval.aggregate_mode = cfg.agg_mode;
    opts.incremental = incremental;
    return opts;
  }

  /// Runs the interleaving against `expr` and checks the two views agree
  /// after every step.
  void Run(Database* db, Rng& rng, const ExpressionPtr& expr) {
    MaterializedView incremental(expr, Options(true));
    MaterializedView recompute(expr, Options(false));
    ASSERT_TRUE(incremental.Initialize(*db, Timestamp(0)).ok());
    ASSERT_TRUE(recompute.Initialize(*db, Timestamp(0)).ok());

    Timestamp now(0);
    for (int step = 0; step < 40; ++step) {
      const int mutations = static_cast<int>(rng.UniformInt(0, 3));
      for (int m = 0; m < mutations; ++m) Mutate(db, rng, now);
      if (mutations > 0) {
        incremental.MarkStale();
        recompute.MarkStale();
      }
      now = Timestamp(now.ticks() + rng.UniformInt(0, 5));

      const std::string context =
          "expression: " + expr->ToString() + "\nmode: " +
          std::string(RefreshModeToString(GetParam().mode)) + "\nstep " +
          std::to_string(step) + " at t=" + std::to_string(now.ticks());
      ASSERT_TRUE(incremental.AdvanceTo(*db, now).ok()) << context;
      ASSERT_TRUE(recompute.AdvanceTo(*db, now).ok()) << context;
      auto inc_read = incremental.Read(*db, now);
      ASSERT_TRUE(inc_read.ok()) << inc_read.status().ToString() << "\n"
                                 << context;
      auto rec_read = recompute.Read(*db, now);
      ASSERT_TRUE(rec_read.ok()) << rec_read.status().ToString() << "\n"
                                 << context;
      ExpectSameEntries(*rec_read, *inc_read, context);
      EXPECT_EQ(incremental.texp(), recompute.texp()) << context;
    }
  }
};

TEST_P(DeltaPropertyTest, IncrementalMatchesRecomputeOnRandomExpressions) {
  Rng rng(GetParam().seed);
  for (int trial = 0; trial < 4; ++trial) {
    Database db;
    Fill(&db, rng);
    testing::ExpressionSpec espec;
    espec.max_depth = GetParam().max_depth;
    espec.allow_nonmonotonic = true;
    ExpressionPtr e = testing::MakeRandomExpression(rng, db, espec);
    if (GetParam().mode == RefreshMode::kPatchDifference) {
      // Patch mode requires a difference root; the random expression
      // becomes its subtrahend side when arities line up, else we fall
      // back to a plain base difference.
      ExpressionPtr minuend = Expression::MakeUnion(
          Expression::MakeBase("R0"), Expression::MakeBase("R1"));
      auto schema = e->InferSchema(db);
      e = (schema.ok() && schema->arity() == 2)
              ? Expression::MakeDifference(std::move(minuend),
                                           std::move(e))
              : Expression::MakeDifference(std::move(minuend),
                                           Expression::MakeBase("R2"));
    }
    Run(&db, rng, e);
  }
}

/// A deterministic anchor: on a plan the delta engine provably supports,
/// the incremental view must actually take the delta path (no silent
/// fallback masking a vacuous sweep) and still match recomputation.
/// Validity tracking is out of the delta engine's scope by design, so a
/// Schrödinger view must instead fall back on every stale round.
TEST_P(DeltaPropertyTest, SupportedPlanExercisesTheDeltaPath) {
  constexpr int kRounds = 25;
  Rng rng(GetParam().seed * 7919 + 1);
  Database db;
  Fill(&db, rng);

  using namespace algebra;  // NOLINT
  ExpressionPtr e =
      GetParam().mode == RefreshMode::kPatchDifference
          ? Difference(Base("R0"), Base("R1"))
          : Select(Union(Base("R0"), Base("R1")),
                   Predicate::Compare(
                       Operand::Column(0), ComparisonOp::kGe,
                       Operand::Constant(Value(int64_t{0}))));

  MaterializedView incremental(e, Options(true));
  MaterializedView recompute(e, Options(false));
  ASSERT_TRUE(incremental.Initialize(db, Timestamp(0)).ok());
  ASSERT_TRUE(recompute.Initialize(db, Timestamp(0)).ok());

  Timestamp now(0);
  for (int step = 0; step < kRounds; ++step) {
    Mutate(&db, rng, now);
    incremental.MarkStale();
    recompute.MarkStale();
    now = Timestamp(now.ticks() + 1);
    const std::string context = "step " + std::to_string(step);
    ASSERT_TRUE(incremental.AdvanceTo(db, now).ok()) << context;
    ASSERT_TRUE(recompute.AdvanceTo(db, now).ok()) << context;
    auto inc_read = incremental.Read(db, now);
    ASSERT_TRUE(inc_read.ok()) << inc_read.status().ToString();
    auto rec_read = recompute.Read(db, now);
    ASSERT_TRUE(rec_read.ok()) << rec_read.status().ToString();
    ExpectSameEntries(*rec_read, *inc_read, context);
    EXPECT_EQ(incremental.texp(), recompute.texp()) << context;
  }

  // The whole point of the sweep: the incremental view really maintained
  // itself from deltas (texp(e) lapses may still force occasional
  // recomputes), and the forced-recompute twin never did. Every round
  // marked both views stale once.
  if (GetParam().mode == RefreshMode::kSchrodinger) {
    EXPECT_EQ(incremental.stats().delta_applies, 0u);
    EXPECT_EQ(incremental.stats().delta_fallbacks, uint64_t{kRounds});
  } else {
    EXPECT_GT(incremental.stats().delta_applies, 0u);
  }
  EXPECT_EQ(recompute.stats().delta_applies, 0u);
  EXPECT_EQ(recompute.stats().delta_fallbacks, uint64_t{kRounds});
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DeltaPropertyTest,
    ::testing::Values(
        Config{301, 50, 3, 6, RefreshMode::kEagerRecompute,
               AggregateExpirationMode::kConservative},
        Config{302, 50, 4, 4, RefreshMode::kEagerRecompute,
               AggregateExpirationMode::kExact},
        Config{303, 80, 3, 8, RefreshMode::kLazyRecompute,
               AggregateExpirationMode::kContributingSet},
        Config{304, 40, 4, 3, RefreshMode::kSchrodinger,
               AggregateExpirationMode::kExact},
        Config{305, 60, 3, 5, RefreshMode::kPatchDifference,
               AggregateExpirationMode::kExact}),
    [](const ::testing::TestParamInfo<Config>& info) {
      std::string mode(RefreshModeToString(info.param.mode));
      std::replace(mode.begin(), mode.end(), '-', '_');
      return "seed" + std::to_string(info.param.seed) + "_" + mode;
    });

}  // namespace
}  // namespace expdb
