// MaintainedResult: one materialized query result kept current across
// explicit base updates — the delta cursor / patch / fallback cycle that
// materialized views and the result cache share (docs/PERFORMANCE.md §6).
// By Theorems 1–2 the materialization equals recomputation at every
// instant in [materialized_at, texp(e)), so while no base moved and
// now < texp(e) it needs no work at all. Refresh policy (when to catch
// up, what to do on failure) stays with the owner.

#ifndef EXPDB_PLAN_MAINTAINED_RESULT_H_
#define EXPDB_PLAN_MAINTAINED_RESULT_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/materialized_result.h"
#include "plan/delta.h"
#include "plan/plan.h"
#include "relational/database.h"

namespace expdb {
namespace plan {

/// The outcome of one MaintainedResult::CatchUp. Everything past
/// kPatched means the result cannot be kept and must be recomputed.
enum class CatchUpOutcome {
  kCurrent,         ///< no base moved and now < texp: serve as is
  kPatched,         ///< base deltas pushed through the propagator
  kLapsed,          ///< now >= texp(e): Theorem 2's window is over
  kBaseMissing,     ///< a base relation no longer exists
  kBaseReplaced,    ///< a base's delta instance id changed
  kHistoryLost,     ///< DeltasSince could not return the stream
  kNotIncremental,  ///< unseeded, or a base moved and no propagator
  kPatchFailed,     ///< the propagator rejected the deltas
};

/// "current", "patched", "lapsed", "base_missing", "base_replaced",
/// "history_lost", "no_propagator" or "patch_failed" (event-log reasons).
std::string_view CatchUpOutcomeToString(CatchUpOutcome outcome);

class MaintainedResult {
 public:
  MaintainedResult() = default;
  MaintainedResult(PhysicalPlanPtr plan, MaterializedResult result)
      : plan_(std::move(plan)), result_(std::move(result)) {}

  /// \brief Called once: enables delta tracking on every base the plan
  /// reads, takes their cursors, and seeds a propagator from `capture`
  /// when non-null (null when the plan is not incrementalizable).
  /// Returns false, and stays unseeded, when a base is missing.
  bool Seed(const Database& db, const NodeCapture* capture);

  /// \brief Brings the result up to `now`. On kPatched the root ops are
  /// applied, texp/materialized_at/validity are restamped from the
  /// propagator and the cursors advance, and `applied` receives the
  /// round's ApplyResult (its helper queue and children_texp matter to
  /// patch-mode views). kPatchFailed discards the propagator.
  CatchUpOutcome CatchUp(const Database& db, Timestamp now,
                         DeltaPropagator::ApplyResult* applied);

  const PhysicalPlanPtr& plan() const { return plan_; }
  const MaterializedResult& result() const { return result_; }
  MaterializedResult* mutable_result() { return &result_; }
  /// True when a seeded propagator can patch this result.
  bool incremental() const { return propagator_ != nullptr; }

 private:
  PhysicalPlanPtr plan_;
  MaterializedResult result_;
  bool seeded_ = false;
  std::vector<std::pair<std::string, Relation::DeltaCursor>> cursors_;
  std::unique_ptr<DeltaPropagator> propagator_;
};

}  // namespace plan
}  // namespace expdb

#endif  // EXPDB_PLAN_MAINTAINED_RESULT_H_
