#include "plan/maintained_result.h"

namespace expdb {
namespace plan {

std::string_view CatchUpOutcomeToString(CatchUpOutcome outcome) {
  static constexpr std::string_view kNames[] = {
      "current",       "patched",       "lapsed",        "base_missing",
      "base_replaced", "history_lost",  "no_propagator", "patch_failed"};
  return kNames[static_cast<size_t>(outcome)];
}

bool MaintainedResult::Seed(const Database& db, const NodeCapture* capture) {
  for (const std::string& name : plan_->planned_expr()->BaseRelationNames()) {
    auto rel = db.GetRelation(name);
    if (!rel.ok()) {
      cursors_.clear();
      return false;
    }
    // Without tracking the cursors would never move and a drifted base
    // would look current; enabling is idempotent and metadata-only
    // (allowed through const access).
    rel.value()->EnableDeltaTracking();
    cursors_.emplace_back(name, rel.value()->delta_cursor());
  }
  if (capture != nullptr) {
    propagator_ =
        DeltaPropagator::Create(plan_, *capture, plan_->options().eval);
  }
  seeded_ = true;
  return true;
}

CatchUpOutcome MaintainedResult::CatchUp(
    const Database& db, Timestamp now, DeltaPropagator::ApplyResult* applied) {
  if (!seeded_) return CatchUpOutcome::kNotIncremental;
  // The propagator's cached analyses (aggregate partitions, difference
  // criticals) are only valid while the materialization is.
  if (!(now < result_.texp)) return CatchUpOutcome::kLapsed;
  std::vector<BaseDelta> deltas;
  for (const auto& [name, cursor] : cursors_) {
    auto rel = db.GetRelation(name);
    if (!rel.ok()) return CatchUpOutcome::kBaseMissing;
    const Relation* base = rel.value();
    // A different instance id means a different body of data now lives
    // under the name; its stream does not describe the seed state.
    if (base->delta_instance_id() == 0 ||
        base->delta_instance_id() != cursor.instance_id) {
      return CatchUpOutcome::kBaseReplaced;
    }
    if (base->delta_epoch() == cursor.epoch) continue;
    if (propagator_ == nullptr) return CatchUpOutcome::kNotIncremental;
    auto batches = base->DeltasSince(cursor.epoch);
    if (!batches.has_value()) return CatchUpOutcome::kHistoryLost;
    deltas.push_back({name, std::move(*batches)});
  }
  if (deltas.empty()) return CatchUpOutcome::kCurrent;
  auto round = propagator_->Apply(deltas, now);
  if (!round.ok()) {
    // The propagator's state may be mid-update.
    propagator_.reset();
    return CatchUpOutcome::kPatchFailed;
  }
  DeltaPropagator::ApplyOps(round.value().root_ops, &result_.relation);
  result_.texp = round.value().texp;
  result_.materialized_at = now;
  result_.validity = IntervalSet(now, result_.texp);
  for (auto& [name, cursor] : cursors_) {
    cursor = db.GetRelation(name).value()->delta_cursor();
  }
  *applied = round.MoveValue();
  return CatchUpOutcome::kPatched;
}

}  // namespace plan
}  // namespace expdb
