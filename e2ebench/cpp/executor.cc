#include "executor.h"

#include <optional>
#include <set>
#include <unordered_set>
#include <utility>
#include <variant>

#include "core/predicate.h"
#include "engine/maintenance.h"
#include "obs/trace.h"
#include "plan/cache.h"
#include "plan/delta.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "sql/binder.h"
#include "sql/normalize.h"
#include "sql/parser.h"

namespace e2ebench {

using expdb::Relation;
using expdb::Result;
using expdb::Status;
using expdb::Timestamp;
using expdb::sql::ExecResult;

void LayerTimes::Add(const LayerTimes& o) {
  parse += o.parse;
  normalize += o.normalize;
  stmt_cache += o.stmt_cache;
  bind += o.bind;
  plan += o.plan;
  instantiate += o.instantiate;
  execute += o.execute;
  rc_lookup += o.rc_lookup;
  rc_fill += o.rc_fill;
  snapshot_wait += o.snapshot_wait;
  write_wait += o.write_wait;
  exclusive_wait += o.exclusive_wait;
  exp_insert += o.exp_insert;
  exp_advance += o.exp_advance;
  delete_scan += o.delete_scan;
  view_read += o.view_read;
  view_advance += o.view_advance;
  view_notify += o.view_notify;
  maintenance += o.maintenance;
  compact += o.compact;
  statement += o.statement;
  plans += o.plans;
  plan_nodes += o.plan_nodes;
}

int64_t LayerTimes::Unattributed() const {
  return statement -
         (parse + normalize + stmt_cache + bind + plan + instantiate + execute +
          rc_lookup + rc_fill + snapshot_wait + write_wait + exclusive_wait +
          exp_insert + exp_advance + delete_scan + view_read + view_advance +
          view_notify + maintenance);
}

namespace {

/// A span at one layer boundary: recorded in the program's trace ring
/// (so spans the program opens inside nest under it) and added to the
/// layer's busy-time total.
class LayerSpan {
 public:
  LayerSpan(const char* name, int64_t* total) : span_(name), total_(total) {}
  ~LayerSpan() { *total_ += span_.ElapsedNs(); }

  uint64_t trace_id() const { return span_.trace_id(); }

  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  expdb::obs::ScopedSpan span_;
  int64_t* total_;
};

// The two helpers below repeat what sql::Session does privately, so that
// the call-by-call path does the same work as Session::Execute.

std::vector<std::string> UniquifyNames(std::vector<std::string> names) {
  std::unordered_set<std::string> seen;
  for (std::string& name : names) {
    std::string candidate = name;
    int suffix = 2;
    while (!seen.insert(candidate).second) {
      candidate = name + "." + std::to_string(suffix++);
    }
    name = candidate;
  }
  return names;
}

void CollectFromNames(const expdb::sql::SelectStatement& stmt,
                      std::set<std::string>* out) {
  for (const expdb::sql::TableRef& ref : stmt.from) out->insert(ref.name);
  if (stmt.set_rhs != nullptr) CollectFromNames(*stmt.set_rhs, out);
}

}  // namespace

TracedExecutor::TracedExecutor(expdb::engine::Engine* engine,
                               size_t parallelism, LayerTimes* layers)
    : engine_(engine), layers_(layers) {
  eval_.parallelism = parallelism;
}

Result<ExecResult> TracedExecutor::Run(const std::string& sql) {
  LayerSpan statement("bench.statement", &layers_->statement);
  Result<expdb::sql::Statement> parsed = [&] {
    LayerSpan span("sql.parse", &layers_->parse);
    return expdb::sql::ParseStatement(sql);
  }();
  if (!parsed.ok()) return parsed.status();
  const expdb::sql::Statement& stmt = parsed.value();
  if (const auto* s = std::get_if<expdb::sql::SelectStatement>(&stmt)) {
    return Select(*s);
  }
  if (const auto* s =
          std::get_if<expdb::sql::ExecutePreparedStatement>(&stmt)) {
    return RunPrepared(*s);
  }
  if (const auto* s = std::get_if<expdb::sql::InsertStatement>(&stmt)) {
    return Insert(*s);
  }
  if (const auto* s = std::get_if<expdb::sql::DeleteStatement>(&stmt)) {
    return Delete(*s);
  }
  if (const auto* s = std::get_if<expdb::sql::AdvanceStatement>(&stmt)) {
    return Advance(*s);
  }
  if (const auto* s = std::get_if<expdb::sql::MaintenanceStatement>(&stmt);
      s != nullptr &&
      s->what == expdb::sql::MaintenanceStatement::What::kRun) {
    return Maintenance(statement.trace_id());
  }
  return Status::InvalidArgument("not a timed-phase statement: " + sql);
}

Result<ExecResult> TracedExecutor::Select(
    const expdb::sql::SelectStatement& stmt) {
  expdb::ViewManager& views = engine_->views();
  if (stmt.from.size() == 1 && views.HasView(stmt.from[0].name) &&
      stmt.items.size() == 1 &&
      stmt.items[0].kind == expdb::sql::SelectItem::Kind::kStar &&
      stmt.where == nullptr && stmt.group_by.empty() &&
      stmt.set_op == expdb::sql::SelectStatement::SetOp::kNone) {
    return ViewRead(stmt.from[0].name);
  }
  std::set<std::string> from_names;
  CollectFromNames(stmt, &from_names);
  for (const std::string& name : from_names) {
    if (views.HasView(name)) {
      return Status::InvalidArgument("query over view " + name +
                                     " is not issued by the benchmark");
    }
  }
  expdb::engine::Engine::Snapshot snap;
  {
    LayerSpan span("engine.open_snapshot", &layers_->snapshot_wait);
    snap = engine_->OpenSnapshot(from_names);
  }
  const Timestamp now = engine_->Now();
  Result<expdb::sql::NormalizedSelect> norm = [&] {
    LayerSpan span("sql.normalize", &layers_->normalize);
    return expdb::sql::NormalizeSelect(stmt);
  }();
  if (!norm.ok()) return norm.status();
  std::optional<expdb::plan::PreparedPlan> skeleton;
  {
    LayerSpan span("plan.stmt_cache.lookup", &layers_->stmt_cache);
    skeleton = engine_->stmt_cache().Lookup(norm->fingerprint);
  }
  if (!skeleton.has_value()) {
    Result<expdb::sql::BoundSelect> bound = [&] {
      LayerSpan span("sql.bind", &layers_->bind);
      return expdb::sql::BindSelect(norm->select, engine_->db());
    }();
    if (!bound.ok()) return bound.status();
    expdb::plan::PlannerOptions options;
    options.eval = eval_;
    Result<expdb::plan::PhysicalPlanPtr> planned = [&] {
      LayerSpan span("plan.planner", &layers_->plan);
      return expdb::plan::Planner::Plan(bound->expr, engine_->db(), options);
    }();
    if (!planned.ok()) return planned.status();
    expdb::plan::PreparedPlan fresh;
    fresh.plan = std::move(planned).MoveValue();
    fresh.param_count = norm->args.size();
    fresh.fingerprint = norm->fingerprint;
    fresh.column_names = std::move(bound->column_names);
    ++layers_->plans;
    layers_->plan_nodes += fresh.plan->node_count();
    {
      LayerSpan span("plan.stmt_cache.insert", &layers_->stmt_cache);
      engine_->stmt_cache().Insert(norm->fingerprint, fresh);
    }
    skeleton = std::move(fresh);
  }
  return Planned(*skeleton, norm->args, now);
}

Result<ExecResult> TracedExecutor::Planned(
    const expdb::plan::PreparedPlan& prepared,
    const std::vector<expdb::Value>& args, Timestamp now) {
  expdb::plan::ResultCache& cache = engine_->result_cache();
  const std::string key = expdb::plan::ResultCacheKey(prepared.fingerprint, args);
  if (cache.enabled()) {
    std::optional<expdb::MaterializedResult> cached;
    {
      LayerSpan span("plan.result_cache.lookup", &layers_->rc_lookup);
      cached = cache.Lookup(key, engine_->db(), now);
    }
    if (cached.has_value()) {
      ExecResult out;
      out.relation = cached->relation.UnexpiredAt(now);
      out.served_at = now;
      out.message = "ok (cached)";
      return out;
    }
  }
  Result<expdb::plan::PhysicalPlanPtr> bound = [&] {
    LayerSpan span("plan.instantiate", &layers_->instantiate);
    return expdb::plan::InstantiatePlan(prepared.plan, args);
  }();
  if (!bound.ok()) return bound.status();
  expdb::plan::NodeCapture capture;
  expdb::plan::NodeCapture* capture_ptr =
      cache.enabled() && expdb::plan::PlanSupportsDelta(**bound, eval_)
          ? &capture
          : nullptr;
  Result<expdb::MaterializedResult> executed = [&] {
    LayerSpan span("plan.execute", &layers_->execute);
    return expdb::plan::ExecutePlan(**bound, engine_->db(), now, eval_,
                                    nullptr, capture_ptr);
  }();
  if (!executed.ok()) return executed.status();
  expdb::MaterializedResult result = std::move(executed).MoveValue();
  EXPDB_RETURN_NOT_OK(result.relation.RenameAttributes(
      UniquifyNames(prepared.column_names)));
  ExecResult out;
  out.relation = result.relation;
  out.served_at = now;
  out.message = "ok";
  if (cache.enabled()) {
    LayerSpan span("plan.result_cache.insert", &layers_->rc_fill);
    cache.Insert(key, std::move(bound).MoveValue(), capture_ptr,
                 std::move(result), engine_->db(), now);
  }
  return out;
}

Result<ExecResult> TracedExecutor::ViewRead(const std::string& view) {
  expdb::engine::Engine::ExclusiveGuard guard;
  {
    LayerSpan span("engine.lock_exclusive", &layers_->exclusive_wait);
    guard = engine_->LockExclusive();
  }
  const Timestamp now = engine_->Now();
  ExecResult out;
  out.served_at = now;
  Result<Relation> rel = [&] {
    LayerSpan span("view.read", &layers_->view_read);
    return engine_->views().Read(view, now, &out.served_at);
  }();
  if (!rel.ok()) return rel.status();
  Relation relation = std::move(rel).MoveValue();
  auto names = engine_->GetViewColumns(view);
  if (names.has_value()) {
    EXPDB_RETURN_NOT_OK(relation.RenameAttributes(UniquifyNames(*names)));
  }
  out.relation = std::move(relation);
  out.message = "view " + view;
  return out;
}

Result<ExecResult> TracedExecutor::RunPrepared(
    const expdb::sql::ExecutePreparedStatement& stmt) {
  std::optional<expdb::plan::PreparedPlan> prepared;
  {
    LayerSpan span("plan.prepared.lookup", &layers_->stmt_cache);
    prepared = engine_->GetPrepared(stmt.name);
  }
  if (!prepared.has_value()) {
    return Status::NotFound("no prepared statement named '" + stmt.name + "'");
  }
  if (stmt.args.size() != prepared->param_count) {
    return Status::InvalidArgument("EXECUTE " + stmt.name +
                                   ": wrong argument count");
  }
  expdb::engine::Engine::Snapshot snap;
  {
    LayerSpan span("engine.open_snapshot", &layers_->snapshot_wait);
    snap = engine_->OpenSnapshot(
        prepared->plan->planned_expr()->BaseRelationNames());
  }
  return Planned(*prepared, stmt.args, engine_->Now());
}

Result<ExecResult> TracedExecutor::Insert(
    const expdb::sql::InsertStatement& stmt) {
  expdb::engine::Engine::WriteGuard guard;
  {
    LayerSpan span("engine.lock_write", &layers_->write_wait);
    guard = engine_->LockWrite(stmt.table);
  }
  const Timestamp now = engine_->Now();
  Timestamp texp = Timestamp::Infinity();
  if (stmt.expire_at.has_value()) {
    texp = *stmt.expire_at;
  } else if (stmt.ttl.has_value()) {
    texp = now + *stmt.ttl;
  }
  size_t inserted = 0;
  {
    LayerSpan span("expiration.insert", &layers_->exp_insert);
    for (const std::vector<expdb::Value>& row : stmt.rows) {
      expdb::Tuple tuple(row);
      EXPDB_RETURN_NOT_OK(engine_->constraints().CheckInsert(stmt.table, tuple));
      EXPDB_RETURN_NOT_OK(
          engine_->expiration().Insert(stmt.table, std::move(tuple), texp));
      ++inserted;
    }
  }
  {
    LayerSpan span("view.notify", &layers_->view_notify);
    engine_->views().NotifyBaseChanged(stmt.table);
  }
  return ExecResult{std::to_string(inserted) +
                        (inserted == 1 ? " row" : " rows") +
                        " inserted into " + stmt.table + " (expire at " +
                        texp.ToString() + ")",
                    std::nullopt, now};
}

Result<ExecResult> TracedExecutor::Delete(
    const expdb::sql::DeleteStatement& stmt) {
  expdb::engine::Engine::WriteGuard guard;
  {
    LayerSpan span("engine.lock_write", &layers_->write_wait);
    guard = engine_->LockWrite(stmt.table);
  }
  size_t deleted = 0;
  {
    LayerSpan span("relational.delete", &layers_->delete_scan);
    Result<Relation*> rel = engine_->db().GetRelation(stmt.table);
    if (!rel.ok()) return rel.status();
    std::optional<expdb::Predicate> pred;
    if (stmt.where != nullptr) {
      Result<expdb::Predicate> bound = expdb::sql::BindWhere(
          *stmt.where, {expdb::sql::TableRef{stmt.table, ""}}, engine_->db());
      if (!bound.ok()) return bound.status();
      pred = std::move(bound).MoveValue();
    }
    for (const auto& [tuple, texp] : (*rel)->SortedEntries()) {
      if (texp <= engine_->Now()) continue;
      if (!pred.has_value() || pred->Evaluate(tuple)) {
        (*rel)->Erase(tuple);
        ++deleted;
      }
    }
  }
  if (deleted > 0) {
    LayerSpan span("view.notify", &layers_->view_notify);
    engine_->views().NotifyBaseChanged(stmt.table);
  }
  return ExecResult{std::to_string(deleted) +
                        (deleted == 1 ? " row" : " rows") + " deleted from " +
                        stmt.table,
                    std::nullopt, engine_->Now()};
}

Result<ExecResult> TracedExecutor::Advance(
    const expdb::sql::AdvanceStatement& stmt) {
  expdb::engine::Engine::ExclusiveGuard guard;
  {
    LayerSpan span("engine.lock_exclusive", &layers_->exclusive_wait);
    guard = engine_->LockExclusive();
  }
  {
    LayerSpan span("expiration.advance", &layers_->exp_advance);
    expdb::ExpirationManager& expiration = engine_->expiration();
    EXPDB_RETURN_NOT_OK(stmt.absolute
                            ? expiration.AdvanceTo(Timestamp(stmt.amount))
                            : expiration.Advance(stmt.amount));
  }
  {
    LayerSpan span("view.advance", &layers_->view_advance);
    EXPDB_RETURN_NOT_OK(engine_->views().AdvanceAllTo(engine_->Now()));
  }
  return ExecResult{"time is " + engine_->Now().ToString(), std::nullopt,
                    engine_->Now()};
}

Result<ExecResult> TracedExecutor::Maintenance(uint64_t trace_id) {
  size_t removed = 0;
  {
    LayerSpan span("engine.maintenance.run_once", &layers_->maintenance);
    removed = engine_->maintenance().RunOnce();
  }
  // RunOnce is one call; its compaction share comes from the program's
  // own expiration.compact spans under this statement.
  for (const expdb::obs::SpanRecord& s :
       expdb::obs::TraceRecorder::Global().Snapshot()) {
    if (s.trace_id == trace_id && s.name == "expiration.compact") {
      layers_->compact += s.duration_ns;
    }
  }
  return ExecResult{"maintenance pass removed " + std::to_string(removed),
                    std::nullopt, engine_->Now()};
}

}  // namespace e2ebench
