// Two ways to run one SQL statement against a shared engine:
//
//   SessionExecutor  sql::Session::Execute, as an application would.
//   TracedExecutor   the same work issued as the sequence of public calls
//                    Session makes (parse, normalize, statement cache,
//                    bind, plan, result cache, instantiate, execute, the
//                    engine locks, expiration and view maintenance), each
//                    inside a span recorded by the benchmark. The spans
//                    go to the program's TraceRecorder, so the program's
//                    own spans nest under them, and their durations are
//                    summed per layer.

#ifndef EXPDB_E2EBENCH_EXECUTOR_H_
#define EXPDB_E2EBENCH_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "sql/session.h"

namespace e2ebench {

/// Busy time (ns) spent inside each layer boundary, plus planner counts.
struct LayerTimes {
  int64_t parse = 0;
  int64_t normalize = 0;
  int64_t stmt_cache = 0;
  int64_t bind = 0;
  int64_t plan = 0;
  int64_t instantiate = 0;
  int64_t execute = 0;
  int64_t rc_lookup = 0;
  int64_t rc_fill = 0;
  int64_t snapshot_wait = 0;
  int64_t write_wait = 0;
  int64_t exclusive_wait = 0;
  int64_t exp_insert = 0;
  int64_t exp_advance = 0;
  int64_t delete_scan = 0;
  int64_t view_read = 0;
  int64_t view_advance = 0;
  int64_t view_notify = 0;
  int64_t maintenance = 0;
  /// The program's own expiration.compact spans under RunOnce (a part of
  /// `maintenance`, not added to the attributed total twice).
  int64_t compact = 0;
  /// Whole statements, parse included: the sum of the spans above plus
  /// the time between them.
  int64_t statement = 0;
  uint64_t plans = 0;
  uint64_t plan_nodes = 0;

  void Add(const LayerTimes& other);
  /// Statement time outside every layer span (the compaction share is
  /// already inside `maintenance`).
  int64_t Unattributed() const;
};

class Executor {
 public:
  virtual ~Executor() = default;
  virtual expdb::Result<expdb::sql::ExecResult> Run(const std::string& sql) = 0;
};

class SessionExecutor : public Executor {
 public:
  explicit SessionExecutor(std::shared_ptr<expdb::sql::Session> session)
      : session_(std::move(session)) {}
  expdb::Result<expdb::sql::ExecResult> Run(const std::string& sql) override {
    return session_->Execute(sql);
  }

 private:
  std::shared_ptr<expdb::sql::Session> session_;
};

/// Runs the statement kinds the timed phase issues (SELECT, EXECUTE,
/// INSERT, DELETE, ADVANCE TIME, MAINTENANCE RUN) call by call. Any other
/// kind is refused. `parallelism` mirrors the session's SET parallelism.
class TracedExecutor : public Executor {
 public:
  TracedExecutor(expdb::engine::Engine* engine, size_t parallelism,
                 LayerTimes* layers);
  expdb::Result<expdb::sql::ExecResult> Run(const std::string& sql) override;

 private:
  expdb::Result<expdb::sql::ExecResult> Select(
      const expdb::sql::SelectStatement& stmt);
  expdb::Result<expdb::sql::ExecResult> ViewRead(const std::string& view);
  expdb::Result<expdb::sql::ExecResult> RunPrepared(
      const expdb::sql::ExecutePreparedStatement& stmt);
  expdb::Result<expdb::sql::ExecResult> Planned(
      const expdb::plan::PreparedPlan& prepared,
      const std::vector<expdb::Value>& args, expdb::Timestamp now);
  expdb::Result<expdb::sql::ExecResult> Insert(
      const expdb::sql::InsertStatement& stmt);
  expdb::Result<expdb::sql::ExecResult> Delete(
      const expdb::sql::DeleteStatement& stmt);
  expdb::Result<expdb::sql::ExecResult> Advance(
      const expdb::sql::AdvanceStatement& stmt);
  expdb::Result<expdb::sql::ExecResult> Maintenance(uint64_t trace_id);

  expdb::engine::Engine* engine_;
  expdb::EvalOptions eval_;
  LayerTimes* layers_;
};

}  // namespace e2ebench

#endif  // EXPDB_E2EBENCH_EXECUTOR_H_
