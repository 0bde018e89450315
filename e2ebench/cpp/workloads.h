// The benchmark's workloads: each makes its statements from the seed,
// keeps a Model of what the engine should hold, and checks every result
// against it.

#ifndef EXPDB_E2EBENCH_WORKLOADS_H_
#define EXPDB_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model.h"
#include "sql/session.h"

namespace e2ebench {

/// Statement classes, each with its own latency distribution.
enum class Cls {
  kPointSelect,
  kAnalyticSelect,
  kViewRead,
  kWideSelect,
  kExecute,
  kWrite,
  kAdvance,
  kMaintenance,
  kSetup,
};
constexpr int kNumClasses = static_cast<int>(Cls::kSetup) + 1;
const char* ClassName(Cls cls);
/// SELECT and EXECUTE: the statements that return rows.
bool IsRead(Cls cls);

/// How a statement's result is checked.
enum class Op {
  kNone,
  kInsert,
  kDelete,
  kPoint,
  kViewSelect,
  kViewExcept,
  kViewCount,
  kJoin,
  kGroup,
  kUnion,
};

struct Stmt {
  Cls cls = Cls::kSetup;
  Op op = Op::kNone;
  std::string sql;
  /// The model partition the statement reads or writes (its session's,
  /// or the owner's for set-up data).
  int model = 0;
  std::string table;
  std::vector<Row> rows;  ///< INSERT rows
  int64_t ttl = 0;        ///< INSERT TTL
  /// Literals the check needs: the key, the region, or one
  /// (table, column, literal) triple per UNION branch.
  std::vector<int64_t> args;
};

/// A read whose answer is non-empty and texp-exact, plus the model row
/// it depends on: the checker self-test perturbs that row.
struct Probe {
  Stmt stmt;
  std::string table;
  Row row;
};

/// Deterministic 64-bit generator (splitmix64).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi);
  double Unit();

 private:
  uint64_t state_;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual int sessions() const { return 1; }
  /// The morsel-parallel width the workload's sessions SET.
  virtual size_t parallelism() const { return 1; }
  /// How long a session pauses after each statement, outside every
  /// timing.
  virtual int64_t pause_us() const { return 0; }
  /// Schema, initial data, views and prepared statements, in order.
  virtual std::vector<Stmt> Setup() = 0;
  /// Appends session `session`'s next round. Rounds depend only on the
  /// seed and on the rounds generated before, never on results.
  virtual void NextRound(int session, std::vector<Stmt>* out) = 0;
  virtual Probe MakeProbe() = 0;

  /// Writes are recorded in the model; reads are compared with it.
  /// \return "" when the result is right, else what differs.
  std::string Check(const Stmt& stmt, const expdb::sql::ExecResult& result);

  Model& model(int index) { return models_[index]; }

 protected:
  explicit Workload(int models) : models_(models) {}
  /// The model's answer to a read at `served_at`.
  virtual Expected Expect(const Stmt& stmt, int64_t served_at) = 0;

  std::vector<Model> models_;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

}  // namespace e2ebench

#endif  // EXPDB_E2EBENCH_WORKLOADS_H_
