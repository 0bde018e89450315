// Two-tier statement caching over physical plans (docs/PERFORMANCE.md §7).
//
// Tier 1 — StatementCache: parameterized plan skeletons keyed by the
// normalized statement fingerprint. `WHERE id = 7` and `WHERE id = 9`
// normalize to the same skeleton with one parameter slot; re-executions
// skip the binder and the whole planner. Binding arguments
// (InstantiatePlan) copies no plan node: the bound plan shares the
// skeleton and carries the argument vector, and predicates resolve
// parameter operands against it as they are evaluated.
//
// Tier 2 — ResultCache: fully materialized results keyed by (fingerprint,
// bound arguments). The paper's central result makes this cache
// revalidation-free: a materialization is provably identical to
// recomputation at every τ' in [materialized_at, texp(e)) (Theorems 1–2),
// so a hit needs only (a) every base relation's delta cursor unchanged and
// (b) now < texp. On small cursor drift the entry is *patched* instead of
// discarded. Both checks and the patch are plan::MaintainedResult's
// catch-up step, the same one materialized views run; the cache adds
// only LRU eviction over a byte budget (`SET result_cache_bytes`).

#ifndef EXPDB_PLAN_CACHE_H_
#define EXPDB_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "core/materialized_result.h"
#include "obs/metrics.h"
#include "plan/executor.h"
#include "plan/maintained_result.h"
#include "plan/plan.h"
#include "relational/database.h"

namespace expdb {
namespace plan {

/// \brief The process-wide "executions served from a cached physical
/// plan" counter — one name, one help string, shared by every plan-cache
/// call site (statement cache, materialized views, replica queries).
obs::Counter* PlanCacheHits();

// --- parameterized plans ---------------------------------------------------

/// \brief Binds a parameterized plan skeleton to concrete argument values:
/// returns a plan that shares the skeleton's node tree, expressions,
/// rewrite report and options, and carries `args` (PhysicalPlan::params).
/// O(#args); no optimizer pass runs and no node is copied. Fails with
/// InvalidArgument unless `args` has exactly param_count() values.
Result<PhysicalPlanPtr> InstantiatePlan(const PhysicalPlanPtr& plan,
                                        const std::vector<Value>& args);

// --- tier 1: statement/plan cache ------------------------------------------

/// A cached parameterized plan skeleton plus the presentation metadata the
/// SQL layer needs to serve executions without re-binding.
struct PreparedPlan {
  PhysicalPlanPtr plan;
  size_t param_count = 0;
  /// Canonical normalized statement text (the statement-cache key; also
  /// the result-cache key prefix, so PREPARE/EXECUTE and the equivalent
  /// literal SELECT share result-cache entries).
  std::string fingerprint;
  /// Output column names of the statement (aliases applied).
  std::vector<std::string> column_names;
};

/// \brief LRU cache of parameterized plan skeletons keyed by statement
/// fingerprint. Thread-safe: the engine shares one instance across every
/// session, so all operations serialize on an internal mutex (hence
/// Lookup returns a copy — a pointer into the map could be evicted by a
/// concurrent Insert). The shared PlanCacheHits() counter aggregates hits
/// process-wide.
class StatementCache {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  explicit StatementCache(size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  /// \brief A copy of the cached skeleton for `fingerprint`, or nullopt.
  /// The copy is shallow where it matters — PhysicalPlanPtr is a
  /// shared_ptr to an immutable plan. A hit refreshes LRU order and
  /// counts toward expdb_plan_cache_hits_total.
  std::optional<PreparedPlan> Lookup(const std::string& fingerprint);

  /// \brief Caches `plan` (replacing any previous entry), evicting the
  /// least recently used skeletons beyond capacity.
  void Insert(const std::string& fingerprint, PreparedPlan plan);

  /// \brief Drops every entry whose plan reads base relation `name`
  /// (schema churn: CREATE/DROP TABLE invalidates planned schemas).
  void InvalidateBase(const std::string& name);

  void Clear();

  size_t size() const {
    std::lock_guard<std::mutex> guard(mu_);
    return entries_.size();
  }
  uint64_t hits() const {
    std::lock_guard<std::mutex> guard(mu_);
    return hits_;
  }
  uint64_t misses() const {
    std::lock_guard<std::mutex> guard(mu_);
    return misses_;
  }

 private:
  struct Entry {
    PreparedPlan plan;
    std::list<std::string>::iterator lru_it;
  };

  /// Leaf lock (nothing else is acquired while held).
  mutable std::mutex mu_;
  size_t capacity_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recently used
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

// --- tier 2: expiration-stamped result cache --------------------------------

/// \brief The result-cache key for one execution: the statement
/// fingerprint plus a type-tagged rendering of the bound arguments.
std::string ResultCacheKey(const std::string& fingerprint,
                           const std::vector<Value>& args);

/// \brief LRU-over-byte-budget cache of materialized query results,
/// validity-stamped with the paper's computed expiration times.
///
/// An entry is a MaintainedResult (bound plan, materialization, base
/// cursors, optional propagator) plus its byte estimate and LRU position.
/// Lookup maps the entry's CatchUpOutcome to:
///
///   hit    — kCurrent: served verbatim.
///   patch  — kPatched and the patched result has not lapsed: served.
///   miss   — anything else (absent key, lapsed, base missing or
///            replaced, history lost, no propagator, patch failure):
///            entry dropped. docs/PERFORMANCE.md §6 has the full table.
///
/// Thread-safe: the engine shares one instance across every session; all
/// operations serialize on an internal mutex. Callers must still hold the
/// base relations' reader locks across Lookup/Insert (the cache reads
/// delta cursors and rings from `db`) — the internal mutex only protects
/// the cache's own structures. Lookup returns the materialization by
/// value, so a served result can never be torn by a concurrent patch or
/// eviction.
class ResultCache {
 public:
  static constexpr size_t kDefaultMaxBytes = 64ull << 20;  // 64 MiB

  ResultCache();

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t patches = 0;  ///< subset of hits served after delta patching
    uint64_t evictions = 0;
    size_t entries = 0;
    size_t bytes = 0;
    size_t max_bytes = 0;
  };

  size_t max_bytes() const {
    std::lock_guard<std::mutex> guard(mu_);
    return max_bytes_;
  }
  bool enabled() const { return max_bytes() > 0; }
  /// \brief Sets the byte budget, evicting LRU entries over the new
  /// budget. 0 disables the cache and drops every entry.
  void set_max_bytes(size_t bytes);

  /// \brief Looks up `key` at time `now`, validating base cursors against
  /// `db` and patching drifted entries through the propagator. Returns
  /// the (possibly patched) materialization — the caller serves
  /// `relation.UnexpiredAt(now)` — or nullopt on a miss.
  std::optional<MaterializedResult> Lookup(const std::string& key,
                                           const Database& db, Timestamp now);

  /// \brief Caches one execution's result: seeds a MaintainedResult
  /// (delta tracking, base cursors, and a propagator from `capture` when
  /// available) and evicts LRU entries to fit the budget. No-op when
  /// disabled, when the result is already lapsed, or when the entry alone
  /// exceeds the budget.
  void Insert(const std::string& key, PhysicalPlanPtr plan,
              const NodeCapture* capture, MaterializedResult result,
              const Database& db, Timestamp now);

  /// \brief Drops every entry reading base relation `name` (DDL).
  void InvalidateBase(const std::string& name);

  void Clear();

  Stats stats() const;

  /// \brief Entries whose validity stamp has lapsed at `now` (texp <=
  /// now): dead weight a Lookup would drop on contact. The telemetry
  /// layer reads this as the result-cache staleness gauge; entries are
  /// not evicted here (Lookup/Insert own mutation).
  size_t CountStaleAt(Timestamp now) const;

 private:
  struct Entry {
    MaintainedResult maintained;
    size_t bytes = 0;
    std::list<std::string>::iterator lru_it;
  };
  using EntryMap = std::unordered_map<std::string, Entry>;

  // All private helpers require mu_ to be held by the caller.
  void EraseEntry(EntryMap::iterator it);
  /// Evicts LRU entries until `need` more bytes fit under the budget,
  /// never evicting `keep`.
  void EvictFor(size_t need, const std::string* keep);
  void Touch(Entry* entry);
  void CountMiss();

  /// Guards every member below. Leaf lock within the cache (obs metric
  /// updates under it are themselves lock-free or leaf-locked).
  mutable std::mutex mu_;
  size_t max_bytes_ = kDefaultMaxBytes;
  size_t bytes_ = 0;
  EntryMap entries_;
  std::list<std::string> lru_;  // front = most recently used
  // Session-local stats (CACHE STATS) ...
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t patches_ = 0;
  uint64_t evictions_ = 0;
  // ... parented into the process-wide expdb_result_cache_* metrics.
  obs::Counter* hits_total_;
  obs::Counter* misses_total_;
  obs::Counter* patches_total_;
  obs::Counter* evictions_total_;
  obs::Gauge bytes_gauge_;
  obs::Histogram* lookup_latency_;
};

/// \brief Byte-footprint estimate of a cached result: entry storage plus
/// string payloads. Advisory (the propagator's auxiliary state is not
/// charged); it is what the LRU budget accounts in.
size_t EstimateResultBytes(const Relation& relation);

}  // namespace plan
}  // namespace expdb

#endif  // EXPDB_PLAN_CACHE_H_
