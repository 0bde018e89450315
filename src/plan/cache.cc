#include "plan/cache.h"

#include <utility>

#include "obs/log.h"
#include "obs/trace.h"

namespace expdb {
namespace plan {

namespace {

void LogCacheEvent(const char* event, std::vector<obs::LogField> fields) {
  obs::EventLog& log = obs::EventLog::Global();
  if (!log.enabled()) return;
  log.Emit(obs::LogSeverity::kInfo, "sql", event, std::move(fields));
}

}  // namespace

obs::Counter* PlanCacheHits() {
  static obs::Counter* hits = obs::MetricsRegistry::Global().GetCounter(
      "expdb_plan_cache_hits_total",
      "Executions served from a cached physical plan");
  return hits;
}

// --- parameterized plans ---------------------------------------------------

Result<PhysicalPlanPtr> InstantiatePlan(const PhysicalPlanPtr& plan,
                                        const std::vector<Value>& args) {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  if (args.size() != plan->param_count()) {
    return Status::InvalidArgument(
        "plan expects " + std::to_string(plan->param_count()) +
        " arguments, got " + std::to_string(args.size()));
  }
  return std::make_shared<const PhysicalPlan>(plan->WithParams(args));
}

// --- tier 1: statement/plan cache ------------------------------------------

std::optional<PreparedPlan> StatementCache::Lookup(
    const std::string& fingerprint) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) {
    ++misses_;
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  ++hits_;
  PlanCacheHits()->Increment();
  return it->second.plan;
}

void StatementCache::Insert(const std::string& fingerprint,
                            PreparedPlan plan) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> guard(mu_);
  auto it = entries_.find(fingerprint);
  if (it != entries_.end()) {
    it->second.plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  while (entries_.size() >= capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(fingerprint);
  entries_.emplace(fingerprint, Entry{std::move(plan), lru_.begin()});
}

void StatementCache::InvalidateBase(const std::string& name) {
  std::lock_guard<std::mutex> guard(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    const ExpressionPtr& expr = it->second.plan.plan->planned_expr();
    if (expr != nullptr && expr->BaseRelationNames().count(name) > 0) {
      lru_.erase(it->second.lru_it);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

void StatementCache::Clear() {
  std::lock_guard<std::mutex> guard(mu_);
  entries_.clear();
  lru_.clear();
}

// --- tier 2: expiration-stamped result cache --------------------------------

std::string ResultCacheKey(const std::string& fingerprint,
                           const std::vector<Value>& args) {
  std::string key = fingerprint;
  for (const Value& v : args) {
    key += '\x1f';
    switch (v.type()) {
      case ValueType::kNull:
        key += "n";
        break;
      case ValueType::kInt64:
        key += "i" + v.ToString();
        break;
      case ValueType::kDouble:
        key += "d" + v.ToString();
        break;
      case ValueType::kString: {
        // Length-prefixed so payload bytes can never collide with the
        // delimiter or another argument's rendering.
        const std::string s = v.ToString();
        key += "s" + std::to_string(s.size()) + ":" + s;
        break;
      }
    }
  }
  return key;
}

size_t EstimateResultBytes(const Relation& relation) {
  // Fixed per-entry overhead (plan + cursors + map/list nodes) plus the
  // materialization: entry structs, inline values, string payloads, and
  // ~50% hash-index headroom on the entry storage.
  size_t bytes = 512 + sizeof(Relation);
  for (const Relation::Entry& e : relation.entries()) {
    size_t entry = sizeof(Relation::Entry) + e.tuple.arity() * sizeof(Value);
    for (const Value& v : e.tuple.values()) {
      if (v.is_string()) entry += v.ToString().size();
    }
    bytes += entry + entry / 2;
  }
  return bytes;
}

ResultCache::ResultCache() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  hits_total_ = reg.GetCounter(
      "expdb_result_cache_hits_total",
      "Statements served from the expiration-stamped result cache");
  misses_total_ = reg.GetCounter("expdb_result_cache_misses_total",
                                 "Result-cache lookups that fell through to "
                                 "execution");
  patches_total_ = reg.GetCounter(
      "expdb_result_cache_patches_total",
      "Result-cache hits served after delta patching the entry");
  evictions_total_ = reg.GetCounter("expdb_result_cache_evictions_total",
                                    "Result-cache entries evicted by the "
                                    "LRU byte budget");
  bytes_gauge_.SetParent(reg.GetGauge(
      "expdb_result_cache_bytes", "Estimated bytes held by result caches"));
  lookup_latency_ = reg.GetHistogram("expdb_result_cache_lookup_latency_ns",
                                     "Result-cache lookup latency (ns)");
}

void ResultCache::set_max_bytes(size_t bytes) {
  std::lock_guard<std::mutex> guard(mu_);
  max_bytes_ = bytes;
  if (max_bytes_ == 0) {
    entries_.clear();
    lru_.clear();
    bytes_ = 0;
    bytes_gauge_.Set(0);
    return;
  }
  if (bytes_ > max_bytes_) EvictFor(0, nullptr);
}

void ResultCache::EraseEntry(EntryMap::iterator it) {
  bytes_ -= it->second.bytes;
  bytes_gauge_.Set(static_cast<int64_t>(bytes_));
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

void ResultCache::EvictFor(size_t need, const std::string* keep) {
  while (bytes_ + need > max_bytes_ && !lru_.empty()) {
    std::string victim = lru_.back();
    if (keep != nullptr && victim == *keep) {
      // The protected entry is the LRU tail; nothing older to evict.
      if (lru_.size() == 1) return;
      // Rotate it to the front so older-than-it entries can go.
      auto it = entries_.find(victim);
      Touch(&it->second);
      continue;
    }
    auto it = entries_.find(victim);
    ++evictions_;
    evictions_total_->Increment();
    LogCacheEvent("cache_evict",
                  {{"entry_bytes", std::to_string(it->second.bytes)},
                   {"cache_bytes", std::to_string(bytes_)},
                   {"budget", std::to_string(max_bytes_)}});
    EraseEntry(it);
  }
}

void ResultCache::Touch(Entry* entry) {
  lru_.splice(lru_.begin(), lru_, entry->lru_it);
}

void ResultCache::CountMiss() {
  ++misses_;
  misses_total_->Increment();
}

std::optional<MaterializedResult> ResultCache::Lookup(const std::string& key,
                                                      const Database& db,
                                                      Timestamp now) {
  obs::ScopedSpan span("sql.result_cache.lookup", lookup_latency_);
  std::lock_guard<std::mutex> guard(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    CountMiss();
    return std::nullopt;
  }
  Entry& e = it->second;
  DeltaPropagator::ApplyResult applied;
  const CatchUpOutcome outcome = e.maintained.CatchUp(db, now, &applied);
  const MaterializedResult& result = e.maintained.result();
  // Anything but current or patched drops the entry; so does a patch
  // whose result has already lapsed.
  const bool keep = outcome == CatchUpOutcome::kCurrent ||
                    (outcome == CatchUpOutcome::kPatched && now < result.texp);
  if (!keep) {
    EraseEntry(it);
    CountMiss();
    return std::nullopt;
  }
  if (outcome == CatchUpOutcome::kPatched) {
    const size_t new_bytes = EstimateResultBytes(result.relation);
    bytes_ += new_bytes - e.bytes;
    e.bytes = new_bytes;
    bytes_gauge_.Set(static_cast<int64_t>(bytes_));
    ++patches_;
    patches_total_->Increment();
    LogCacheEvent("cache_patch",
                  {{"ops", std::to_string(applied.ops_out)},
                   {"texp", result.texp.ToString()}});
    // EvictFor never evicts `key` itself, so `it` stays valid.
    if (bytes_ > max_bytes_) EvictFor(0, &key);
  }
  Touch(&it->second);
  ++hits_;
  hits_total_->Increment();
  return result;
}

void ResultCache::Insert(const std::string& key, PhysicalPlanPtr plan,
                         const NodeCapture* capture, MaterializedResult result,
                         const Database& db, Timestamp now) {
  if (plan == nullptr) return;
  // A lapsed (or immediately lapsing) materialization can never satisfy a
  // future `now < texp` check.
  if (!(now < result.texp)) return;
  std::lock_guard<std::mutex> guard(mu_);
  if (max_bytes_ == 0) return;
  const size_t bytes = EstimateResultBytes(result.relation);
  if (bytes > max_bytes_) return;
  MaintainedResult maintained(std::move(plan), std::move(result));
  if (!maintained.Seed(db, capture)) return;
  auto existing = entries_.find(key);
  if (existing != entries_.end()) EraseEntry(existing);
  EvictFor(bytes, nullptr);
  lru_.push_front(key);
  entries_.emplace(key, Entry{std::move(maintained), bytes, lru_.begin()});
  bytes_ += bytes;
  bytes_gauge_.Set(static_cast<int64_t>(bytes_));
}

void ResultCache::InvalidateBase(const std::string& name) {
  std::lock_guard<std::mutex> guard(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    const ExpressionPtr& expr = it->second.maintained.plan()->planned_expr();
    if (expr->BaseRelationNames().count(name) > 0) {
      auto victim = it++;
      EraseEntry(victim);
    } else {
      ++it;
    }
  }
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> guard(mu_);
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
  bytes_gauge_.Set(0);
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> guard(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.patches = patches_;
  s.evictions = evictions_;
  s.entries = entries_.size();
  s.bytes = bytes_;
  s.max_bytes = max_bytes_;
  return s;
}

size_t ResultCache::CountStaleAt(Timestamp now) const {
  std::lock_guard<std::mutex> guard(mu_);
  size_t stale = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry.maintained.result().texp <= now) ++stale;
  }
  return stale;
}

}  // namespace plan
}  // namespace expdb
