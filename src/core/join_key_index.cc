#include "core/join_key_index.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/thread_pool.h"

namespace expdb {

namespace {

/// Smallest power of two >= n (and >= 8).
size_t NextPow2(size_t n) {
  size_t cap = 8;
  while (cap < n) cap <<= 1;
  return cap;
}

/// Decorrelates the partition selector (hash % P) from the in-partition
/// slot (Fibonacci multiplicative mix).
size_t MixHash(size_t h) { return h * 0x9e3779b97f4a7c15ULL; }

}  // namespace

JoinKeyIndex::JoinKeyIndex(const Relation& build, const Predicate& predicate,
                           size_t n_left, size_t workers,
                           const std::vector<Value>& params)
    : predicate_(predicate), params_(params) {
  for (auto [a, b] : predicate.TopLevelEqualities()) {
    if (a < n_left && b >= n_left) {
      left_cols_.push_back(a);
      right_cols_.push_back(b - n_left);
    } else if (b < n_left && a >= n_left) {
      left_cols_.push_back(b);
      right_cols_.push_back(a - n_left);
    }
  }
  // Covered <=> every top-level conjunct is one of the extracted
  // cross-side column equalities. TopLevelEqualities() only collects
  // column=column comparisons off the ∧-spine, so the predicate is exactly
  // the conjunction of cross-side equalities iff the counts line up.
  const size_t conjuncts = predicate.TopLevelConjuncts().size();
  covered_ = !left_cols_.empty() &&
             left_cols_.size() == conjuncts &&
             predicate.TopLevelEqualities().size() == conjuncts;

  if (!has_keys()) {
    all_.candidates.reserve(build.size());
    for (const Relation::Entry& e : build.entries()) {
      all_.candidates.push_back({&e.tuple, e.texp});
      all_.max_texp = Timestamp::Max(all_.max_texp, e.texp);
    }
    return;
  }
  if (workers > 1 && build.size() >= 2 * workers) {
    BuildParallel(build, workers);
  } else {
    BuildSerial(build);
  }
}

bool JoinKeyIndex::KeysEqual(const Tuple& probe,
                             const std::vector<size_t>& probe_cols,
                             const Tuple& rep) const {
  for (size_t k = 0; k < probe_cols.size(); ++k) {
    if (probe.at(probe_cols[k]) != rep.at(right_cols_[k])) return false;
  }
  return true;
}

void JoinKeyIndex::InsertIntoPartition(Partition* part, size_t hash,
                                       const Relation::Entry& entry) {
  const size_t mask = part->slots.size() - 1;
  size_t slot = MixHash(hash) & mask;
  for (;;) {
    const int32_t g = part->slots[slot];
    if (g < 0) {
      part->slots[slot] = static_cast<int32_t>(part->groups.size());
      part->reps.push_back(&entry.tuple);
      Group group;
      group.candidates.push_back({&entry.tuple, entry.texp});
      group.max_texp = entry.texp;
      part->groups.push_back(std::move(group));
      return;
    }
    if (KeysEqual(entry.tuple, right_cols_, *part->reps[g])) {
      Group& group = part->groups[g];
      group.candidates.push_back({&entry.tuple, entry.texp});
      group.max_texp = Timestamp::Max(group.max_texp, entry.texp);
      return;
    }
    slot = (slot + 1) & mask;
  }
}

void JoinKeyIndex::BuildSerial(const Relation& build) {
  partitions_.resize(1);
  Partition& part = partitions_[0];
  part.slots.assign(NextPow2(build.size() * 2), -1);
  part.groups.reserve(build.size());
  part.reps.reserve(build.size());
  for (const Relation::Entry& e : build.entries()) {
    InsertIntoPartition(&part, e.tuple.HashOfColumns(right_cols_), e);
  }
}

void JoinKeyIndex::BuildParallel(const Relation& build, size_t workers) {
  const std::vector<Relation::Entry>& entries = build.entries();
  const size_t P = workers;
  partitions_.resize(P);

  // Phase 1 — partitioning: W static chunks each scatter (hash, entry)
  // pairs into per-chunk, per-partition buckets; chunks are independent,
  // so no synchronization is needed.
  using Scattered = std::pair<size_t, const Relation::Entry*>;
  std::vector<std::vector<std::vector<Scattered>>> scat(
      P, std::vector<std::vector<Scattered>>(P));
  const size_t chunk = (entries.size() + P - 1) / P;
  ParallelForOptions opts;
  opts.parallelism = workers;
  opts.min_morsel_size = 1;
  opts.max_morsels_per_worker = 1;
  ParallelFor(P, opts, [&](size_t cb, size_t ce) {
    for (size_t c = cb; c < ce; ++c) {
      const size_t begin = std::min(c * chunk, entries.size());
      const size_t end = std::min(begin + chunk, entries.size());
      for (size_t i = begin; i < end; ++i) {
        const size_t h = entries[i].tuple.HashOfColumns(right_cols_);
        scat[c][h % P].emplace_back(h, &entries[i]);
      }
    }
  });

  // Phase 2 — per-partition group build: partition p is touched only by
  // the worker that owns index p.
  ParallelFor(P, opts, [&](size_t pb, size_t pe) {
    for (size_t p = pb; p < pe; ++p) {
      size_t total = 0;
      for (size_t c = 0; c < P; ++c) total += scat[c][p].size();
      Partition& part = partitions_[p];
      part.slots.assign(NextPow2(total * 2), -1);
      part.groups.reserve(total);
      part.reps.reserve(total);
      for (size_t c = 0; c < P; ++c) {
        for (const auto& [h, entry] : scat[c][p]) {
          InsertIntoPartition(&part, h, *entry);
        }
      }
    }
  });
}

const JoinKeyIndex::Group* JoinKeyIndex::Probe(
    const Tuple& left_tuple) const {
  if (!has_keys()) return all_.candidates.empty() ? nullptr : &all_;
  const size_t h = left_tuple.HashOfColumns(left_cols_);
  const Partition& part = partitions_.size() == 1
                              ? partitions_[0]
                              : partitions_[h % partitions_.size()];
  if (part.slots.empty()) return nullptr;
  const size_t mask = part.slots.size() - 1;
  size_t slot = MixHash(h) & mask;
  for (;;) {
    const int32_t g = part.slots[slot];
    if (g < 0) return nullptr;
    if (KeysEqual(left_tuple, left_cols_, *part.reps[g])) {
      return &part.groups[g];
    }
    slot = (slot + 1) & mask;
  }
}

std::optional<Timestamp> JoinKeyIndex::MaxMatchTexp(
    const Tuple& left_tuple) const {
  const Group* group = Probe(left_tuple);
  if (group == nullptr) return std::nullopt;
  if (covered_) return group->max_texp;  // key match implies the predicate
  std::optional<Timestamp> best;
  for (const Candidate& c : group->candidates) {
    if (!predicate_.Evaluate(left_tuple.Concat(*c.tuple), params_)) continue;
    if (!best || c.texp > *best) best = c.texp;
  }
  return best;
}

}  // namespace expdb
