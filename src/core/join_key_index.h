// JoinKeyIndex: the shared hash-join machinery of ⋈exp, ⋉exp, and ▷exp.
//
// Given the build side S of a join whose predicate p is formulated against
// the concatenated frame R ++ S, the index
//  * extracts the cross-side equality columns from p's top-level ∧-spine
//    (the hash-join fast path),
//  * partitions S by key hash (in parallel when asked) and groups the
//    build tuples per distinct key, caching each group's maximum
//    expiration time — ⋉exp and ▷exp need exactly max{texp_S(s)} per key,
//  * probes WITHOUT materializing a key tuple: the probe hashes the left
//    tuple's key columns in place (Tuple::HashOfColumns) and compares
//    column-by-column, so the former per-probe Tuple::Project allocation
//    is gone, and
//  * knows whether p is *fully covered* by the extracted equalities (p is
//    exactly a conjunction of cross-side column equalities), in which case
//    a key match already implies p and the per-candidate
//    p.Evaluate(r ++ s) re-check — and its Concat allocation — is skipped.
//
// When p has no cross-side equalities every build tuple is a candidate for
// every probe (the index degenerates to a scan list).

#ifndef EXPDB_CORE_JOIN_KEY_INDEX_H_
#define EXPDB_CORE_JOIN_KEY_INDEX_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/timestamp.h"
#include "core/predicate.h"
#include "relational/relation.h"

namespace expdb {

class JoinKeyIndex {
 public:
  /// One build-side tuple (stable pointer into the build relation).
  struct Candidate {
    const Tuple* tuple;
    Timestamp texp;
  };

  /// All build tuples sharing one key (or all build tuples when keyless).
  struct Group {
    std::vector<Candidate> candidates;
    /// max{texp_S(s) | s ∈ candidates} — the ⋉exp/▷exp "last match" time
    /// when the predicate is covered.
    Timestamp max_texp = Timestamp::Zero();
  };

  /// Indexes `build` (the right input, attribute offset `n_left` in the
  /// predicate's frame). `workers` > 1 partitions the build by key hash
  /// and fills the partitions in parallel on the shared pool. `params`
  /// are the arguments the predicate's parameter operands resolve to.
  /// `build`, `predicate` and `params` must outlive the index and stay
  /// unmodified.
  JoinKeyIndex(const Relation& build, const Predicate& predicate,
               size_t n_left, size_t workers = 1,
               const std::vector<Value>& params = Predicate::NoParams());

  /// True when cross-side equality columns were extracted.
  bool has_keys() const { return !left_cols_.empty(); }

  /// True when a key match already implies the predicate (p is exactly a
  /// conjunction of the extracted cross-side equalities).
  bool predicate_covered() const { return covered_; }

  const std::vector<size_t>& left_cols() const { return left_cols_; }
  const std::vector<size_t>& right_cols() const { return right_cols_; }

  /// \brief Build tuples whose key columns equal `left_tuple`'s — every
  /// build tuple when keyless. nullptr when no key matches.
  const Group* Probe(const Tuple& left_tuple) const;

  /// \brief Max texp over build tuples matching `left_tuple` under the
  /// full predicate; nullopt when none match. O(1) past the hash lookup
  /// when the predicate is covered (uses the group's cached max).
  std::optional<Timestamp> MaxMatchTexp(const Tuple& left_tuple) const;

 private:
  struct Partition {
    std::vector<Group> groups;
    /// Representative build tuple per group (key columns define the key).
    std::vector<const Tuple*> reps;
    /// Open addressing into groups/reps; -1 = empty. Power-of-two sized.
    std::vector<int32_t> slots;
  };

  /// True iff the key columns of `probe` (via `probe_cols`) equal the key
  /// columns of representative `rep` (via right_cols_).
  bool KeysEqual(const Tuple& probe, const std::vector<size_t>& probe_cols,
                 const Tuple& rep) const;

  void BuildSerial(const Relation& build);
  void BuildParallel(const Relation& build, size_t workers);
  void InsertIntoPartition(Partition* part, size_t hash,
                           const Relation::Entry& entry);

  const Predicate& predicate_;
  const std::vector<Value>& params_;
  std::vector<size_t> left_cols_, right_cols_;
  bool covered_ = false;
  std::vector<Partition> partitions_;  // size 1 when keyless or serial
  Group all_;                          // keyless fallback
};

}  // namespace expdb

#endif  // EXPDB_CORE_JOIN_KEY_INDEX_H_
