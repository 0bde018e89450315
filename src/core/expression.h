// Expression: the AST of the expiration-time-aware relational algebra
// (paper Sec. 2.3–2.6).
//
// Primitive operators: σexp (select), πexp (project), ×exp (product),
// ∪exp (union), −exp (difference), aggexp (aggregation). Derived
// operators with native nodes: ⋈exp (join, Eq. 5) and ∩exp (intersection,
// Eq. 6); the evaluator implements them with hash algorithms whose
// semantics coincide with the paper's rewrites (tested).
//
// Expressions are immutable and shared; building them is infallible and
// schema/validity checking happens against a Database via InferSchema (also
// performed by the evaluator).

#ifndef EXPDB_CORE_EXPRESSION_H_
#define EXPDB_CORE_EXPRESSION_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/aggregate.h"
#include "core/predicate.h"
#include "relational/database.h"

namespace expdb {

class Expression;
using ExpressionPtr = std::shared_ptr<const Expression>;

/// The operator at an expression node.
enum class ExprKind {
  kBase,        ///< A named base relation.
  kSelect,      ///< σexp_p — Eq. (1)
  kProject,     ///< πexp_{j1..jn} — Eq. (3)
  kProduct,     ///< ×exp — Eq. (2)
  kUnion,       ///< ∪exp — Eq. (4)
  kJoin,        ///< ⋈exp_p — Eq. (5), derived
  kIntersect,   ///< ∩exp — Eq. (6), derived
  kDifference,  ///< −exp — Eq. (10), non-monotonic
  kAggregate,   ///< aggexp — Eq. (8), non-monotonic
  kSemiJoin,    ///< ⋉exp — derived: π_R(R ⋈exp_p S); monotonic
  kAntiJoin,    ///< ▷exp — generalized −exp by predicate; non-monotonic
};

std::string_view ExprKindToString(ExprKind kind);

/// \brief An immutable node of an algebra expression tree.
class Expression : public std::enable_shared_from_this<Expression> {
 public:
  ExprKind kind() const { return kind_; }

  /// Base relation name (kBase only).
  const std::string& relation_name() const { return relation_name_; }
  /// Left/only child (null for kBase).
  const ExpressionPtr& left() const { return left_; }
  /// Right child (binary operators only).
  const ExpressionPtr& right() const { return right_; }
  /// Selection/join predicate (kSelect, kJoin).
  const Predicate& predicate() const { return predicate_; }
  /// Projection attribute list, 0-based (kProject).
  const std::vector<size_t>& projection() const { return projection_; }
  /// Grouping attributes j1..jn, 0-based (kAggregate).
  const std::vector<size_t>& group_by() const { return group_by_; }
  /// Aggregate function f (kAggregate).
  const AggregateFunction& aggregate() const { return aggregate_; }

  /// \brief True iff the expression consists solely of the monotonic
  /// operators (1)–(6); such expressions never require recomputation
  /// (Theorem 1) and have texp(e) = ∞.
  bool IsMonotonic() const;

  /// \brief Output schema given the base relations in `db`; also validates
  /// predicates, projections, union compatibility, and aggregate inputs.
  /// Applies DeriveSchema bottom-up (left subtree, right subtree, node).
  Result<Schema> InferSchema(const Database& db) const;

  /// \brief The one-level rule behind InferSchema: this node's output
  /// schema from its children's schemas, with this node's validation.
  /// `left`/`right` must be non-null exactly where the node has that
  /// child; a base node reads its schema from `db`.
  Result<Schema> DeriveSchema(const Database& db, const Schema* left,
                              const Schema* right) const;

  /// \brief Names of all base relations referenced by this expression.
  std::set<std::string> BaseRelationNames() const;

  /// Number of nodes in the tree.
  size_t NodeCount() const;

  /// Height of the tree (a single base relation has depth 1).
  size_t Depth() const;

  /// Algebra notation, e.g. "π_{2}(Pol ⋈_{$1 = $3} El)".
  std::string ToString() const;

  // Factory functions (see also the expdb::algebra convenience namespace).
  static ExpressionPtr MakeBase(std::string relation_name);
  static ExpressionPtr MakeSelect(ExpressionPtr child, Predicate predicate);
  static ExpressionPtr MakeProject(ExpressionPtr child,
                                   std::vector<size_t> attrs);
  static ExpressionPtr MakeProduct(ExpressionPtr left, ExpressionPtr right);
  static ExpressionPtr MakeUnion(ExpressionPtr left, ExpressionPtr right);
  static ExpressionPtr MakeJoin(ExpressionPtr left, ExpressionPtr right,
                                Predicate predicate);
  static ExpressionPtr MakeIntersect(ExpressionPtr left,
                                     ExpressionPtr right);
  static ExpressionPtr MakeDifference(ExpressionPtr left,
                                      ExpressionPtr right);
  static ExpressionPtr MakeAggregate(ExpressionPtr child,
                                     std::vector<size_t> group_by,
                                     AggregateFunction f);
  static ExpressionPtr MakeSemiJoin(ExpressionPtr left, ExpressionPtr right,
                                    Predicate predicate);
  static ExpressionPtr MakeAntiJoin(ExpressionPtr left, ExpressionPtr right,
                                    Predicate predicate);

 protected:
  Expression() = default;

 private:
  ExprKind kind_ = ExprKind::kBase;
  std::string relation_name_;
  ExpressionPtr left_;
  ExpressionPtr right_;
  Predicate predicate_ = Predicate::Literal(true);
  std::vector<size_t> projection_;
  std::vector<size_t> group_by_;
  AggregateFunction aggregate_;
};

/// Convenience builders mirroring the paper's notation:
///   using namespace expdb::algebra;
///   auto e = Project(Join(Base("Pol"), Base("El"), ColumnsEqual(0, 2)), {1});
namespace algebra {

inline ExpressionPtr Base(std::string name) {
  return Expression::MakeBase(std::move(name));
}
inline ExpressionPtr Select(ExpressionPtr e, Predicate p) {
  return Expression::MakeSelect(std::move(e), std::move(p));
}
inline ExpressionPtr Project(ExpressionPtr e, std::vector<size_t> attrs) {
  return Expression::MakeProject(std::move(e), std::move(attrs));
}
inline ExpressionPtr Product(ExpressionPtr l, ExpressionPtr r) {
  return Expression::MakeProduct(std::move(l), std::move(r));
}
inline ExpressionPtr Union(ExpressionPtr l, ExpressionPtr r) {
  return Expression::MakeUnion(std::move(l), std::move(r));
}
inline ExpressionPtr Join(ExpressionPtr l, ExpressionPtr r, Predicate p) {
  return Expression::MakeJoin(std::move(l), std::move(r), std::move(p));
}
inline ExpressionPtr Intersect(ExpressionPtr l, ExpressionPtr r) {
  return Expression::MakeIntersect(std::move(l), std::move(r));
}
inline ExpressionPtr Difference(ExpressionPtr l, ExpressionPtr r) {
  return Expression::MakeDifference(std::move(l), std::move(r));
}
inline ExpressionPtr Aggregate(ExpressionPtr e, std::vector<size_t> group_by,
                               AggregateFunction f) {
  return Expression::MakeAggregate(std::move(e), std::move(group_by), f);
}
/// R ⋉exp_p S: the tuples of R with at least one p-match in S, carrying
/// texp min(texp_R(r), max{texp_S(s) | s matches r}) — exactly the
/// expiration π_{R}(R ⋈exp_p S) derives (max over duplicates of min over
/// pairs). Monotonic.
inline ExpressionPtr SemiJoin(ExpressionPtr l, ExpressionPtr r, Predicate p) {
  return Expression::MakeSemiJoin(std::move(l), std::move(r), std::move(p));
}
/// R ▷exp_p S: the tuples of R with no p-match in S — the paper's "left
/// outer anti-semijoin" generalization of −exp. Non-monotonic: a tuple
/// must re-appear when its last surviving match expires; the same
/// critical-tuple analysis, τ_R, and Theorem 3 patching apply, keyed by
/// the predicate instead of tuple equality.
inline ExpressionPtr AntiJoin(ExpressionPtr l, ExpressionPtr r, Predicate p) {
  return Expression::MakeAntiJoin(std::move(l), std::move(r), std::move(p));
}

}  // namespace algebra

}  // namespace expdb

#endif  // EXPDB_CORE_EXPRESSION_H_
