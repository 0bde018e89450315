#include "core/expression.h"

#include <algorithm>

#include "common/str_util.h"

namespace expdb {

std::string_view ExprKindToString(ExprKind kind) {
  switch (kind) {
    case ExprKind::kBase:
      return "base";
    case ExprKind::kSelect:
      return "select";
    case ExprKind::kProject:
      return "project";
    case ExprKind::kProduct:
      return "product";
    case ExprKind::kUnion:
      return "union";
    case ExprKind::kJoin:
      return "join";
    case ExprKind::kIntersect:
      return "intersect";
    case ExprKind::kDifference:
      return "difference";
    case ExprKind::kAggregate:
      return "aggregate";
    case ExprKind::kSemiJoin:
      return "semijoin";
    case ExprKind::kAntiJoin:
      return "antijoin";
  }
  return "?";
}

namespace {

std::shared_ptr<Expression> NewNode() {
  // Expression's constructor is private; allocate through a local subclass.
  struct Make : Expression {};
  auto node = std::make_shared<Make>();
  return node;
}

}  // namespace

bool Expression::IsMonotonic() const {
  switch (kind_) {
    case ExprKind::kDifference:
    case ExprKind::kAggregate:
    case ExprKind::kAntiJoin:
      return false;
    case ExprKind::kBase:
      return true;
    default:
      break;
  }
  if (left_ && !left_->IsMonotonic()) return false;
  if (right_ && !right_->IsMonotonic()) return false;
  return true;
}

Result<Schema> Expression::InferSchema(const Database& db) const {
  Schema l;
  Schema r;
  if (left_ != nullptr) {
    EXPDB_ASSIGN_OR_RETURN(l, left_->InferSchema(db));
  }
  if (right_ != nullptr) {
    EXPDB_ASSIGN_OR_RETURN(r, right_->InferSchema(db));
  }
  return DeriveSchema(db, left_ ? &l : nullptr, right_ ? &r : nullptr);
}

Result<Schema> Expression::DeriveSchema(const Database& db,
                                        const Schema* left,
                                        const Schema* right) const {
  switch (kind_) {
    case ExprKind::kBase: {
      EXPDB_ASSIGN_OR_RETURN(const Relation* rel,
                             db.GetRelation(relation_name_));
      return rel->schema();
    }
    case ExprKind::kSelect:
      EXPDB_RETURN_NOT_OK(predicate_.Validate(*left));
      return *left;
    case ExprKind::kProject:
      return left->Project(projection_);
    case ExprKind::kProduct:
      return left->Concat(*right);
    case ExprKind::kJoin: {
      Schema joined = left->Concat(*right);
      EXPDB_RETURN_NOT_OK(predicate_.Validate(joined));
      return joined;
    }
    case ExprKind::kSemiJoin:
    case ExprKind::kAntiJoin:
      // Output schema is the left input's; the predicate ranges over the
      // concatenation (as in the join these operators derive from).
      EXPDB_RETURN_NOT_OK(predicate_.Validate(left->Concat(*right)));
      return *left;
    case ExprKind::kUnion:
    case ExprKind::kIntersect:
    case ExprKind::kDifference:
      if (!left->UnionCompatibleWith(*right)) {
        return Status::TypeError(
            std::string(ExprKindToString(kind_)) +
            " requires union-compatible inputs, got " + left->ToString() +
            " and " + right->ToString());
      }
      return *left;
    case ExprKind::kAggregate: {
      const Schema& child = *left;
      for (size_t j : group_by_) {
        if (!child.IsValidIndex(j)) {
          return Status::OutOfRange("grouping attribute " +
                                    std::to_string(j + 1) +
                                    " beyond schema " + child.ToString());
        }
      }
      ValueType attr_type = ValueType::kInt64;
      if (aggregate_.kind != AggregateKind::kCount) {
        if (!child.IsValidIndex(aggregate_.attr)) {
          return Status::OutOfRange("aggregate attribute " +
                                    std::to_string(aggregate_.attr + 1) +
                                    " beyond schema " + child.ToString());
        }
        attr_type = child.attribute(aggregate_.attr).type;
        if ((aggregate_.kind == AggregateKind::kSum ||
             aggregate_.kind == AggregateKind::kAvg) &&
            attr_type == ValueType::kString) {
          return Status::TypeError(aggregate_.ToString() +
                                   " requires a numeric attribute");
        }
      }
      std::vector<Attribute> attrs = child.attributes();
      // Give the appended aggregate attribute a fresh name.
      std::string agg_name = aggregate_.ToString();
      auto taken = [&](const std::string& n) {
        return std::any_of(attrs.begin(), attrs.end(),
                           [&](const Attribute& a) { return a.name == n; });
      };
      int suffix = 2;
      std::string candidate = agg_name;
      while (taken(candidate)) {
        candidate = agg_name + "." + std::to_string(suffix++);
      }
      attrs.push_back({candidate, aggregate_.ResultType(attr_type)});
      return Schema(std::move(attrs));
    }
  }
  return Status::Internal("unknown expression kind");
}

std::set<std::string> Expression::BaseRelationNames() const {
  std::set<std::string> out;
  if (kind_ == ExprKind::kBase) {
    out.insert(relation_name_);
    return out;
  }
  if (left_) out.merge(left_->BaseRelationNames());
  if (right_) out.merge(right_->BaseRelationNames());
  return out;
}

size_t Expression::NodeCount() const {
  size_t n = 1;
  if (left_) n += left_->NodeCount();
  if (right_) n += right_->NodeCount();
  return n;
}

size_t Expression::Depth() const {
  size_t d = 0;
  if (left_) d = std::max(d, left_->Depth());
  if (right_) d = std::max(d, right_->Depth());
  return d + 1;
}

std::string Expression::ToString() const {
  auto indices = [](const std::vector<size_t>& xs) {
    std::vector<std::string> out;
    out.reserve(xs.size());
    for (size_t x : xs) out.push_back(std::to_string(x + 1));
    return JoinStrings(out, ",");
  };
  switch (kind_) {
    case ExprKind::kBase:
      return relation_name_;
    case ExprKind::kSelect:
      return "σ_{" + predicate_.ToString() + "}(" + left_->ToString() +
             ")";
    case ExprKind::kProject:
      return "π_{" + indices(projection_) + "}(" + left_->ToString() +
             ")";
    case ExprKind::kProduct:
      return "(" + left_->ToString() + " × " + right_->ToString() + ")";
    case ExprKind::kUnion:
      return "(" + left_->ToString() + " ∪ " + right_->ToString() + ")";
    case ExprKind::kJoin:
      return "(" + left_->ToString() + " ⋈_{" + predicate_.ToString() +
             "} " + right_->ToString() + ")";
    case ExprKind::kIntersect:
      return "(" + left_->ToString() + " ∩ " + right_->ToString() + ")";
    case ExprKind::kDifference:
      return "(" + left_->ToString() + " − " + right_->ToString() + ")";
    case ExprKind::kAggregate:
      return "agg_{{" + indices(group_by_) + "}," + aggregate_.ToString() +
             "}(" + left_->ToString() + ")";
    case ExprKind::kSemiJoin:
      return "(" + left_->ToString() + " ⋉_{" + predicate_.ToString() +
             "} " + right_->ToString() + ")";
    case ExprKind::kAntiJoin:
      return "(" + left_->ToString() + " ▷_{" + predicate_.ToString() +
             "} " + right_->ToString() + ")";
  }
  return "?";
}

ExpressionPtr Expression::MakeBase(std::string relation_name) {
  auto node = NewNode();
  node->kind_ = ExprKind::kBase;
  node->relation_name_ = std::move(relation_name);
  return node;
}

ExpressionPtr Expression::MakeSelect(ExpressionPtr child,
                                     Predicate predicate) {
  auto node = NewNode();
  node->kind_ = ExprKind::kSelect;
  node->left_ = std::move(child);
  node->predicate_ = std::move(predicate);
  return node;
}

ExpressionPtr Expression::MakeProject(ExpressionPtr child,
                                      std::vector<size_t> attrs) {
  auto node = NewNode();
  node->kind_ = ExprKind::kProject;
  node->left_ = std::move(child);
  node->projection_ = std::move(attrs);
  return node;
}

ExpressionPtr Expression::MakeProduct(ExpressionPtr left,
                                      ExpressionPtr right) {
  auto node = NewNode();
  node->kind_ = ExprKind::kProduct;
  node->left_ = std::move(left);
  node->right_ = std::move(right);
  return node;
}

ExpressionPtr Expression::MakeUnion(ExpressionPtr left, ExpressionPtr right) {
  auto node = NewNode();
  node->kind_ = ExprKind::kUnion;
  node->left_ = std::move(left);
  node->right_ = std::move(right);
  return node;
}

ExpressionPtr Expression::MakeJoin(ExpressionPtr left, ExpressionPtr right,
                                   Predicate predicate) {
  auto node = NewNode();
  node->kind_ = ExprKind::kJoin;
  node->left_ = std::move(left);
  node->right_ = std::move(right);
  node->predicate_ = std::move(predicate);
  return node;
}

ExpressionPtr Expression::MakeIntersect(ExpressionPtr left,
                                        ExpressionPtr right) {
  auto node = NewNode();
  node->kind_ = ExprKind::kIntersect;
  node->left_ = std::move(left);
  node->right_ = std::move(right);
  return node;
}

ExpressionPtr Expression::MakeDifference(ExpressionPtr left,
                                         ExpressionPtr right) {
  auto node = NewNode();
  node->kind_ = ExprKind::kDifference;
  node->left_ = std::move(left);
  node->right_ = std::move(right);
  return node;
}

ExpressionPtr Expression::MakeSemiJoin(ExpressionPtr left,
                                       ExpressionPtr right,
                                       Predicate predicate) {
  auto node = NewNode();
  node->kind_ = ExprKind::kSemiJoin;
  node->left_ = std::move(left);
  node->right_ = std::move(right);
  node->predicate_ = std::move(predicate);
  return node;
}

ExpressionPtr Expression::MakeAntiJoin(ExpressionPtr left,
                                       ExpressionPtr right,
                                       Predicate predicate) {
  auto node = NewNode();
  node->kind_ = ExprKind::kAntiJoin;
  node->left_ = std::move(left);
  node->right_ = std::move(right);
  node->predicate_ = std::move(predicate);
  return node;
}

ExpressionPtr Expression::MakeAggregate(ExpressionPtr child,
                                        std::vector<size_t> group_by,
                                        AggregateFunction f) {
  auto node = NewNode();
  node->kind_ = ExprKind::kAggregate;
  node->left_ = std::move(child);
  node->group_by_ = std::move(group_by);
  node->aggregate_ = f;
  return node;
}

}  // namespace expdb
