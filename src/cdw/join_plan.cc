#include "cdw/join_plan.h"

#include <unordered_map>

#include "cdw/expr_eval.h"
#include "common/string_util.h"

namespace hyperq::cdw {

using sql::Expr;
using sql::ExprKind;
using types::TypeId;
using types::Value;

namespace {

constexpr int kTarget = 0;
constexpr int kSource = 1;
constexpr uint32_t kEndOfChain = UINT32_MAX;

/// Flattens an AND tree into its conjuncts. Their evaluation order does not
/// matter once none of them can raise an error.
void SplitConjuncts(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kBinary) {
    const auto& b = static_cast<const sql::BinaryExpr&>(e);
    if (b.op == sql::BinaryOp::kAnd) {
      SplitConjuncts(*b.left, out);
      SplitConjuncts(*b.right, out);
      return;
    }
  }
  out->push_back(&e);
}

/// The side a column reference resolves to with both sides bound, as
/// EvalContext::ResolveColumn resolves it; -1 when it would not resolve or
/// would be ambiguous.
int ResolveSide(const sql::ColumnRefExpr& col, const JoinSide (&sides)[2], size_t* index) {
  int found = -1;
  for (int side = kTarget; side <= kSource; ++side) {
    if (!col.table.empty() && !common::EqualsIgnoreCase(sides[side].alias, col.table)) continue;
    const int idx = sides[side].table->schema().FieldIndex(col.column);
    if (idx < 0) continue;
    if (found >= 0) return -1;
    found = side;
    *index = static_cast<size_t>(idx);
  }
  return found;
}

/// ORs (1 << side) into `*mask` for every column `e` reads; false when one
/// of them would not resolve.
bool CollectSides(const Expr& e, const JoinSide (&sides)[2], unsigned* mask) {
  auto all = [&](const std::vector<sql::ExprPtr>& parts) {
    for (const auto& p : parts) {
      if (!CollectSides(*p, sides, mask)) return false;
    }
    return true;
  };
  switch (e.kind) {
    case ExprKind::kColumnRef: {
      size_t index = 0;
      const int side = ResolveSide(static_cast<const sql::ColumnRefExpr&>(e), sides, &index);
      if (side < 0) return false;
      *mask |= 1u << side;
      return true;
    }
    case ExprKind::kLiteral:
    case ExprKind::kPlaceholder:
    case ExprKind::kStar:
      return true;
    case ExprKind::kUnary:
      return CollectSides(*static_cast<const sql::UnaryExpr&>(e).operand, sides, mask);
    case ExprKind::kBinary: {
      const auto& b = static_cast<const sql::BinaryExpr&>(e);
      return CollectSides(*b.left, sides, mask) && CollectSides(*b.right, sides, mask);
    }
    case ExprKind::kFunction:
      return all(static_cast<const sql::FunctionExpr&>(e).args);
    case ExprKind::kCast:
      return CollectSides(*static_cast<const sql::CastExpr&>(e).operand, sides, mask);
    case ExprKind::kCase: {
      const auto& c = static_cast<const sql::CaseExpr&>(e);
      if (c.operand && !CollectSides(*c.operand, sides, mask)) return false;
      for (const auto& [when, then] : c.whens) {
        if (!CollectSides(*when, sides, mask) || !CollectSides(*then, sides, mask)) return false;
      }
      return !c.else_expr || CollectSides(*c.else_expr, sides, mask);
    }
    case ExprKind::kIsNull:
      return CollectSides(*static_cast<const sql::IsNullExpr&>(e).operand, sides, mask);
    case ExprKind::kInList: {
      const auto& in = static_cast<const sql::InListExpr&>(e);
      return CollectSides(*in.operand, sides, mask) && all(in.list);
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const sql::BetweenExpr&>(e);
      return CollectSides(*bt.operand, sides, mask) && CollectSides(*bt.low, sides, mask) &&
             CollectSides(*bt.high, sides, mask);
    }
  }
  return false;
}

std::optional<EquiJoin::KeyClass> KeyClassOf(TypeId id) {
  using KeyClass = EquiJoin::KeyClass;
  switch (id) {
    case TypeId::kBoolean:
      return KeyClass::kBoolean;
    case TypeId::kInt8:
    case TypeId::kInt16:
    case TypeId::kInt32:
    case TypeId::kInt64:
      return KeyClass::kInt;
    case TypeId::kChar:
    case TypeId::kVarchar:
      return KeyClass::kString;
    case TypeId::kDate:
      return KeyClass::kDate;
    case TypeId::kTimestamp:
      return KeyClass::kTimestamp;
    case TypeId::kFloat64:
    case TypeId::kDecimal:
      return std::nullopt;
  }
  return std::nullopt;
}

/// True when a non-NULL cell holds the representation of its key class, so
/// comparing it with the other side's key cannot coerce (and so cannot
/// fail) and Value::Hash agrees with the comparison.
bool Fits(const Value& v, EquiJoin::KeyClass key_class) {
  switch (key_class) {
    case EquiJoin::KeyClass::kBoolean:
      return v.is_boolean();
    case EquiJoin::KeyClass::kInt:
      return v.is_int();
    case EquiJoin::KeyClass::kString:
      return v.is_string();
    case EquiJoin::KeyClass::kDate:
      return v.is_date();
    case EquiJoin::KeyClass::kTimestamp:
      return v.is_timestamp();
  }
  return false;
}

}  // namespace

std::optional<EquiJoin> EquiJoin::Plan(const Expr* predicate, const JoinSide& target,
                                       const JoinSide& source) {
  if (predicate == nullptr || target.table == nullptr || source.table == nullptr) {
    return std::nullopt;
  }
  // Colliding aliases make qualified references ambiguous pair by pair.
  if (common::EqualsIgnoreCase(target.alias, source.alias)) return std::nullopt;
  // Row indexes are kept as uint32_t.
  if (target.table->num_rows() >= kEndOfChain || source.table->num_rows() >= kEndOfChain) {
    return std::nullopt;
  }
  EquiJoin plan(target, source);
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(*predicate, &conjuncts);
  for (const Expr* conjunct : conjuncts) {
    if (plan.AddKey(*conjunct)) continue;
    unsigned mask = 0;
    if (!CollectSides(*conjunct, plan.sides_, &mask) || mask == 3u) return std::nullopt;
    // Column-free conjuncts ride with the source side.
    plan.residuals_[mask == 1u ? kTarget : kSource].push_back(conjunct);
  }
  if (plan.keys_.empty()) return std::nullopt;
  return plan;
}

bool EquiJoin::AddKey(const Expr& conjunct) {
  if (conjunct.kind != ExprKind::kBinary) return false;
  const auto& eq = static_cast<const sql::BinaryExpr&>(conjunct);
  if (eq.op != sql::BinaryOp::kEq || eq.left->kind != ExprKind::kColumnRef ||
      eq.right->kind != ExprKind::kColumnRef) {
    return false;
  }
  size_t left_index = 0;
  size_t right_index = 0;
  const int left = ResolveSide(static_cast<const sql::ColumnRefExpr&>(*eq.left), sides_,
                               &left_index);
  const int right = ResolveSide(static_cast<const sql::ColumnRefExpr&>(*eq.right), sides_,
                                &right_index);
  if (left < 0 || right < 0 || left == right) return false;
  Key key{};
  key.column[left] = left_index;
  key.column[right] = right_index;
  const auto target_class =
      KeyClassOf(sides_[kTarget].table->schema().field(key.column[kTarget]).type.id);
  const auto source_class =
      KeyClassOf(sides_[kSource].table->schema().field(key.column[kSource]).type.id);
  if (!target_class || target_class != source_class) return false;
  key.key_class = *target_class;
  keys_.push_back(key);
  return true;
}

bool EquiJoin::ScanSide(int side, size_t rows, const std::vector<uint8_t>* active,
                        std::vector<HashedRow>* out) const {
  const Table& table = *sides_[side].table;
  const std::vector<const Expr*>& residuals = residuals_[side];
  out->reserve(rows);
  types::Row row;
  for (size_t r = 0; r < rows; ++r) {
    if (active != nullptr && (*active)[r] == 0) continue;
    // The nested loop compares every considered row's keys, whatever the
    // residuals say, so every key cell must be checked before any filtering.
    uint64_t hash = 0;
    bool null_key = false;
    for (const Key& key : keys_) {
      const Value& cell = table.At(r, key.column[side]);
      if (cell.is_null()) {
        null_key = true;
        continue;
      }
      if (!Fits(cell, key.key_class)) return false;
      hash = hash * 0x9E3779B97F4A7C15ULL + cell.Hash();
    }
    bool keep = !null_key;  // NULL keys never match
    if (!residuals.empty()) {
      row = table.GetRow(r);
      EvalContext ctx;
      ctx.AddBinding(sides_[side].alias, &table.schema(), &row);
      // Every residual runs on every row: one that errors anywhere would
      // error in the nested loop too, even beside a FALSE conjunct.
      for (const Expr* residual : residuals) {
        common::Result<Value> v = EvaluateExpr(*residual, ctx);
        if (!v.ok() || !(v->is_null() || v->is_boolean())) return false;
        keep = keep && v->is_boolean() && v->boolean();
      }
    }
    if (keep) out->push_back(HashedRow{static_cast<uint32_t>(r), hash});
  }
  return true;
}

bool EquiJoin::Run(size_t target_rows, const std::vector<uint8_t>* source_active,
                   const std::function<void(size_t t, size_t s)>& on_match,
                   uint64_t* pairs_examined) const {
  std::vector<HashedRow> rows[2];
  if (!ScanSide(kTarget, target_rows, nullptr, &rows[kTarget]) ||
      !ScanSide(kSource, sides_[kSource].table->num_rows(), source_active, &rows[kSource])) {
    return false;
  }
  // Build on the smaller input, stream the larger one once.
  const int build = rows[kSource].size() <= rows[kTarget].size() ? kSource : kTarget;
  const int probe = 1 - build;
  const std::vector<HashedRow>& built = rows[build];
  std::unordered_map<uint64_t, uint32_t> chain_head;
  chain_head.reserve(built.size());
  std::vector<uint32_t> chain_next(built.size(), kEndOfChain);
  for (size_t i = built.size(); i-- > 0;) {
    auto [it, inserted] = chain_head.try_emplace(built[i].hash, static_cast<uint32_t>(i));
    if (!inserted) {
      chain_next[i] = it->second;
      it->second = static_cast<uint32_t>(i);
    }
  }
  const Table& target = *sides_[kTarget].table;
  const Table& source = *sides_[kSource].table;
  for (const HashedRow& p : rows[probe]) {
    auto it = chain_head.find(p.hash);
    if (it == chain_head.end()) continue;
    for (uint32_t i = it->second; i != kEndOfChain; i = chain_next[i]) {
      const size_t t = build == kTarget ? built[i].row : p.row;
      const size_t s = build == kSource ? built[i].row : p.row;
      ++*pairs_examined;
      bool equal = true;
      for (const Key& key : keys_) {
        equal = equal &&
                target.At(t, key.column[kTarget]).Compare(source.At(s, key.column[kSource])) == 0;
      }
      if (equal) on_match(t, s);
    }
  }
  return true;
}

}  // namespace hyperq::cdw
