#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cdw/table.h"
#include "sql/ast.h"

/// \file join_plan.h
/// Hash equi-join planning for the two-table DML statements (MERGE,
/// UPDATE ... FROM, DELETE ... USING). The executor's nested loop evaluates
/// the join predicate on every target x source pair; when the predicate is
/// a conjunction of `target_col = source_col` keys plus residual conjuncts
/// that each read one side, EquiJoin finds the same TRUE pairs by hashing
/// the smaller input and streaming the other once, reading key cells in
/// place (Table::At) instead of materialising and evaluating every pair.
///
/// The contract is "same pairs, same first error". Plan() declines (returns
/// nullopt) on any predicate it cannot prove safe; Run() returns false,
/// before reporting a single pair, on any runtime surprise that the nested
/// loop might turn into an error (a residual that errors or is not boolean,
/// a key cell whose type disagrees with its column's declared type). Either
/// way the caller runs its nested loop, which stays the reference semantics.
/// See DESIGN.md "CDW join planning".

namespace hyperq::cdw {

/// One input of a two-table statement: a table and the alias (or table
/// name) its columns are visible under.
struct JoinSide {
  std::string alias;
  const Table* table = nullptr;
};

class EquiJoin {
 public:
  /// Value families whose Value::Hash agrees with the evaluator's equality.
  /// FLOAT (NaN compares equal to everything) and DECIMAL (scale alignment
  /// falls back to doubles on overflow) are deliberately absent.
  enum class KeyClass : uint8_t { kBoolean, kInt, kString, kDate, kTimestamp };

  /// Splits `predicate` over (target, source) into equi-keys and one-sided
  /// residuals. Never errors: nullopt means "use the nested loop".
  static std::optional<EquiJoin> Plan(const sql::Expr* predicate, const JoinSide& target,
                                      const JoinSide& source);

  /// Calls `on_match(t, s)` for every target row t < `target_rows` and every
  /// source row s with `source_active[s]` set (every row when null) on which
  /// the predicate is TRUE, in no particular order, and adds the number of
  /// (target, source) pairs whose keys were compared to `*pairs_examined`.
  /// Returns false, having reported nothing, when the plan cannot vouch for
  /// the outcome.
  bool Run(size_t target_rows, const std::vector<uint8_t>* source_active,
           const std::function<void(size_t t, size_t s)>& on_match,
           uint64_t* pairs_examined) const;

 private:
  struct Key {
    size_t column[2];  ///< key column on the target (0) and source (1) side
    KeyClass key_class;
  };
  /// A row that passed its side's residuals, with the hash of its key.
  struct HashedRow {
    uint32_t row;
    uint64_t hash;
  };

  EquiJoin(const JoinSide& target, const JoinSide& source) : sides_{target, source} {}

  /// Adds `conjunct` as a key when it is `target_col = source_col` over one
  /// key class.
  bool AddKey(const sql::Expr& conjunct);

  /// Checks every considered row's key cells against their key class, then
  /// keeps the rows with non-NULL keys on which every residual of `side` is
  /// TRUE. False on a misfit cell, an erroring or non-boolean residual.
  bool ScanSide(int side, size_t rows, const std::vector<uint8_t>* active,
                std::vector<HashedRow>* out) const;

  JoinSide sides_[2];
  std::vector<Key> keys_;
  std::vector<const sql::Expr*> residuals_[2];
};

}  // namespace hyperq::cdw
