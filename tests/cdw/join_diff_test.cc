#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cdw/executor.h"
#include "common/random.h"

/// Seeded differential: the hash equi-join (join_plan.h) against the
/// executor's nested loop for MERGE, UPDATE ... FROM and DELETE ... USING.
/// Each case runs twice over identical random tables: once with an
/// equi-key predicate the planner accepts, once with a semantically
/// identical predicate it declines (`NOT (T.a <> S.b)` for each key), which
/// is the nested-loop oracle. Table contents in order, counts and the
/// first returned Status must agree; join_pairs_examined shows which path
/// ran.

namespace hyperq::cdw {
namespace {

using common::Random;
using common::Status;
using types::Decimal;
using types::Field;
using types::Row;
using types::Schema;
using types::TypeDesc;
using types::Value;

constexpr int kSeeds = 120;

/// TGT has a NOT NULL column the statements write from nullable SRC.V, so
/// update and insert branches can fail mid-statement.
Schema TargetSchema() {
  Schema s;
  s.AddField(Field("K", TypeDesc::Int64()));
  s.AddField(Field("NAME", TypeDesc::Varchar(8)));
  s.AddField(Field("V", TypeDesc::Int64(), /*nullable=*/false));
  return s;
}

Schema SourceSchema() {
  Schema s;
  s.AddField(Field("K", TypeDesc::Int64()));
  s.AddField(Field("NAME", TypeDesc::Varchar(8)));
  s.AddField(Field("V", TypeDesc::Int64()));
  s.AddField(Field("HQ_ROWNUM", TypeDesc::Int64()));
  s.AddField(Field("CODE", TypeDesc::Varchar(8)));
  s.AddField(Field("D", TypeDesc::Decimal(10, 2)));
  return s;
}

Value MaybeNull(Random* rng, double p_null, Value v) {
  return rng->NextBool(p_null) ? Value::Null() : std::move(v);
}

Value SmallKey(Random* rng, int domain) {
  return MaybeNull(rng, 0.15, Value::Int(static_cast<int64_t>(rng->NextBounded(domain))));
}

Value SmallName(Random* rng) {
  static const char* const kNames[] = {"ab", "cd", "ef"};
  return MaybeNull(rng, 0.15, Value::String(kNames[rng->NextBounded(3)]));
}

struct Tables {
  std::vector<Row> target;
  std::vector<Row> source;
};

/// Empty tables now and then; otherwise small key domains, so duplicate
/// keys on either side (and so multi-match errors) are common.
Tables RandomTables(uint64_t seed) {
  Random rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  Tables t;
  const int domain = 2 + static_cast<int>(rng.NextBounded(10));
  const size_t target_rows = rng.NextBool(0.1) ? 0 : rng.NextBounded(30);
  const size_t source_rows = rng.NextBool(0.1) ? 0 : rng.NextBounded(12);
  for (size_t r = 0; r < target_rows; ++r) {
    t.target.push_back({SmallKey(&rng, domain), SmallName(&rng),
                        Value::Int(static_cast<int64_t>(rng.NextBounded(5)))});
  }
  for (size_t r = 0; r < source_rows; ++r) {
    const int64_t k = static_cast<int64_t>(rng.NextBounded(domain));
    // CODE mostly parses as a number; now and then it does not.
    Value code = Value::String(rng.NextBool(0.2) ? "x" + std::to_string(k) : std::to_string(k));
    // D hits integral values and values between them.
    Value d = Value::Dec(Decimal(k * 100 + (rng.NextBool(0.3) ? 50 : 0), 2));
    t.source.push_back({SmallKey(&rng, domain), SmallName(&rng),
                        MaybeNull(&rng, 0.1, Value::Int(static_cast<int64_t>(rng.NextBounded(9)))),
                        Value::Int(static_cast<int64_t>(r + 1)), MaybeNull(&rng, 0.1, code),
                        MaybeNull(&rng, 0.1, d)});
  }
  return t;
}

/// Which path a form must take when its statement succeeds.
enum class Path {
  kHash,    ///< the planner accepts it and nothing at run time stops it
  kNested,  ///< the planner declines it
  kEither,  ///< accepted, but a residual that errors on some row sends it back
};

/// One statement under test: `predicate` is the join predicate the planner
/// sees, `oracle` the same predicate in a form it declines.
struct Form {
  std::string predicate;
  std::string oracle;
  Path path;
};

std::vector<Form> Forms(Random* rng) {
  const int lo = 1 + static_cast<int>(rng->NextBounded(6));
  const int hi = lo + static_cast<int>(rng->NextBounded(6));
  const std::string range =
      "S.HQ_ROWNUM BETWEEN " + std::to_string(lo) + " AND " + std::to_string(hi);
  return {
      {"T.K = S.K", "NOT (T.K <> S.K)", Path::kHash},
      {"T.NAME = S.NAME", "NOT (T.NAME <> S.NAME)", Path::kHash},
      {"T.K = S.K AND S.NAME = T.NAME", "NOT (T.K <> S.K) AND NOT (S.NAME <> T.NAME)",
       Path::kHash},
      {"S.K = T.K AND " + range, "NOT (S.K <> T.K) AND " + range, Path::kHash},
      {"T.K = S.K AND T.V > 1 AND S.V IS NOT NULL",
       "NOT (T.K <> S.K) AND T.V > 1 AND S.V IS NOT NULL", Path::kHash},
      // A residual that fails to parse some CODE values: the nested loop
      // raises it wherever it first meets such a row, so the hash path must
      // step aside whenever one exists.
      {"T.K = S.K AND S.CODE > 0", "NOT (T.K <> S.K) AND S.CODE > 0", Path::kEither},
      // Fallbacks: the comparison coerces VARCHAR to a number and can fail;
      // INT against DECIMAL hashes differently while comparing equal; an
      // unqualified K is ambiguous.
      {"T.K = S.CODE", "NOT (T.K <> S.CODE)", Path::kNested},
      {"T.K = S.D", "NOT (T.K <> S.D)", Path::kNested},
      {"K = S.K", "NOT (K <> S.K)", Path::kNested},
  };
}

struct Outcome {
  Status status;
  ExecResult result;
  std::vector<Row> target;
};

class JoinDiffTest : public ::testing::Test {
 protected:
  /// Runs `sql` over fresh copies of `tables`.
  static Outcome Run(const Tables& tables, const std::string& sql, bool enforce_unique) {
    Catalog catalog;
    auto target = catalog.CreateTable("TGT", TargetSchema(), {"K"}, /*unique=*/true).ValueOrDie();
    auto source = catalog.CreateTable("SRC", SourceSchema()).ValueOrDie();
    EXPECT_TRUE(target->AppendRows(tables.target).ok());
    EXPECT_TRUE(source->AppendRows(tables.source).ok());
    Executor executor(&catalog);
    ExecOptions options;
    options.enforce_unique_primary = enforce_unique;
    auto result = executor.ExecuteSql(sql, options);
    Outcome out;
    out.status = result.status();
    if (result.ok()) out.result = std::move(result).ValueOrDie();
    for (size_t r = 0; r < target->num_rows(); ++r) out.target.push_back(target->GetRow(r));
    return out;
  }

  /// Pairs on which `predicate` is TRUE, by the SELECT join's nested loop:
  /// what the hash path examines (all its key candidates match).
  static int64_t TruePairs(const Tables& tables, const std::string& predicate,
                           const std::string& source_filter) {
    std::string sql = "SELECT COUNT(*) FROM TGT T JOIN SRC S ON " + predicate;
    if (!source_filter.empty()) sql += " WHERE " + source_filter;
    Outcome out = Run(tables, sql, false);
    EXPECT_TRUE(out.status.ok()) << sql << ": " << out.status.ToString();
    return out.status.ok() ? out.result.rows[0][0].int_value() : -1;
  }

  static void ExpectSame(const Outcome& hashed, const Outcome& oracle, const std::string& sql) {
    EXPECT_EQ(hashed.status.ToString(), oracle.status.ToString()) << sql;
    EXPECT_EQ(hashed.result.rows_inserted, oracle.result.rows_inserted) << sql;
    EXPECT_EQ(hashed.result.rows_updated, oracle.result.rows_updated) << sql;
    EXPECT_EQ(hashed.result.rows_deleted, oracle.result.rows_deleted) << sql;
    ASSERT_EQ(hashed.target.size(), oracle.target.size()) << sql;
    for (size_t r = 0; r < hashed.target.size(); ++r) {
      for (size_t c = 0; c < hashed.target[r].size(); ++c) {
        EXPECT_EQ(hashed.target[r][c], oracle.target[r][c])
            << sql << " row " << r << " col " << c << ": " << hashed.target[r][c].ToString()
            << " vs " << oracle.target[r][c].ToString();
      }
    }
  }

  /// Runs the statement built by `make(predicate)` in both forms.
  template <typename Make>
  void Check(const Tables& tables, const Form& form, Make make, const std::string& source_filter,
             bool enforce_unique) {
    const std::string sql = make(form.predicate);
    const std::string oracle_sql = make(form.oracle);
    Outcome hashed = Run(tables, sql, enforce_unique);
    Outcome oracle = Run(tables, oracle_sql, enforce_unique);
    ExpectSame(hashed, oracle, sql);
    if (!hashed.status.ok()) return;
    if (form.path == Path::kHash) {
      ++hashed_runs_;
      EXPECT_EQ(static_cast<int64_t>(hashed.result.join_pairs_examined),
                TruePairs(tables, form.oracle, source_filter))
          << sql;
    } else if (form.path == Path::kNested) {
      EXPECT_EQ(hashed.result.join_pairs_examined, oracle.result.join_pairs_examined) << sql;
    }
  }

  int hashed_runs_ = 0;
};

TEST_F(JoinDiffTest, MergeMatchesNestedLoop) {
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(seed);
    const Tables tables = RandomTables(seed);
    // No source filter, the adaptive row range, or a filter that fails to
    // parse some CODE values (the nested loop raises that in source order).
    const int lo = 1 + static_cast<int>(rng.NextBounded(8));
    const std::string filters[] = {
        "", "HQ_ROWNUM BETWEEN " + std::to_string(lo) + " AND " + std::to_string(lo + 4),
        "CODE > 0"};
    const std::string& filter = filters[rng.NextBounded(3)];
    const bool filtered = !filter.empty();
    const std::string source =
        filtered ? "(SELECT * FROM SRC WHERE " + filter + ") S" : std::string("SRC S");
    const bool enforce_unique = rng.NextBool(0.3);
    for (const Form& form : Forms(&rng)) {
      Check(
          tables, form,
          [&](const std::string& on) {
            return "MERGE INTO TGT T USING " + source + " ON " + on +
                   " WHEN MATCHED THEN UPDATE SET V = S.V, NAME = S.NAME"
                   " WHEN NOT MATCHED THEN INSERT (K, NAME, V) VALUES (S.K, S.NAME, S.V)";
          },
          filtered ? "S." + filter : "", enforce_unique);
    }
  }
  EXPECT_GT(hashed_runs_, kSeeds);
}

TEST_F(JoinDiffTest, MergeOracleExaminesEveryPair) {
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Tables tables = RandomTables(seed);
    Outcome oracle = Run(tables,
                         "MERGE INTO TGT T USING SRC S ON NOT (T.K <> S.K) "
                         "WHEN NOT MATCHED THEN INSERT (K, V) VALUES (S.K, 0)",
                         false);
    if (!oracle.status.ok()) continue;
    EXPECT_EQ(oracle.result.join_pairs_examined, tables.target.size() * tables.source.size());
  }
}

TEST_F(JoinDiffTest, UpdateFromMatchesNestedLoop) {
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(seed + 1000);
    const Tables tables = RandomTables(seed + 1000);
    const bool enforce_unique = rng.NextBool(0.3);
    for (const Form& form : Forms(&rng)) {
      Check(
          tables, form,
          [](const std::string& where) {
            return "UPDATE TGT T SET V = S.V, NAME = S.NAME FROM SRC S WHERE " + where;
          },
          "", enforce_unique);
    }
  }
  EXPECT_GT(hashed_runs_, kSeeds);
}

TEST_F(JoinDiffTest, DeleteUsingMatchesNestedLoop) {
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(seed + 2000);
    const Tables tables = RandomTables(seed + 2000);
    for (const Form& form : Forms(&rng)) {
      Check(
          tables, form,
          [](const std::string& where) { return "DELETE FROM TGT T USING SRC S WHERE " + where; },
          "", false);
    }
  }
  EXPECT_GT(hashed_runs_, kSeeds);
}

/// A key cell whose value disagrees with its column's declared type (tables
/// take rows as given) is a runtime surprise: the hash path steps aside and
/// the nested loop raises the coercion error at its own place.
TEST_F(JoinDiffTest, MisfitKeyCellFallsBackToNestedLoop) {
  Tables tables;
  tables.target = {{Value::Int(1), Value::String("ab"), Value::Int(0)}};
  tables.source = {{Value::String("zz"), Value::String("ab"), Value::Int(1), Value::Int(1),
                    Value::Null(), Value::Null()}};
  const std::string sql = "DELETE FROM TGT T USING SRC S WHERE T.K = S.K";
  Outcome hashed = Run(tables, sql, false);
  Outcome oracle = Run(tables, "DELETE FROM TGT T USING SRC S WHERE NOT (T.K <> S.K)", false);
  ExpectSame(hashed, oracle, sql);
  EXPECT_FALSE(hashed.status.ok());
}

/// The hash path is pinned by its work counter, not by timing: a 10-row
/// MERGE into a 20k-row target with unique keys examines one pair per
/// source row (max bucket 1); the nested-loop form examines all 200k.
TEST_F(JoinDiffTest, HashMergeExaminesBucketsNotTheCrossProduct) {
  constexpr int64_t kTargetRows = 20000;
  Tables tables;
  for (int64_t k = 0; k < kTargetRows; ++k) {
    tables.target.push_back({Value::Int(k), Value::String("n"), Value::Int(0)});
  }
  for (int64_t i = 0; i < 10; ++i) {
    const int64_t k = i < 8 ? i * 2000 + 7 : kTargetRows + i;  // 8 updates, 2 inserts
    tables.source.push_back({Value::Int(k), Value::String("m"), Value::Int(i), Value::Int(i + 1),
                             Value::Null(), Value::Null()});
  }
  auto merge = [](const std::string& on) {
    return "MERGE INTO TGT T USING SRC S ON " + on +
           " WHEN MATCHED THEN UPDATE SET V = S.V"
           " WHEN NOT MATCHED THEN INSERT (K, NAME, V) VALUES (S.K, S.NAME, S.V)";
  };
  Outcome hashed = Run(tables, merge("T.K = S.K"), true);
  Outcome oracle = Run(tables, merge("NOT (T.K <> S.K)"), true);
  ExpectSame(hashed, oracle, merge("T.K = S.K"));
  ASSERT_TRUE(hashed.status.ok()) << hashed.status.ToString();
  EXPECT_EQ(hashed.result.rows_updated, 8u);
  EXPECT_EQ(hashed.result.rows_inserted, 2u);
  constexpr uint64_t kMaxBucket = 1;
  EXPECT_LE(hashed.result.join_pairs_examined, 10 * kMaxBucket);
  EXPECT_EQ(oracle.result.join_pairs_examined, 10u * kTargetRows);
}

}  // namespace
}  // namespace hyperq::cdw
