#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "hyperq/data_converter.h"
#include "hyperq/quality.h"
#include "legacy/row_format.h"
#include "types/date.h"

/// Quarantine differential across the two staging sinks: with a data-quality
/// gate armed, converting the same chunks once with CSV staging and once with
/// HQB1 staging must divert exactly the same rows — byte-identical quarantine
/// streams (`ConvertedChunk::qrtn`), the same surviving row count, the same
/// RecordErrors and the same ChunkQuality counters. The staged bytes differ by
/// design (text vs typed columns; staging_diff_test compares what lands); the
/// gate's decisions must not. Plain converters are also held to the
/// interpretive ConvertReference. Layouts, specs and rows come from a seeded
/// PRNG so failures reproduce; the generators inject NULLs into notnull
/// columns, out-of-range numbers, over-long and off-charset strings, corrupt
/// binary records and vartext arity mismatches, plain and schema-drifted.

namespace hyperq::core {
namespace {

using legacy::DataFormat;
using types::Field;
using types::Schema;
using types::TypeDesc;
using types::TypeId;
using types::Value;

constexpr char kLegacyDelimiter = '|';

TypeDesc RandomTypeDesc(common::Random* rng) {
  switch (rng->NextBounded(12)) {
    case 0: return TypeDesc::Boolean();
    case 1: return TypeDesc::Int8();
    case 2: return TypeDesc::Int16();
    case 3: return TypeDesc::Int32();
    case 4: return TypeDesc::Int64();
    case 5: return TypeDesc::Float64();
    case 6: return TypeDesc::Date();
    case 7: return TypeDesc::Timestamp();
    case 8: return TypeDesc::Decimal(18, static_cast<int32_t>(rng->NextBounded(4)));
    case 9: return TypeDesc::Char(1 + static_cast<int32_t>(rng->NextBounded(8)));
    case 10: return TypeDesc::Char(256 + static_cast<int32_t>(rng->NextBounded(16)));
    default: return TypeDesc::Varchar(1 + static_cast<int32_t>(rng->NextBounded(12)));
  }
}

/// Small magnitudes so `range` checks both pass and fail; strings drawn from
/// a pool holding CSV specials and characters outside the `charset` below.
Value RandomValue(const TypeDesc& type, common::Random* rng) {
  if (rng->NextBool(0.2)) return Value::Null();
  switch (type.id) {
    case TypeId::kBoolean: return Value::Boolean(rng->NextBool());
    case TypeId::kInt8: return Value::Int(rng->NextInRange(-100, 100));
    case TypeId::kInt16:
    case TypeId::kInt32:
    case TypeId::kInt64: return Value::Int(rng->NextInRange(-1000, 1000));
    case TypeId::kFloat64: return Value::Float((rng->NextDouble() - 0.5) * 2000.0);
    case TypeId::kDate:
      return Value::Date(types::DaysFromYmd(static_cast<int32_t>(rng->NextInRange(1990, 2030)),
                                            static_cast<int32_t>(rng->NextInRange(1, 12)),
                                            static_cast<int32_t>(rng->NextInRange(1, 28)))
                             .ValueOrDie());
    case TypeId::kTimestamp:
      return Value::Timestamp(rng->NextInRange(0, 2000000000LL) * 1000LL);
    case TypeId::kDecimal:
      return Value::Dec(types::Decimal(rng->NextInRange(-100000, 100000), type.scale));
    case TypeId::kChar:
    case TypeId::kVarchar: {
      static constexpr char kPool[] = "abcXY,\"\n|0 ";
      std::string text;
      const size_t len = rng->NextBounded(static_cast<size_t>(std::min(type.length, 12)) + 1);
      for (size_t i = 0; i < len; ++i) text.push_back(kPool[rng->NextBounded(sizeof(kPool) - 1)]);
      return Value::String(text);
    }
  }
  return Value::Null();
}

bool Orderable(TypeId id) {
  return id != TypeId::kBoolean && id != TypeId::kChar && id != TypeId::kVarchar;
}

/// A spec block for table `t` over `layout`'s columns (plus, when `extra` is
/// set, a column the layout lacks: dormant under drift). Every field gets 0-2
/// checks its type accepts; cross-field rules are sprinkled on top.
std::string RandomSpec(const Schema& layout, common::Random* rng, const char* extra) {
  std::vector<std::string> rules;
  std::vector<std::string> orderable;
  for (const Field& field : layout.fields()) {
    std::vector<std::string> checks;
    if (rng->NextBool(0.3)) checks.push_back("notnull");
    if (rng->NextBool(0.2)) checks.push_back("nullrate<=0.5");
    if (Orderable(field.type.id)) {
      orderable.push_back(field.name);
      if (rng->NextBool(0.5)) {
        const int64_t lo = rng->NextInRange(-600, 0);
        checks.push_back("range[" + std::to_string(lo) + "," + std::to_string(lo + 900) + "]");
      }
    } else if (field.type.id != TypeId::kBoolean) {
      if (rng->NextBool(0.4)) {
        checks.push_back("len[1," + std::to_string(rng->NextInRange(2, 9)) + "]");
      }
      if (rng->NextBool(0.3)) checks.push_back("charset[a-cX-Y0]");
      if (rng->NextBool(0.2)) checks.push_back("pattern[*a*]");
    }
    if (checks.empty()) continue;
    std::string rule = field.name + ":";
    for (size_t i = 0; i < checks.size(); ++i) rule += (i ? "," : "") + checks[i];
    rules.push_back(rule);
  }
  if (orderable.size() >= 2 && rng->NextBool(0.5)) {
    rules.push_back("pair:" + orderable[0] + (rng->NextBool() ? "<" : "<=") + orderable[1]);
  }
  if (layout.num_fields() >= 2 && rng->NextBool(0.5)) {
    rules.push_back("require:" + layout.field(0).name + " if " +
                    layout.field(layout.num_fields() - 1).name);
  }
  if (extra != nullptr) rules.push_back(std::string(extra) + ":notnull");
  if (rules.empty()) rules.push_back(layout.field(0).name + ":notnull");
  std::string spec = "t{";
  for (size_t i = 0; i < rules.size(); ++i) spec += (i ? ";" : "") + rules[i];
  return spec + "}";
}

std::vector<ConversionInput> RandomBinaryInputs(const Schema& layout, common::Random* rng) {
  std::vector<ConversionInput> inputs;
  uint64_t row_number = 1;
  for (size_t chunk = 0; chunk < 3; ++chunk) {
    legacy::BinaryRowCodec codec(layout);
    common::ByteBuffer payload;
    const uint32_t nrows = 1 + static_cast<uint32_t>(rng->NextBounded(20));
    for (uint32_t i = 0; i < nrows; ++i) {
      types::Row row;
      for (const Field& field : layout.fields()) row.push_back(RandomValue(field.type, rng));
      EXPECT_TRUE(codec.EncodeRow(row, &payload).ok());
    }
    std::vector<uint8_t> bytes = payload.vector();
    // One chunk in four is corrupted: the tail record fails wire decode
    // after earlier rows were checked (and maybe quarantined).
    if (rng->NextBool(0.25)) bytes.resize(bytes.size() - 1 - rng->NextBounded(bytes.size() / 3));
    ConversionInput input;
    input.order_index = chunk;
    input.first_row_number = row_number;
    input.chunk.chunk_seq = chunk;
    input.chunk.row_count = nrows;
    input.chunk.payload = std::move(bytes);
    row_number += nrows;
    inputs.push_back(std::move(input));
  }
  return inputs;
}

std::vector<ConversionInput> RandomVartextInputs(size_t nfields, common::Random* rng) {
  static constexpr char kPool[] = "abcXY,\"\n0 ";
  std::vector<ConversionInput> inputs;
  uint64_t row_number = 1;
  for (size_t chunk = 0; chunk < 3; ++chunk) {
    common::ByteBuffer payload;
    const uint32_t nrows = 1 + static_cast<uint32_t>(rng->NextBounded(20));
    for (uint32_t i = 0; i < nrows; ++i) {
      const size_t arity = rng->NextBool(0.15) ? 1 + rng->NextBounded(nfields + 2) : nfields;
      legacy::VartextRecord record;
      for (size_t f = 0; f < arity; ++f) {
        legacy::VartextField field;
        field.null = rng->NextBool(0.2);
        if (!field.null) {
          const size_t len = rng->NextBounded(10);
          for (size_t c = 0; c < len; ++c) {
            field.text.push_back(kPool[rng->NextBounded(sizeof(kPool) - 1)]);
          }
        }
        record.push_back(std::move(field));
      }
      EXPECT_TRUE(legacy::EncodeVartextRecord(record, kLegacyDelimiter, &payload).ok());
    }
    ConversionInput input;
    input.order_index = chunk;
    input.first_row_number = row_number;
    input.chunk.chunk_seq = chunk;
    input.chunk.row_count = nrows;
    input.chunk.payload = payload.vector();
    row_number += nrows;
    inputs.push_back(std::move(input));
  }
  return inputs;
}

/// Totals across a whole test, so a generator that stops producing
/// violations or errors fails loudly instead of passing vacuously.
struct Coverage {
  uint64_t quarantined = 0;
  uint64_t errors = 0;
  uint64_t clean = 0;
};

void ExpectSameGateOutcome(const ConvertedChunk& a, const ConvertedChunk& b,
                           bool compare_staged) {
  EXPECT_EQ(a.rows_in, b.rows_in);
  EXPECT_EQ(a.rows_out, b.rows_out);
  EXPECT_EQ(std::string(a.qrtn.AsSlice().ToStringView()),
            std::string(b.qrtn.AsSlice().ToStringView()));
  if (compare_staged) {
    EXPECT_EQ(std::string(a.csv.AsSlice().ToStringView()),
              std::string(b.csv.AsSlice().ToStringView()));
  }
  ASSERT_EQ(a.errors.size(), b.errors.size());
  for (size_t e = 0; e < a.errors.size(); ++e) {
    EXPECT_EQ(a.errors[e].row_number, b.errors[e].row_number) << "error " << e;
    EXPECT_EQ(a.errors[e].code, b.errors[e].code) << "error " << e;
    EXPECT_EQ(a.errors[e].field, b.errors[e].field) << "error " << e;
    EXPECT_EQ(a.errors[e].message, b.errors[e].message) << "error " << e;
  }
  const ChunkQuality& qa = a.quality;
  const ChunkQuality& qb = b.quality;
  EXPECT_EQ(qa.rows_checked, qb.rows_checked);
  EXPECT_EQ(qa.rows_quarantined, qb.rows_quarantined);
  for (int k = 0; k < kNumQualityKinds; ++k) {
    EXPECT_EQ(qa.violations_by_kind[k], qb.violations_by_kind[k]) << "kind " << k;
  }
  EXPECT_EQ(qa.violations_by_id, qb.violations_by_id);
  EXPECT_EQ(qa.field_nulls, qb.field_nulls);
}

/// Converts every input through the CSV- and HQB1-staged converters (and,
/// when `reference` is set, the interpretive path of the CSV one) and
/// demands identical gate outcomes chunk by chunk.
void ExpectSinksAgree(const DataConverter& csv, const DataConverter& hqb1, bool reference,
                      const std::vector<ConversionInput>& inputs, Coverage* coverage) {
  for (const ConversionInput& input : inputs) {
    SCOPED_TRACE("chunk " + std::to_string(input.chunk.chunk_seq));
    auto c = csv.Convert(input);
    auto b = hqb1.Convert(input);
    ASSERT_EQ(c.ok(), b.ok()) << c.status().ToString() << " vs " << b.status().ToString();
    if (!c.ok()) {
      EXPECT_EQ(c.status().ToString(), b.status().ToString());
      continue;
    }
    ExpectSameGateOutcome(*c, *b, /*compare_staged=*/false);
    if (reference) {
      auto r = csv.ConvertReference(input);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ExpectSameGateOutcome(*c, *r, /*compare_staged=*/true);
    }
    coverage->quarantined += c->quality.rows_quarantined;
    coverage->errors += c->errors.size();
    coverage->clean += c->rows_out;
  }
}

TableQualitySpec ParseTable(const std::string& text) {
  auto spec = ParseQualitySpec(text);
  EXPECT_TRUE(spec.ok()) << text << ": " << spec.status().ToString();
  const TableQualitySpec* table = FindTableQuality(*spec, "t");
  EXPECT_NE(table, nullptr);
  return *table;
}

Schema RandomBinaryLayout(common::Random* rng) {
  Schema layout;
  const size_t nfields = 1 + rng->NextBounded(7);
  for (size_t i = 0; i < nfields; ++i) {
    layout.AddField(Field("F" + std::to_string(i), RandomTypeDesc(rng)));
  }
  return layout;
}

Schema VartextLayout(size_t nfields) {
  Schema layout;
  for (size_t i = 0; i < nfields; ++i) {
    layout.AddField(Field("F" + std::to_string(i), TypeDesc::Varchar(12)));
  }
  return layout;
}

/// Type-stable drift of `target`: fields shuffled, one dropped (when there
/// are two or more), and an unknown field X added at a random position.
Schema DriftOf(const Schema& target, const TypeDesc& extra_type, common::Random* rng) {
  std::vector<Field> fields = target.fields();
  for (size_t i = fields.size(); i > 1; --i) std::swap(fields[i - 1], fields[rng->NextBounded(i)]);
  if (fields.size() >= 2) fields.erase(fields.begin() + rng->NextBounded(fields.size()));
  fields.insert(fields.begin() + rng->NextBounded(fields.size() + 1), Field("X", extra_type));
  Schema source;
  for (const Field& field : fields) source.AddField(field);
  return source;
}

void ExpectCoverage(const Coverage& coverage) {
  EXPECT_GT(coverage.quarantined, 0u);
  EXPECT_GT(coverage.errors, 0u);
  EXPECT_GT(coverage.clean, 0u);
}

TEST(QuarantineDiffTest, BinaryInputSinksQuarantineIdentically) {
  Coverage coverage;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    common::Random rng(seed);
    Schema layout = RandomBinaryLayout(&rng);
    TableQualitySpec table = ParseTable(RandomSpec(layout, &rng, nullptr));
    auto csv = DataConverter::Create(layout, DataFormat::kBinary, kLegacyDelimiter, {},
                                     cdw::StagingFormat::kCsv, &table);
    auto hqb1 = DataConverter::Create(layout, DataFormat::kBinary, kLegacyDelimiter, {},
                                      cdw::StagingFormat::kBinary, &table);
    ASSERT_TRUE(csv.ok()) << csv.status().ToString();
    ASSERT_TRUE(hqb1.ok()) << hqb1.status().ToString();
    ExpectSinksAgree(*csv, *hqb1, /*reference=*/true, RandomBinaryInputs(layout, &rng),
                     &coverage);
  }
  ExpectCoverage(coverage);
}

TEST(QuarantineDiffTest, VartextInputSinksQuarantineIdentically) {
  Coverage coverage;
  for (uint64_t seed = 100; seed < 160; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    common::Random rng(seed);
    Schema layout = VartextLayout(1 + rng.NextBounded(6));
    TableQualitySpec table = ParseTable(RandomSpec(layout, &rng, nullptr));
    auto csv = DataConverter::Create(layout, DataFormat::kVartext, kLegacyDelimiter, {},
                                     cdw::StagingFormat::kCsv, &table);
    auto hqb1 = DataConverter::Create(layout, DataFormat::kVartext, kLegacyDelimiter, {},
                                      cdw::StagingFormat::kBinary, &table);
    ASSERT_TRUE(csv.ok()) << csv.status().ToString();
    ASSERT_TRUE(hqb1.ok()) << hqb1.status().ToString();
    ExpectSinksAgree(*csv, *hqb1, /*reference=*/true,
                     RandomVartextInputs(layout.num_fields(), &rng), &coverage);
  }
  ExpectCoverage(coverage);
}

TEST(QuarantineDiffTest, DriftedBinaryInputSinksQuarantineIdentically) {
  Coverage coverage;
  for (uint64_t seed = 200; seed < 260; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    common::Random rng(seed);
    Schema target = RandomBinaryLayout(&rng);
    Schema source = DriftOf(target, RandomTypeDesc(&rng), &rng);
    // The spec names target columns; one the drift dropped goes dormant.
    TableQualitySpec table = ParseTable(RandomSpec(source, &rng, "GONE"));
    auto csv = DataConverter::CreateRemapped(source, target, DataFormat::kBinary,
                                             kLegacyDelimiter, {}, cdw::StagingFormat::kCsv,
                                             &table);
    auto hqb1 = DataConverter::CreateRemapped(source, target, DataFormat::kBinary,
                                              kLegacyDelimiter, {},
                                              cdw::StagingFormat::kBinary, &table);
    ASSERT_TRUE(csv.ok()) << csv.status().ToString();
    ASSERT_TRUE(hqb1.ok()) << hqb1.status().ToString();
    ExpectSinksAgree(*csv, *hqb1, /*reference=*/false, RandomBinaryInputs(source, &rng),
                     &coverage);
  }
  ExpectCoverage(coverage);
}

TEST(QuarantineDiffTest, DriftedVartextInputSinksQuarantineIdentically) {
  Coverage coverage;
  for (uint64_t seed = 300; seed < 360; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    common::Random rng(seed);
    Schema target = VartextLayout(1 + rng.NextBounded(6));
    Schema source = DriftOf(target, TypeDesc::Varchar(12), &rng);
    TableQualitySpec table = ParseTable(RandomSpec(source, &rng, "GONE"));
    auto csv = DataConverter::CreateRemapped(source, target, DataFormat::kVartext,
                                             kLegacyDelimiter, {}, cdw::StagingFormat::kCsv,
                                             &table);
    auto hqb1 = DataConverter::CreateRemapped(source, target, DataFormat::kVartext,
                                              kLegacyDelimiter, {},
                                              cdw::StagingFormat::kBinary, &table);
    ASSERT_TRUE(csv.ok()) << csv.status().ToString();
    ASSERT_TRUE(hqb1.ok()) << hqb1.status().ToString();
    ExpectSinksAgree(*csv, *hqb1, /*reference=*/false,
                     RandomVartextInputs(source.num_fields(), &rng), &coverage);
  }
  ExpectCoverage(coverage);
}

}  // namespace
}  // namespace hyperq::core
