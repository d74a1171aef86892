#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "types/schema.h"
#include "types/value.h"

/// \file quality.h
/// Declarative data-quality gate (ROADMAP "Data-quality gate and quarantine
/// path"): per-table constraint specs parsed off the hot path and compiled
/// into the per-type conversion decodes (shared by both staging sinks) as
/// fused per-field check ops. Violating rows are diverted record-atomically into a
/// quarantine CSV stream (loaded into HQ_QRTN_<job> through the same
/// upload→COPY tail as staging data) carrying the raw field values plus a
/// reason code richer than ET codes: constraint id, kind, column, violated
/// bound, and the source row number.
///
/// Spec grammar (whitespace around tokens is ignored):
///
///   spec        := table-block*
///   table-block := table-name '{' rule (';' rule)* '}'
///   rule        := column ':' check (',' check)*
///                | 'pair' ':' column ('<' | '<=') column
///                | 'require' ':' column 'if' column
///   check       := 'notnull'
///                | 'nullrate<=' number            (aggregate ceiling, no row
///                                                  quarantine; policy input)
///                | 'range[' [number] ',' [number] ']'   (numeric/date/ts)
///                | 'len[' [int] ',' [int] ']'           (string byte length)
///                | 'charset[' set ']'   (chars + 'a-z' ranges; ']' illegal)
///                | 'pattern[' glob ']'  (literals, '?' = any one, '*' = any run)
///
/// Example:
///   orders{O_TOTAL:notnull,range[0,100000];O_ID:len[1,16],charset[A-Z0-9_],
///   pattern[ORD*];pair:O_SHIP<=O_DUE;require:O_SHIP if O_TOTAL}
///
/// Semantics (mirrored exactly by the interpretive reference validator in
/// DataConverter::ConvertReference — the differential suite diffs the two):
///   - `range` bounds are in the column's kernel value space: integers and
///     floats as-is, DECIMAL in *scaled* units (bounds are pre-multiplied by
///     10^scale at compile), DATE in days since epoch, TIMESTAMP in
///     microseconds. Only numeric/date/timestamp columns accept `range` and
///     `pair`; any column accepts `notnull`/`nullrate`/`require`; only
///     CHAR/VARCHAR accept `len`/`charset`/`pattern` (CHAR values are checked
///     as wired, including padding).
///   - Per row, each constraint is violated at most once; a row's quarantine
///     reason is its FIRST violation in evaluation order: fields in layout
///     order (notnull, then range | len,charset,pattern), then cross-field
///     rules in spec order. All violations are counted for the
///     hyperq_quality_violations_total{constraint=...} counters.
///   - NULL fields never fail value checks (only notnull / require see them);
///     a nullrate ceiling is evaluated per job / per micro-batch over decoded
///     rows, breaches feed the degradation policy instead of quarantining.

namespace hyperq::core {

/// Constraint kinds double as quarantine reason-code families.
enum class QualityKind : uint8_t {
  kNone = 0,
  kNotNull,
  kNullRate,
  kRange,
  kLength,
  kCharset,
  kPattern,
  kOrderedPair,
  kConditionalRequired,
};
inline constexpr int kNumQualityKinds = 9;
std::string_view QualityKindName(QualityKind kind);

/// Gate policy knobs (HyperQOptions::quality).
struct QualityOptions {
  /// Declarative constraint spec (grammar above; "" = gate off). One spec
  /// serves the whole node: each job applies its target table's block.
  std::string spec;
  /// false: quarantine-and-continue (default). true: abort-over-threshold —
  /// an import job fails when its violation rate exceeds
  /// `max_violation_rate` (or any nullrate ceiling is breached); a streaming
  /// micro-batch whose rate exceeds `batch_max_violation_rate` is rejected
  /// (rows dropped, quarantine still shipped) without poisoning the stream.
  bool abort_over_threshold = false;
  double max_violation_rate = 1.0;        ///< quarantined/received, per job
  double batch_max_violation_rate = 1.0;  ///< quarantined/received, per batch
};

/// One parsed (not yet column-resolved) constraint.
struct QualityConstraintSpec {
  QualityKind kind = QualityKind::kNone;
  std::string column;   ///< checked column (pair: left side)
  std::string column2;  ///< pair: right side; require: the 'if' column
  bool strict = false;  ///< pair: '<' vs '<='
  bool has_min = false;
  bool has_max = false;
  double min = 0;  ///< range/len lower bound; nullrate ceiling lives in max
  double max = 0;
  std::string text;  ///< charset set / pattern glob, verbatim
};

struct TableQualitySpec {
  std::string table;
  std::vector<QualityConstraintSpec> constraints;
};

struct QualitySpec {
  std::vector<TableQualitySpec> tables;
};

/// Parses the full multi-table spec. Errors name the offending token; an
/// empty spec yields an empty table list (gate off).
common::Result<QualitySpec> ParseQualitySpec(std::string_view spec);

/// Case-insensitive lookup of a table's block (nullptr = no gate for it).
const TableQualitySpec* FindTableQuality(const QualitySpec& spec, std::string_view table);

/// Hard limits keeping the per-chunk scratch fixed-size (alloc-free).
inline constexpr size_t kMaxQualityFields = 128;
inline constexpr size_t kMaxQualityConstraints = 64;
inline constexpr size_t kMaxQualityCaptures = 32;

/// The check ops run per field inside the conversion decodes, and the
/// bench-smoke overhead gate (<2% on clean data) holds them to that. The
/// default preset is RelWithDebInfo (-O2), whose inliner may still decline
/// plain `inline` helpers once a decode body or the translation unit hits
/// its size limits. Force-inline the hot helpers so the clean path always
/// costs a few predicted branches instead of call overhead.
#define HQ_QC_FORCE_INLINE inline __attribute__((always_inline))


/// Compiled per-field check ops: a POD the kernels read through
/// FieldPlan::checks. Everything is pre-resolved — bounds pre-scaled,
/// charset as a 256-bit mask, pattern as a pointer into the compiled
/// program pool — so the hot path does no lookups and no allocation.
struct QualityFieldChecks {
  uint16_t field_index = 0;
  int16_t capture_slot = -1;  ///< cross-field capture (-1 = none)
  bool not_null = false;
  bool count_nulls = false;  ///< field has a nullrate ceiling
  bool has_range = false;
  bool has_length = false;
  bool has_charset = false;
  bool has_pattern = false;
  uint16_t id_not_null = 0;
  uint16_t id_range = 0;
  uint16_t id_length = 0;
  uint16_t id_charset = 0;
  uint16_t id_pattern = 0;
  double min = 0;
  double max = 0;
  uint32_t min_len = 0;
  uint32_t max_len = 0;
  uint64_t charset[4] = {0, 0, 0, 0};
  const char* pattern = nullptr;  ///< into CompiledQuality's stable pool
  uint32_t pattern_len = 0;
};

/// Compiled cross-field rule, evaluated once per decoded row.
struct QualityCrossCheck {
  QualityKind kind = QualityKind::kOrderedPair;
  uint16_t id = 0;
  uint16_t field = 0;   ///< reporting column (pair/require: left column)
  int16_t slot_a = -1;  ///< pair: left; require: the required column
  int16_t slot_b = -1;  ///< pair: right; require: the 'if' column
  bool strict = false;
};

/// Everything quarantine emission and reporting need about one constraint,
/// precomputed so the per-violating-row work is two buffer appends.
struct QualityConstraintInfo {
  QualityKind kind = QualityKind::kNone;
  std::string column;  ///< resolved column name
  std::string bound;   ///< human-readable violated bound, e.g. "range[0,10]"
  /// Ready-made CSV tail ",<id>,<kind>,<column>,<bound>" with CSV escaping
  /// already applied — appended verbatim after the quarantined record.
  std::string csv_suffix;
};

struct QualityScratch;

/// A table block compiled against a concrete wire layout.
class CompiledQuality {
 public:
  /// Resolves column names against `layout`. Unknown columns are an error
  /// unless `allow_missing_columns` (the schema-drift case: constraints whose
  /// columns left the wire layout go dormant for the drift window).
  static common::Result<CompiledQuality> Compile(const TableQualitySpec& spec,
                                                 const types::Schema& layout,
                                                 bool allow_missing_columns,
                                                 char csv_delimiter = ',');

  /// Per-field ops for kernels; nullptr when the field has no checks and no
  /// capture (the clean-path branch tests exactly this pointer).
  const QualityFieldChecks* field_checks(size_t field) const {
    return fields_[field].field_index == kNoChecks ? nullptr : &fields_[field];
  }
  const std::vector<QualityCrossCheck>& cross_checks() const { return cross_; }
  size_t num_constraints() const { return infos_.size(); }
  const QualityConstraintInfo& constraint(size_t id) const { return infos_[id]; }
  uint8_t num_captures() const { return num_captures_; }
  size_t num_fields() const { return fields_.size(); }

  struct NullRateCeiling {
    uint16_t field = 0;
    uint16_t id = 0;
    double ceiling = 0;
  };
  const std::vector<NullRateCeiling>& null_rate_ceilings() const { return null_rates_; }

  /// Interpretive check of one decoded value — the reference validator used
  /// by ConvertReference. Feeds the same scratch the kernels do and must
  /// agree with them bit for bit (the quarantine differential gates this).
  void ValidateValue(size_t field, const types::Value& value, QualityScratch* q) const;

 private:
  /// field_index sentinel marking "no checks for this field".
  static constexpr uint16_t kNoChecks = 0xffff;

  std::vector<QualityFieldChecks> fields_;  ///< one per layout field
  std::vector<QualityCrossCheck> cross_;
  std::vector<QualityConstraintInfo> infos_;
  std::vector<NullRateCeiling> null_rates_;
  /// Backing store for QualityFieldChecks::pattern: heap array so the
  /// pointers survive moves of this object.
  std::unique_ptr<char[]> pattern_pool_;
  uint8_t num_captures_ = 0;
};

/// Per-chunk check state: fixed-size, stack-allocatable, zeroed wholesale.
/// Row-local results are buffered and merged only at row commit so a record
/// that later fails wire decode contributes nothing to the aggregates.
struct QualityScratch {
  // --- row-local (reset by BeginRow) ---
  QualityKind row_kind = QualityKind::kNone;  ///< first violation (kNone = clean)
  uint16_t row_id = 0;
  uint16_t nviol = 0;
  uint16_t nnull = 0;
  uint16_t viol_ids[kMaxQualityConstraints];
  uint8_t viol_kinds[kMaxQualityConstraints];
  uint16_t null_fields[kMaxQualityFields];
  double cap_val[kMaxQualityCaptures];
  uint8_t cap_null[kMaxQualityCaptures];
  // --- chunk aggregates (merged by CommitRowStats) ---
  uint64_t rows_checked = 0;
  uint64_t rows_quarantined = 0;
  uint64_t violations_by_kind[kNumQualityKinds] = {};
  uint64_t violations_by_id[kMaxQualityConstraints] = {};
  uint32_t field_nulls[kMaxQualityFields] = {};
  uint8_t num_captures = 0;
  /// Cross-check table cached out of CompiledQuality: QcFinishRow runs per
  /// row, and reading it here is one load from the scratch instead of a
  /// pointer chase through CompiledQuality's vector.
  const QualityCrossCheck* cross = nullptr;
  size_t ncross = 0;

  void Init(const CompiledQuality& cq) {
    num_captures = cq.num_captures();
    cross = cq.cross_checks().data();
    ncross = cq.cross_checks().size();
  }

  /// Row reset, shaped for the clean path: row_id is only read when
  /// row_kind != kNone and QcViolate writes both together, so it needs no
  /// per-row reset; the capture loop is guarded so specs without cross
  /// checks pay one predicted branch.
  __attribute__((always_inline)) void BeginRow() {
    row_kind = QualityKind::kNone;
    nviol = 0;
    nnull = 0;
    if (num_captures != 0) {
      for (uint8_t s = 0; s < num_captures; ++s) cap_null[s] = 1;
    }
  }

  /// Merges the row-local buffers into the chunk aggregates. Call exactly
  /// once per successfully decoded record (clean or quarantined), never for
  /// a record that failed wire decode. A clean row pays one increment and
  /// one predicted branch.
  __attribute__((always_inline)) void CommitRowStats() {
    ++rows_checked;
    if ((nviol | nnull) != 0) {
      for (uint16_t i = 0; i < nviol; ++i) {
        ++violations_by_id[viol_ids[i]];
        ++violations_by_kind[viol_kinds[i]];
      }
      for (uint16_t i = 0; i < nnull; ++i) ++field_nulls[null_fields[i]];
    }
  }
};

/// Records one constraint violation for the in-progress row. First call
/// decides the row's quarantine reason; every call feeds the counters.
HQ_QC_FORCE_INLINE void QcViolate(QualityScratch* q, QualityKind kind, uint16_t id) {
  if (q->row_kind == QualityKind::kNone) {
    q->row_kind = kind;
    q->row_id = id;
  }
  if (q->nviol < kMaxQualityConstraints) {
    q->viol_ids[q->nviol] = id;
    q->viol_kinds[q->nviol] = static_cast<uint8_t>(kind);
    ++q->nviol;
  }
}

/// NULL-field bookkeeping shared by every typed entry point.
HQ_QC_FORCE_INLINE void QcNullField(const QualityFieldChecks& c, QualityScratch* q) {
  if (c.count_nulls && q->nnull < kMaxQualityFields) q->null_fields[q->nnull++] = c.field_index;
  if (c.not_null) QcViolate(q, QualityKind::kNotNull, c.id_not_null);
}

/// Iterative glob matcher: '*' any run, '?' any one byte, else literal.
/// No recursion, no allocation, O(n*m) worst case on adversarial patterns.
/// Raw pointer + length (not string_view): QcString's callers hold both.
HQ_QC_FORCE_INLINE bool QcGlobMatch(const char* p, uint32_t plen, const char* s, size_t n) {
  size_t pi = 0;
  size_t si = 0;
  size_t star_p = static_cast<size_t>(-1);
  size_t star_s = 0;
  while (si < n) {
    if (pi < plen && (p[pi] == '?' || p[pi] == s[si])) {
      ++pi;
      ++si;
    } else if (pi < plen && p[pi] == '*') {
      star_p = ++pi;
      star_s = si;
    } else if (star_p != static_cast<size_t>(-1)) {
      pi = star_p;
      si = ++star_s;
    } else {
      return false;
    }
  }
  while (pi < plen && p[pi] == '*') ++pi;
  return pi == plen;
}

/// Numeric-family check op (ints, float, decimal-unscaled, date days,
/// timestamp micros — bounds are pre-scaled to the same unit at compile).
HQ_QC_FORCE_INLINE void QcNumeric(const QualityFieldChecks& c, bool null, double v, QualityScratch* q) {
  if (null) {
    QcNullField(c, q);
    return;
  }
  if (c.capture_slot >= 0) {
    q->cap_val[c.capture_slot] = v;
    q->cap_null[c.capture_slot] = 0;
  }
  if (c.has_range && !(v >= c.min && v <= c.max)) QcViolate(q, QualityKind::kRange, c.id_range);
}

/// String-family check op (CHAR/VARCHAR, and every vartext field). Takes a
/// raw pointer + length rather than string_view: the decodes and the
/// vartext split already hold both.
HQ_QC_FORCE_INLINE void QcString(const QualityFieldChecks& c, bool null, const char* s, size_t n,
                                 QualityScratch* q) {
  if (null) {
    QcNullField(c, q);
    return;
  }
  if (c.capture_slot >= 0) q->cap_null[c.capture_slot] = 0;
  if (c.has_length && !(n >= c.min_len && n <= c.max_len)) {
    QcViolate(q, QualityKind::kLength, c.id_length);
  }
  if (c.has_charset) {
    for (size_t i = 0; i < n; ++i) {
      const uint8_t u = static_cast<uint8_t>(s[i]);
      if ((c.charset[u >> 6] & (1ull << (u & 63))) == 0) {
        QcViolate(q, QualityKind::kCharset, c.id_charset);
        break;
      }
    }
  }
  if (c.has_pattern && !QcGlobMatch(c.pattern, c.pattern_len, s, n)) {
    QcViolate(q, QualityKind::kPattern, c.id_pattern);
  }
}

/// Presence-only check op (boolean: notnull/nullrate/require apply, no value
/// checks compile against it).
HQ_QC_FORCE_INLINE void QcPresence(const QualityFieldChecks& c, bool null, QualityScratch* q) {
  if (null) {
    QcNullField(c, q);
    return;
  }
  if (c.capture_slot >= 0) q->cap_null[c.capture_slot] = 0;
}

/// Cross-field rules, evaluated after all fields of a decoded row ran.
HQ_QC_FORCE_INLINE void QcFinishRow(QualityScratch* q) {
  for (size_t i = 0; i < q->ncross; ++i) {
    const QualityCrossCheck& x = q->cross[i];
    bool violated;
    if (x.kind == QualityKind::kOrderedPair) {
      if (q->cap_null[x.slot_a] != 0 || q->cap_null[x.slot_b] != 0) continue;
      const double a = q->cap_val[x.slot_a];
      const double b = q->cap_val[x.slot_b];
      violated = x.strict ? !(a < b) : !(a <= b);
    } else {  // kConditionalRequired: slot_a required when slot_b present
      violated = q->cap_null[x.slot_b] == 0 && q->cap_null[x.slot_a] != 0;
    }
    if (violated) QcViolate(q, x.kind, x.id);
  }
}

/// Moves the just-emitted CSV record [mark, csv.size()) into the quarantine
/// stream with the row's reason-code tail, and rolls the staging output back
/// — the record-atomic diversion of the CSV family. Two appends, no alloc.
inline void QcQuarantineCsvRow(const CompiledQuality& cq, QualityScratch* q,
                               common::ByteBuffer* csv, size_t mark,
                               common::ByteBuffer* qrtn) {
  const QualityConstraintInfo& info = cq.constraint(q->row_id);
  // Strip the record's trailing '\n'; the reason tail re-adds it.
  qrtn->AppendBytes(csv->data() + mark, csv->size() - mark - 1);
  qrtn->AppendString(info.csv_suffix);
  qrtn->AppendByte('\n');
  csv->resize(mark);
  ++q->rows_quarantined;
}

/// Per-chunk quality outcome carried on ConvertedChunk (vectors are sized
/// once per chunk when the gate is on; the per-row path never touches them).
struct ChunkQuality {
  uint64_t rows_checked = 0;
  uint64_t rows_quarantined = 0;
  uint64_t violations_by_kind[kNumQualityKinds] = {};
  std::vector<uint64_t> violations_by_id;
  std::vector<uint32_t> field_nulls;
};

/// Copies the chunk aggregates out of the scratch (end-of-chunk, cold).
void FinishChunkQuality(const CompiledQuality& cq, const QualityScratch& q, ChunkQuality* out);

/// Per-job (or per-batch) quality report: the aggregate the workload span
/// tables render and the degradation policy evaluates.
struct QualityJobReport {
  bool enabled = false;
  uint64_t rows_checked = 0;
  uint64_t rows_quarantined = 0;
  uint64_t violations_total = 0;
  double violation_rate = 0;  ///< rows_quarantined / rows_checked
  struct Constraint {
    uint16_t id = 0;
    QualityKind kind = QualityKind::kNone;
    std::string column;
    std::string bound;
    /// Row-constraints: violation count. nullrate: observed NULL count.
    uint64_t violations = 0;
    /// nullrate only: observed NULL fraction over decoded rows.
    double observed = 0;
    bool breached = false;
  };
  std::vector<Constraint> constraints;
};

/// Builds the report from job-side aggregates (violations_by_id sized to
/// num_constraints, field_nulls to num_fields).
QualityJobReport BuildQualityJobReport(const CompiledQuality& cq,
                                       const std::vector<uint64_t>& violations_by_id,
                                       const std::vector<uint64_t>& field_nulls,
                                       uint64_t rows_checked, uint64_t rows_quarantined);

}  // namespace hyperq::core
