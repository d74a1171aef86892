// hqcheck:hotpath
#include "hyperq/conversion_plan.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string_view>
#include <utility>

#include "cdw/staging_binary.h"
#include "hyperq/conversion_columnar.h"
#include "hyperq/quality.h"
#include "legacy/errors.h"
#include "legacy/row_format.h"
#include "types/date.h"

/// One decode per wire type, two sinks: each Decode<Type> reads the field's
/// wire bytes once, runs the fused quality check once, and hands the value
/// to a sink policy — CSV staging text or a typed HQB1 staging column. Two
/// chunk loops (binary input, vartext input) drive the decodes through a row
/// policy that owns where a record goes: straight into the CSV buffer, into
/// the HQB1 column builder, or — under schema drift — buffered per source
/// field and emitted in target order. Both loops share one record tail
/// (ChunkOutput): the quality verdict, record-atomic quarantine diversion,
/// row accounting and staging-growth counting.

namespace hyperq::core {

using common::ByteBuffer;
using common::ByteReader;
using common::Slice;
using common::Status;
using types::TypeId;

namespace {

// Mirrors the table in types/decimal.cc (kept private there on purpose: the
// plan replicates Decimal::ToString byte-for-byte without constructing one).
constexpr int64_t kPow10[] = {1LL,
                              10LL,
                              100LL,
                              1000LL,
                              10000LL,
                              100000LL,
                              1000000LL,
                              10000000LL,
                              100000000LL,
                              1000000000LL,
                              10000000000LL,
                              100000000000LL,
                              1000000000000LL,
                              10000000000000LL,
                              100000000000000LL,
                              1000000000000000LL,
                              10000000000000000LL,
                              100000000000000000LL,
                              1000000000000000000LL};

/// Appends one non-NULL CSV field with exactly EncodeCsvRecord's escaping:
/// empty strings are quoted (to stay distinct from NULL), and any text
/// containing the delimiter, '"', '\n' or '\r' is quoted with '"' doubled.
void AppendCsvText(std::string_view text, char delimiter, ByteBuffer* out) {
  bool needs_quotes = text.empty();
  for (char c : text) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') {
      needs_quotes = true;
      break;
    }
  }
  if (!needs_quotes) {
    out->AppendString(text);
    return;
  }
  out->AppendByte('"');
  // Emit runs ending at each '"' inclusive, then restart the next run AT the
  // quote so it is emitted twice ("" escape) without per-character appends.
  // Unchecked string_view construction instead of substr(): run <= i < size
  // always holds, and substr's pos>size bounds check would compile
  // __throw_out_of_range_fmt into the hot loop (caught by hqcheck's
  // hotpath-symbol proof).
  size_t run = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '"') {
      out->AppendString(std::string_view(text.data() + run, i - run + 1));
      run = i;
    }
  }
  out->AppendString(std::string_view(text.data() + run, text.size() - run));
  out->AppendByte('"');
}

template <typename Int>
void AppendIntText(Int v, char delimiter, ByteBuffer* out) {
  char buf[24];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  AppendCsvText(std::string_view(buf, static_cast<size_t>(r.ptr - buf)), delimiter, out);
}

void AppendFloatText(double v, char delimiter, ByteBuffer* out) {
  char buf[40];
  int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  AppendCsvText(std::string_view(buf, static_cast<size_t>(n)), delimiter, out);
}

void AppendDecimalText(int64_t unscaled, int32_t scale, char delimiter, ByteBuffer* out) {
  // Byte-identical to types::Decimal::ToString without the heap strings.
  bool neg = unscaled < 0;
  uint64_t mag =
      neg ? static_cast<uint64_t>(-(unscaled + 1)) + 1 : static_cast<uint64_t>(unscaled);
  uint64_t pow = static_cast<uint64_t>(kPow10[scale]);
  uint64_t int_part = mag / pow;
  uint64_t frac_part = mag % pow;
  char buf[48];
  char* p = buf;
  if (neg) *p++ = '-';
  p = std::to_chars(p, buf + sizeof(buf), int_part).ptr;
  if (scale > 0) {
    *p++ = '.';
    char fbuf[24];
    auto fr = std::to_chars(fbuf, fbuf + sizeof(fbuf), frac_part);
    auto flen = static_cast<size_t>(fr.ptr - fbuf);
    for (size_t i = flen; i < static_cast<size_t>(scale); ++i) *p++ = '0';
    std::memcpy(p, fbuf, flen);
    p += flen;
  }
  AppendCsvText(std::string_view(buf, static_cast<size_t>(p - buf)), delimiter, out);
}

void AppendDateText(types::DateDays days, char delimiter, ByteBuffer* out) {
  types::YearMonthDay ymd = types::YmdFromDays(days);
  char buf[32];
  int n = std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", ymd.year, ymd.month, ymd.day);
  AppendCsvText(std::string_view(buf, static_cast<size_t>(n)), delimiter, out);
}

void AppendTimestampText(types::TimestampMicros micros, char delimiter, ByteBuffer* out) {
  // Mirrors types::FormatTimestampIso including the negative-remainder fix.
  int64_t days = micros / 86400000000LL;
  int64_t rem = micros % 86400000000LL;
  if (rem < 0) {
    rem += 86400000000LL;
    --days;
  }
  types::YearMonthDay ymd = types::YmdFromDays(static_cast<types::DateDays>(days));
  int64_t secs = rem / 1000000LL;
  int64_t frac = rem % 1000000LL;
  char buf[48];
  int n = std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d.%06d", ymd.year,
                        ymd.month, ymd.day, static_cast<int>(secs / 3600),
                        static_cast<int>((secs / 60) % 60), static_cast<int>(secs % 60),
                        static_cast<int>(frac));
  AppendCsvText(std::string_view(buf, static_cast<size_t>(n)), delimiter, out);
}

using FieldPlan = ConversionPlan::FieldPlan;

// --- Sinks ----------------------------------------------------------------

/// CSV staging text: the value's CSV-escaped text. NULL emits nothing (an
/// empty field, distinct from the quoted empty string).
struct CsvTextSink {
  using Out = ByteBuffer;
  static ConversionPlan::FieldDecode<Out> DecodeOf(const FieldPlan& f) { return f.text_decode; }
  static void Null(Out*) {}
  static void Bool(const FieldPlan& f, bool v, Out* out) {
    AppendCsvText(v ? "1" : "0", f.csv_delimiter, out);
  }
  template <typename V>
  static void Int(const FieldPlan& f, V v, Out* out) {
    AppendIntText(v, f.csv_delimiter, out);
  }
  static void Float(const FieldPlan& f, double v, Out* out) {
    AppendFloatText(v, f.csv_delimiter, out);
  }
  static void Decimal(const FieldPlan& f, int64_t unscaled, Out* out) {
    AppendDecimalText(unscaled, f.scale, f.csv_delimiter, out);
  }
  static void Date(const FieldPlan& f, types::DateDays days, Out* out) {
    AppendDateText(days, f.csv_delimiter, out);
  }
  static void Timestamp(const FieldPlan& f, types::TimestampMicros ts, Out* out) {
    AppendTimestampText(ts, f.csv_delimiter, out);
  }
  static void Text(const FieldPlan& f, std::string_view text, Out* out) {
    AppendCsvText(text, f.csv_delimiter, out);
  }
  /// Buffered-cell protocol of the drift remap.
  static void Clear(Out* cell) { cell->clear(); }
  static void Copy(const Out& cell, Out* out) { out->AppendSlice(cell.AsSlice()); }
};

/// HQB1 staging column: the typed little-endian value at its CDW-mapped
/// staging width. NULL writes the zero-filled slot (nothing for varlen) and
/// marks the bitmap. CHAR wider than the CDW limit stages into a varlen
/// column, so the same Text call writes an unpadded varlen cell there.
struct Hqb1ColumnSink {
  using Out = ColumnSink;
  static ConversionPlan::FieldDecode<Out> DecodeOf(const FieldPlan& f) {
    return f.column_decode;
  }
  static void Null(Out* col) { col->AppendNull(); }
  static void Bool(const FieldPlan&, bool v, Out* col) { col->data.AppendByte(v ? 1 : 0); }
  static void Int(const FieldPlan&, int16_t v, Out* col) { col->data.AppendI16(v); }
  static void Int(const FieldPlan&, int32_t v, Out* col) { col->data.AppendI32(v); }
  static void Int(const FieldPlan&, int64_t v, Out* col) { col->data.AppendI64(v); }
  static void Float(const FieldPlan&, double v, Out* col) { col->data.AppendF64(v); }
  static void Decimal(const FieldPlan&, int64_t unscaled, Out* col) {
    col->data.AppendI64(unscaled);
  }
  static void Date(const FieldPlan&, types::DateDays days, Out* col) { col->data.AppendI32(days); }
  static void Timestamp(const FieldPlan&, types::TimestampMicros ts, Out* col) {
    col->data.AppendI64(ts);
  }
  static void Text(const FieldPlan&, std::string_view text, Out* col) {
    col->data.AppendString(text);
  }
  static void Clear(Out* cell) { cell->data.clear(); }
  static void Copy(const Out& cell, Out* col) { col->data.AppendSlice(cell.data.AsSlice()); }
};

// --- Decodes: one per wire TypeId, instantiated per sink ------------------

template <class Sink>
Status DecodeBoolean(const FieldPlan& f, ByteReader* body, bool null, typename Sink::Out* out,
                     QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(uint8_t b, body->ReadByte());
  if (f.checks != nullptr) QcPresence(*f.checks, null, q);
  if (null) {
    Sink::Null(out);
  } else {
    Sink::Bool(f, b != 0, out);
  }
  return Status::OK();
}

template <class Sink>
Status DecodeInt8(const FieldPlan& f, ByteReader* body, bool null, typename Sink::Out* out,
                  QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(int8_t v, body->ReadI8());
  if (f.checks != nullptr) QcNumeric(*f.checks, null, static_cast<double>(v), q);
  // BYTEINT stages as SMALLINT (the CDW has no 1-byte integer).
  if (null) {
    Sink::Null(out);
  } else {
    Sink::Int(f, static_cast<int16_t>(v), out);
  }
  return Status::OK();
}

template <class Sink>
Status DecodeInt16(const FieldPlan& f, ByteReader* body, bool null, typename Sink::Out* out,
                   QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(int16_t v, body->ReadI16());
  if (f.checks != nullptr) QcNumeric(*f.checks, null, static_cast<double>(v), q);
  if (null) {
    Sink::Null(out);
  } else {
    Sink::Int(f, v, out);
  }
  return Status::OK();
}

template <class Sink>
Status DecodeInt32(const FieldPlan& f, ByteReader* body, bool null, typename Sink::Out* out,
                   QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(int32_t v, body->ReadI32());
  if (f.checks != nullptr) QcNumeric(*f.checks, null, static_cast<double>(v), q);
  if (null) {
    Sink::Null(out);
  } else {
    Sink::Int(f, v, out);
  }
  return Status::OK();
}

template <class Sink>
Status DecodeInt64(const FieldPlan& f, ByteReader* body, bool null, typename Sink::Out* out,
                   QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(int64_t v, body->ReadI64());
  if (f.checks != nullptr) QcNumeric(*f.checks, null, static_cast<double>(v), q);
  if (null) {
    Sink::Null(out);
  } else {
    Sink::Int(f, v, out);
  }
  return Status::OK();
}

template <class Sink>
Status DecodeFloat64(const FieldPlan& f, ByteReader* body, bool null, typename Sink::Out* out,
                     QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(double v, body->ReadF64());
  if (f.checks != nullptr) QcNumeric(*f.checks, null, v, q);
  if (null) {
    Sink::Null(out);
  } else {
    Sink::Float(f, v, out);
  }
  return Status::OK();
}

template <class Sink>
Status DecodeDecimal(const FieldPlan& f, ByteReader* body, bool null, typename Sink::Out* out,
                     QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(int64_t unscaled, body->ReadI64());
  // Quality range bounds are pre-scaled to unscaled units at compile.
  if (f.checks != nullptr) QcNumeric(*f.checks, null, static_cast<double>(unscaled), q);
  if (null) {
    Sink::Null(out);
  } else {
    Sink::Decimal(f, unscaled, out);
  }
  return Status::OK();
}

template <class Sink>
Status DecodeDate(const FieldPlan& f, ByteReader* body, bool null, typename Sink::Out* out,
                  QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(int32_t enc, body->ReadI32());
  if (null) {
    if (f.checks != nullptr) QcNullField(*f.checks, q);
    Sink::Null(out);
    return Status::OK();
  }
  HQ_ASSIGN_OR_RETURN(types::DateDays days, legacy::LegacyDateDecode(enc));
  if (f.checks != nullptr) QcNumeric(*f.checks, false, static_cast<double>(days), q);
  Sink::Date(f, days, out);
  return Status::OK();
}

template <class Sink>
Status DecodeTimestamp(const FieldPlan& f, ByteReader* body, bool null, typename Sink::Out* out,
                       QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(Slice text, body->ReadSlice(legacy::kLegacyTimestampWidth));
  if (null) {
    if (f.checks != nullptr) QcNullField(*f.checks, q);
    Sink::Null(out);
    return Status::OK();
  }
  HQ_ASSIGN_OR_RETURN(types::TimestampMicros ts, types::ParseTimestampIso(text.ToStringView()));
  if (f.checks != nullptr) QcNumeric(*f.checks, false, static_cast<double>(ts), q);
  Sink::Timestamp(f, ts, out);
  return Status::OK();
}

template <class Sink>
Status DecodeChar(const FieldPlan& f, ByteReader* body, bool null, typename Sink::Out* out,
                  QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(Slice text, body->ReadSlice(static_cast<size_t>(f.length)));
  // CHAR is checked as wired, blank padding included (documented in quality.h).
  if (f.checks != nullptr) {
    QcString(*f.checks, null, reinterpret_cast<const char*>(text.data()), text.size(), q);
  }
  if (null) {
    Sink::Null(out);
  } else {
    Sink::Text(f, text.ToStringView(), out);
  }
  return Status::OK();
}

template <class Sink>
Status DecodeVarchar(const FieldPlan& f, ByteReader* body, bool null, typename Sink::Out* out,
                     QualityScratch* q) {
  HQ_ASSIGN_OR_RETURN(Slice text, body->ReadLengthPrefixed16());
  if (f.checks != nullptr) {
    QcString(*f.checks, null, reinterpret_cast<const char*>(text.data()), text.size(), q);
  }
  if (null) {
    Sink::Null(out);
  } else {
    Sink::Text(f, text.ToStringView(), out);
  }
  return Status::OK();
}

/// The one per-type table: both sink instantiations of the type's decode
/// plus its worst-case CSV text width.
struct DecodeInfo {
  ConversionPlan::FieldDecode<ByteBuffer> text;
  ConversionPlan::FieldDecode<ColumnSink> column;
  uint32_t width_hint;
};

DecodeInfo DecodeFor(const types::TypeDesc& type) {
  switch (type.id) {
    case TypeId::kBoolean:
      return {DecodeBoolean<CsvTextSink>, DecodeBoolean<Hqb1ColumnSink>, 1};
    case TypeId::kInt8:
      return {DecodeInt8<CsvTextSink>, DecodeInt8<Hqb1ColumnSink>, 4};
    case TypeId::kInt16:
      return {DecodeInt16<CsvTextSink>, DecodeInt16<Hqb1ColumnSink>, 6};
    case TypeId::kInt32:
      return {DecodeInt32<CsvTextSink>, DecodeInt32<Hqb1ColumnSink>, 11};
    case TypeId::kInt64:
      return {DecodeInt64<CsvTextSink>, DecodeInt64<Hqb1ColumnSink>, 20};
    case TypeId::kFloat64:
      return {DecodeFloat64<CsvTextSink>, DecodeFloat64<Hqb1ColumnSink>, 24};
    case TypeId::kDecimal:
      return {DecodeDecimal<CsvTextSink>, DecodeDecimal<Hqb1ColumnSink>, 21};
    case TypeId::kDate:
      return {DecodeDate<CsvTextSink>, DecodeDate<Hqb1ColumnSink>, 10};
    case TypeId::kTimestamp:
      return {DecodeTimestamp<CsvTextSink>, DecodeTimestamp<Hqb1ColumnSink>, 26};
    case TypeId::kChar:
      return {DecodeChar<CsvTextSink>, DecodeChar<Hqb1ColumnSink>,
              static_cast<uint32_t>(type.length) + 2};
    case TypeId::kVarchar:
      break;
  }
  // VARCHAR content rides in the payload bytes: no fixed width hint.
  return {DecodeVarchar<CsvTextSink>, DecodeVarchar<Hqb1ColumnSink>, 0};
}

/// Worst-case width of the trailing ",HQ_ROWNUM\n" suffix.
constexpr size_t kRowNumSuffixHint = 22;

// Cold per-bad-record error paths, out of line so every chunk-loop
// instantiation shares one copy. Each builds its message once per rejected
// record or failed chunk, never per value.
__attribute__((noinline)) void AddFormatViolation(uint64_t row_number, const Status& status,
                                                  std::vector<RecordError>* errors) {
  errors->push_back(RecordError{row_number, legacy::kErrFormatViolation, "",
                                status.message() + " (remainder of chunk skipped)"});
}

__attribute__((noinline)) void AddArityMismatch(uint64_t row_number, size_t nfields,
                                                size_t expected,
                                                std::vector<RecordError>* errors) {
  errors->push_back(
      RecordError{row_number, legacy::kErrFieldCountMismatch, "",
                  "vartext record has " + std::to_string(nfields) +          // hqcheck:allow(per-row-alloc)
                      " fields, layout expects " + std::to_string(expected)});  // hqcheck:allow(per-row-alloc)
}

__attribute__((noinline)) Status FramingError(const Status& status, uint64_t chunk_seq) {
  return status.WithContext("chunk " + std::to_string(chunk_seq));  // hqcheck:allow(per-row-alloc)
}

/// What both chunk loops share once a record has been read into the row
/// policy: the quality verdict, record-atomic quarantine diversion, row
/// accounting, and counting staging-buffer growth past its reservation.
template <class Rows>
class ChunkOutput {
 public:
  ChunkOutput(const ConversionPlan& plan, const CompiledQuality* cq,
              const ConversionInput& input, ConvertedChunk* out)
      : rows(plan, input, out),
        plan_(plan),
        cq_(cq),
        out_(out),
        capacity_(out->csv.vector().capacity()) {
    if (cq != nullptr) qs.Init(*cq);
  }

  void BeginRow() {
    if (cq_ != nullptr) qs.BeginRow();
    rows.BeginRow();
  }

  /// Ends a fully decoded record: commits it, or — when it violates a
  /// constraint — drops it from staging and re-renders it as CSV text into
  /// the quarantine stream (quarantine is always CSV diagnostics, even for
  /// HQB1 staging). `render(twin)` replays the record into a text row
  /// policy; it cannot fail on bytes that just decoded, and the check ops
  /// it re-runs only touch row-local scratch that CommitRowStats already
  /// merged and the next BeginRow resets.
  template <class Render>
  void EndRow(uint64_t row_number, Render&& render) {
    if (cq_ != nullptr) {
      QcFinishRow(&qs);
      qs.CommitRowStats();
      if (qs.row_kind != QualityKind::kNone) {
        rows.RollbackRow();
        if (!quarantine_) quarantine_.emplace(plan_, &out_->qrtn);
        quarantine_->BeginRow();
        if (render(&*quarantine_).ok()) {
          quarantine_->CommitRow(row_number, cq_->constraint(qs.row_id).csv_suffix);
          ++qs.rows_quarantined;
        } else {
          quarantine_->RollbackRow();
        }
        return;
      }
    }
    rows.CommitRow(row_number);
    ++out_->rows_out;
    CountGrowth();
  }

  /// Copies the chunk's quality aggregates out (also on a failed chunk).
  void FinishQuality() {
    if (cq_ != nullptr) FinishChunkQuality(*cq_, qs, &out_->quality);
  }

  Status Finish() {
    rows.Finish();
    CountGrowth();
    FinishQuality();
    return Status::OK();
  }

  Rows rows;
  QualityScratch qs;

 private:
  void CountGrowth() {
    const size_t capacity = out_->csv.vector().capacity();
    if (capacity != capacity_) {
      capacity_ = capacity;
      ++out_->csv_reallocs;
    }
  }

  const ConversionPlan& plan_;
  const CompiledQuality* cq_;
  ConvertedChunk* out_;
  size_t capacity_;
  /// Text twin of the row policy writing into out->qrtn, built on the
  /// chunk's first violating row.
  std::optional<typename Rows::TextTwin> quarantine_;
};

}  // namespace

// --- Row policies -----------------------------------------------------------

/// CSV staging: fields go straight into the output buffer; rollback is
/// truncation to the record's start.
class ConversionPlan::CsvRows {
 public:
  using Sink = CsvTextSink;
  using TextTwin = CsvRows;

  CsvRows(const ConversionPlan& plan, ByteBuffer* dest)
      : dest_(dest), delimiter_(plan.csv_delimiter_) {}
  CsvRows(const ConversionPlan& plan, const ConversionInput&, ConvertedChunk* out)
      : CsvRows(plan, &out->csv) {}

  void BeginRow() { mark_ = dest_->size(); }
  ByteBuffer* Field(size_t i, bool /*null*/) {
    if (i != 0) dest_->AppendByte(static_cast<uint8_t>(delimiter_));
    return dest_;
  }
  /// Seals the record: HQ_ROWNUM, then `tail` (a quarantine reason), '\n'.
  void CommitRow(uint64_t row_number, std::string_view tail = {}) {
    dest_->AppendByte(static_cast<uint8_t>(delimiter_));
    AppendIntText(row_number, delimiter_, dest_);
    if (!tail.empty()) dest_->AppendString(tail);
    dest_->AppendByte('\n');
  }
  void RollbackRow() { dest_->resize(mark_); }
  void Finish() {}

 private:
  ByteBuffer* dest_;
  char delimiter_;
  size_t mark_ = 0;
};

/// HQB1 staging: fields go into the chunk's column builder, which emits one
/// block at Finish.
class ConversionPlan::ColumnRows {
 public:
  using Sink = Hqb1ColumnSink;
  using TextTwin = CsvRows;

  // Every record carries at least its 2-byte length prefix, so a chunk
  // header claiming more rows than that cannot inflate the reservation.
  ColumnRows(const ConversionPlan& plan, const ConversionInput& input, ConvertedChunk* out)
      : builder_(plan.target_widths_,
                 static_cast<uint32_t>(
                     std::min<size_t>(input.chunk.row_count, input.chunk.payload.size() / 2))),
        header_(plan.header_template_),
        out_(&out->csv) {}

  void BeginRow() {}
  ColumnSink* Field(size_t i, bool /*null*/) { return builder_.col(i); }
  void CommitRow(uint64_t row_number, std::string_view /*tail*/ = {}) {
    builder_.CommitRow(row_number);
  }
  void RollbackRow() { builder_.RollbackRow(); }
  void Finish() { builder_.Finish(header_, out_); }

 private:
  ColumnarChunkBuilder builder_;
  const ByteBuffer& header_;
  ByteBuffer* out_;
};

/// Schema drift: each SOURCE field is buffered as a finished cell of the
/// inner policy's sink (escaped text, or typed staging bytes — the drift is
/// type-stable, so a matched source cell is the target cell), and the
/// record is emitted in TARGET order at commit; unmatched target slots are
/// NULL. Nothing reaches the inner policy before commit, so rollback has
/// nothing to undo.
template <class Inner>
class ConversionPlan::RemapRows {
 public:
  using Sink = typename Inner::Sink;
  using TextTwin = RemapRows<CsvRows>;

  template <class... Args>
  explicit RemapRows(const ConversionPlan& plan, Args&&... args)
      : inner_(plan, std::forward<Args>(args)...),
        out_source_(plan.out_source_),
        cells_(plan.fields_.size()),
        null_(plan.fields_.size(), 0) {}

  void BeginRow() { inner_.BeginRow(); }
  typename Sink::Out* Field(size_t i, bool null) {
    null_[i] = null ? 1 : 0;
    Sink::Clear(&cells_[i]);
    return &cells_[i];
  }
  void CommitRow(uint64_t row_number, std::string_view tail = {}) {
    for (size_t t = 0; t < out_source_.size(); ++t) {
      const int src = out_source_[t];
      const bool null = src < 0 || null_[static_cast<size_t>(src)] != 0;
      typename Sink::Out* out = inner_.Field(t, null);
      if (null) {
        Sink::Null(out);
      } else {
        Sink::Copy(cells_[static_cast<size_t>(src)], out);
      }
    }
    inner_.CommitRow(row_number, tail);
  }
  void RollbackRow() { inner_.RollbackRow(); }
  void Finish() { inner_.Finish(); }

 private:
  Inner inner_;
  const std::vector<int>& out_source_;
  std::vector<typename Sink::Out> cells_;
  std::vector<uint8_t> null_;
};

// --- Compilation --------------------------------------------------------------

ConversionPlan ConversionPlan::Compile(const types::Schema& layout, legacy::DataFormat format,
                                       char legacy_delimiter, cdw::CsvOptions csv_options,
                                       cdw::StagingFormat staging_format,
                                       const types::Schema* staging_schema) {
  ConversionPlan plan;
  plan.format_ = format;
  plan.legacy_delimiter_ = legacy_delimiter;
  plan.csv_delimiter_ = csv_options.delimiter;
  plan.indicator_bytes_ = (layout.num_fields() + 7) / 8;
  plan.fields_.reserve(layout.num_fields());
  size_t fixed = 0;
  for (const auto& field : layout.fields()) {
    DecodeInfo info = DecodeFor(field.type);
    FieldPlan fp;
    fp.text_decode = info.text;
    fp.column_decode = info.column;
    fp.scale = field.type.scale;
    fp.length = field.type.length;
    fp.csv_delimiter = csv_options.delimiter;
    plan.fields_.push_back(fp);
    fixed += info.width_hint;
    if (field.type.id == TypeId::kVarchar) plan.has_varwidth_ = true;
  }
  plan.per_row_hint_ = fixed + layout.num_fields() + kRowNumSuffixHint;
  if (staging_format == cdw::StagingFormat::kBinary && staging_schema != nullptr) {
    plan.AttachBinaryStaging(*staging_schema);
  }
  return plan;
}

ConversionPlan ConversionPlan::CompileRemapped(const types::Schema& source_layout,
                                               const types::Schema& target_layout,
                                               legacy::DataFormat format, char legacy_delimiter,
                                               cdw::CsvOptions csv_options,
                                               cdw::StagingFormat staging_format,
                                               const types::Schema* staging_schema) {
  // Decodes, indicator width and size hints all describe the SOURCE layout
  // (what arrives on the wire); block headers and column widths come from
  // the TARGET staging schema (what the staging table was created from).
  ConversionPlan plan = Compile(source_layout, format, legacy_delimiter, csv_options,
                                staging_format, staging_schema);
  plan.remapped_ = true;
  plan.out_source_.reserve(target_layout.num_fields());
  for (const auto& field : target_layout.fields()) {
    int src = source_layout.FieldIndex(field.name);
    plan.out_source_.push_back(src);
    if (src < 0) ++plan.nulled_targets_;
  }
  for (const auto& field : source_layout.fields()) {
    if (target_layout.FieldIndex(field.name) < 0) ++plan.dropped_sources_;
  }
  return plan;
}

void ConversionPlan::AttachBinaryStaging(const types::Schema& staging_schema) {
  staging_format_ = cdw::StagingFormat::kBinary;
  header_template_.clear();
  cdw::BuildBlockHeader(staging_schema, &header_template_);
  target_widths_.clear();
  target_widths_.reserve(staging_schema.num_fields());
  size_t fixed = 0;
  size_t nvarlen = 0;
  for (const auto& field : staging_schema.fields()) {
    auto w = static_cast<uint32_t>(cdw::BinaryFixedWidth(field.type.id, field.type.length));
    target_widths_.push_back(w);
    if (w == 0) {
      ++nvarlen;
    } else {
      fixed += w;
    }
  }
  per_row_binary_hint_ = fixed + 4 * nvarlen + (staging_schema.num_fields() + 7) / 8;
}

void ConversionPlan::AttachQuality(const CompiledQuality* quality) {
  quality_ = quality;
  for (size_t i = 0; i < fields_.size(); ++i) {
    fields_[i].checks =
        quality != nullptr && i < quality->num_fields() ? quality->field_checks(i) : nullptr;
  }
}

size_t ConversionPlan::EstimateCsvBytes(uint32_t row_count, size_t payload_bytes) const {
  size_t estimate;
  if (format_ == legacy::DataFormat::kVartext) {
    // Text is payload-carried; budget for quoting expansion plus the
    // per-record rownum suffix.
    estimate = payload_bytes + payload_bytes / 4 + row_count * kRowNumSuffixHint + 64;
  } else {
    estimate = static_cast<size_t>(row_count) * per_row_hint_ +
               (has_varwidth_ ? payload_bytes : 0) + 64;
  }
  // Chunk headers may carry row_count == 0; never reserve below the old
  // payload-proportional floor.
  return std::max(estimate, payload_bytes + payload_bytes / 8);
}

size_t ConversionPlan::EstimateStagingBytes(uint32_t row_count, size_t payload_bytes) const {
  if (staging_format_ != cdw::StagingFormat::kBinary) {
    return EstimateCsvBytes(row_count, payload_bytes);
  }
  const bool payload_carried = has_varwidth_ || format_ == legacy::DataFormat::kVartext;
  size_t estimate = header_template_.size() +
                    static_cast<size_t>(row_count) * per_row_binary_hint_ +
                    (payload_carried ? payload_bytes : 0) + 64;
  return std::max(estimate, payload_bytes + payload_bytes / 8);
}

// --- The two chunk loops ----------------------------------------------------

template <class Rows>
Status ConversionPlan::EmitBinaryRecord(Slice record, Rows* rows, QualityScratch* q) const {
  using Sink = typename Rows::Sink;
  ByteReader body(record);
  HQ_ASSIGN_OR_RETURN(Slice indicators, body.ReadSlice(indicator_bytes_));
  for (size_t i = 0; i < fields_.size(); ++i) {
    const FieldPlan& f = fields_[i];
    const bool null = (indicators[i / 8] & (0x80u >> (i % 8))) != 0;
    HQ_RETURN_NOT_OK(Sink::DecodeOf(f)(f, &body, null, rows->Field(i, null), q));
  }
  if (!body.AtEnd()) {
    return Status::ProtocolError("trailing bytes in legacy binary record");
  }
  return Status::OK();
}

template <class Rows>
size_t ConversionPlan::EmitVartextRecord(std::string_view text, Rows* rows,
                                         QualityScratch* q) const {
  using Sink = typename Rows::Sink;
  // Raw pointers and unchecked string_view construction (start <= i <=
  // size() always holds): substr's bounds check would put
  // __throw_out_of_range_fmt on the hot path (hqcheck hotpath-symbol).
  const char* data = text.data();
  const FieldPlan* fields = fields_.data();
  const size_t expected = fields_.size();
  const char delimiter = legacy_delimiter_;
  size_t nfields = 0;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i != text.size() && data[i] != delimiter) continue;
    if (nfields < expected) {
      // Every vartext field is text: the string check op runs fused into
      // the split, and an empty field is NULL (legacy rule).
      const FieldPlan& f = fields[nfields];
      const size_t len = i - start;
      if (f.checks != nullptr) QcString(*f.checks, len == 0, data + start, len, q);
      typename Sink::Out* out = rows->Field(nfields, len == 0);
      if (len == 0) {
        Sink::Null(out);
      } else {
        Sink::Text(f, std::string_view(data + start, len), out);
      }
    }
    ++nfields;
    start = i + 1;
  }
  return nfields;
}

// Out of line so each (loop x policy) instantiation is its own symbol: the
// hotpath driver proof roots at every one of them.
template <class Rows>
__attribute__((noinline)) Status ConversionPlan::ConvertBinary(const ConversionInput& input,
                                                               ConvertedChunk* out) const {
  ByteReader reader(Slice(input.chunk.payload));
  uint64_t row_number = input.first_row_number;
  ChunkOutput<Rows> chunk(*this, quality_, input, out);
  while (!reader.AtEnd()) {
    chunk.BeginRow();
    Slice record;
    Status status = [&]() -> Status {
      HQ_ASSIGN_OR_RETURN(record, reader.ReadLengthPrefixed16());
      return EmitBinaryRecord(record, &chunk.rows, &chunk.qs);
    }();
    if (!status.ok()) {
      // Binary decode is positional: a bad record invalidates the rest of
      // the chunk payload. Roll back the partially-emitted record.
      chunk.rows.RollbackRow();
      AddFormatViolation(row_number, status, &out->errors);
      break;
    }
    chunk.EndRow(row_number++,
                 [&](auto* twin) { return EmitBinaryRecord(record, twin, &chunk.qs); });
  }
  return chunk.Finish();
}

template <class Rows>
__attribute__((noinline)) Status ConversionPlan::ConvertVartext(const ConversionInput& input,
                                                                ConvertedChunk* out) const {
  ByteReader reader(Slice(input.chunk.payload));
  uint64_t row_number = input.first_row_number;
  const size_t expected = fields_.size();
  ChunkOutput<Rows> chunk(*this, quality_, input, out);
  while (!reader.AtEnd()) {
    auto line = reader.ReadLengthPrefixed16();
    if (!line.ok()) {
      // A framing error poisons the rest of the chunk (reference semantics).
      chunk.FinishQuality();
      return FramingError(line.status(), input.chunk.chunk_seq);
    }
    const std::string_view text = line.ValueOrDie().ToStringView();
    chunk.BeginRow();
    const size_t nfields = EmitVartextRecord(text, &chunk.rows, &chunk.qs);
    if (nfields != expected) {
      chunk.rows.RollbackRow();
      AddArityMismatch(row_number, nfields, expected, &out->errors);
      ++row_number;
      continue;
    }
    chunk.EndRow(row_number++, [&](auto* twin) {
      (void)EmitVartextRecord(text, twin, &chunk.qs);  // arity already checked
      return Status::OK();
    });
  }
  return chunk.Finish();
}

Status ConversionPlan::Execute(const ConversionInput& input, ConvertedChunk* out) const {
  out->order_index = input.order_index;
  out->first_row_number = input.first_row_number;
  out->rows_in = input.chunk.row_count;
  const bool vartext = format_ == legacy::DataFormat::kVartext;
  if (staging_format_ == cdw::StagingFormat::kBinary) {
    if (remapped_) {
      return vartext ? ConvertVartext<RemapRows<ColumnRows>>(input, out)
                     : ConvertBinary<RemapRows<ColumnRows>>(input, out);
    }
    return vartext ? ConvertVartext<ColumnRows>(input, out) : ConvertBinary<ColumnRows>(input, out);
  }
  if (remapped_) {
    return vartext ? ConvertVartext<RemapRows<CsvRows>>(input, out)
                   : ConvertBinary<RemapRows<CsvRows>>(input, out);
  }
  return vartext ? ConvertVartext<CsvRows>(input, out) : ConvertBinary<CsvRows>(input, out);
}

}  // namespace hyperq::core
