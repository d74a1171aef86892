#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "cdw/staging_format.h"
#include "common/bytes.h"
#include "common/status.h"
#include "hyperq/data_converter.h"
#include "legacy/parcel.h"
#include "types/schema.h"

/// \file conversion_plan.h
/// Compiled per-layout conversion plans: the fast path of the DataConverter
/// stage (paper Section 4). Where the reference path materializes every cell
/// as a types::Value and then a per-cell std::string inside a cdw::CsvRecord,
/// a ConversionPlan is built once per layout at DataConverter::Create time as
/// a vector of per-field decode functions (one per TypeId, instantiated once
/// per staging sink) that decode a field straight off the chunk's ByteReader
/// and hand the value to the sink: CSV-escaped text appended into the output
/// ByteBuffer, or a typed HQB1 cell appended to the field's column.
/// Numeric, decimal and date/timestamp formatting go through fixed-size
/// stack scratch (std::to_chars-style), so steady-state conversion performs
/// O(1) heap allocations per chunk (the output buffer growth, amortized and
/// pooled).
///
/// Contract: output bytes and error capture are bit-identical to
/// DataConverter::ConvertReference — same CSV escaping, same NULL vs
/// empty-string encoding, same HQ_ROWNUM column, same RecordError codes and
/// messages. tests/hyperq/conversion_diff_test.cc enforces this over random
/// layouts and adversarial chunks.

namespace hyperq::core {

/// Per-column output sink of the HQB1 columnar encoder (conversion_columnar.h).
struct ColumnSink;
/// Data-quality gate types (quality.h); plans only hold pointers.
class CompiledQuality;
struct QualityFieldChecks;
struct QualityScratch;

class ConversionPlan {
 public:
  struct FieldPlan;

  /// A field decode consumes the field's wire bytes from `body` (always, even
  /// for NULL fields: binary slots are positional) and hands the value to
  /// `out`: CSV-escaped text (nothing for NULL) into a ByteBuffer, or the
  /// typed little-endian staging value (a zero-filled slot for NULL) into a
  /// ColumnSink. When the field carries quality checks (`f.checks !=
  /// nullptr`) the decode runs them fused over the decoded value into `q`;
  /// gate-off cost is that one predicted branch. Errors must carry exactly
  /// the message the reference decode path would produce.
  template <typename Out>
  using FieldDecode = common::Status (*)(const FieldPlan&, common::ByteReader* body, bool null,
                                         Out* out, QualityScratch* q);

  struct FieldPlan {
    /// The field type's decode, instantiated for the CSV text sink.
    FieldDecode<common::ByteBuffer> text_decode = nullptr;
    /// The same decode instantiated for the HQB1 column sink.
    FieldDecode<ColumnSink> column_decode = nullptr;
    /// Fused quality check ops for this field (nullptr = none; the clean
    /// path tests exactly this pointer). Owned by DataConverter's
    /// CompiledQuality, attached via AttachQuality.
    const QualityFieldChecks* checks = nullptr;
    /// DECIMAL scale (digits after the point).
    int32_t scale = 0;
    /// CHAR width in bytes.
    int32_t length = 0;
    /// Fixed width of the field's CDW-mapped staging cell (0 = varlen).
    uint32_t staging_width = 0;
    /// CSV output delimiter (copied here so decodes stay context-free).
    char csv_delimiter = ',';
  };

  /// Compiles a plan for a layout DataConverter::Create already validated
  /// (non-empty; all-VARCHAR when vartext). When `staging_format` is kBinary,
  /// `staging_schema` (the MakeStagingSchema result: CDW-mapped columns +
  /// HQ_ROWNUM) must be supplied; Execute then emits one HQB1 block per
  /// chunk instead of CSV text.
  static ConversionPlan Compile(const types::Schema& layout, legacy::DataFormat format,
                                char legacy_delimiter, cdw::CsvOptions csv_options,
                                cdw::StagingFormat staging_format = cdw::StagingFormat::kCsv,
                                const types::Schema* staging_schema = nullptr);

  /// Compiles a schema-drift remap plan: chunks arrive encoded in
  /// `source_layout` but the staging CSV must keep `target_layout`'s column
  /// order (the layout the staging table was created from). Fields are
  /// matched by name, case-insensitively:
  ///   - a source field absent from the target is decoded and dropped,
  ///   - a target field absent from the source becomes NULL,
  ///   - matched fields are emitted in target order with the source decode.
  /// The same chunk loops run it, with a row policy that buffers each source
  /// field and emits the record in target order at commit.
  /// With binary staging, `staging_schema` is the TARGET layout's staging
  /// schema (what the staging table and the block headers carry); the caller
  /// (DataConverter::CreateRemapped) must already have verified the drift is
  /// type-stable — every name-matched field keeps its staging type.
  static ConversionPlan CompileRemapped(const types::Schema& source_layout,
                                        const types::Schema& target_layout,
                                        legacy::DataFormat format, char legacy_delimiter,
                                        cdw::CsvOptions csv_options,
                                        cdw::StagingFormat staging_format = cdw::StagingFormat::kCsv,
                                        const types::Schema* staging_schema = nullptr);

  /// Arms the data-quality gate: distributes `quality`'s per-field check ops
  /// into the FieldPlans and keeps the compiled table for cross-field rules
  /// and quarantine reason tails. `quality` must outlive the plan (the
  /// owning DataConverter guarantees this); nullptr detaches.
  void AttachQuality(const CompiledQuality* quality);
  const CompiledQuality* quality() const { return quality_; }

  /// Converts one chunk into `out` (csv is appended to; metadata fields and
  /// errors are filled in). Per-record data errors are collected and the
  /// partial output of the offending record is rolled back; only a vartext
  /// framing error fails the whole chunk (mirroring the reference path).
  /// With a quality gate attached, rows violating a constraint are diverted
  /// record-atomically into `out->qrtn` (always CSV: raw field text in
  /// target order + HQ_ROWNUM + the reason tail) and `out->quality` carries
  /// the chunk's aggregate counters.
  common::Status Execute(const ConversionInput& input, ConvertedChunk* out) const;

  /// Output-size estimate for reserving the CSV buffer: per-field width
  /// hints x row count plus the variable-width bytes carried in the payload.
  size_t EstimateCsvBytes(uint32_t row_count, size_t payload_bytes) const;

  /// Format-aware estimate for the staging output buffer: EstimateCsvBytes
  /// for CSV plans, header + typed-section sizing for HQB1 plans.
  size_t EstimateStagingBytes(uint32_t row_count, size_t payload_bytes) const;

  cdw::StagingFormat staging_format() const { return staging_format_; }

  size_t num_fields() const { return fields_.size(); }

  bool remapped() const { return remapped_; }
  /// Columns emitted per record (target layout width when remapped).
  size_t num_target_fields() const { return remapped_ ? out_source_.size() : fields_.size(); }
  /// Source fields with no name match in the target (decoded, then dropped).
  size_t dropped_source_fields() const { return dropped_sources_; }
  /// Target slots with no name match in the source (emitted as NULL).
  size_t nulled_target_fields() const { return nulled_targets_; }

 private:
  ConversionPlan() = default;

  /// Row-output policies (defined in conversion_plan.cc): where a record's
  /// decoded fields go and how a record commits, rolls back and finishes.
  class CsvRows;
  class ColumnRows;
  template <class Inner>
  class RemapRows;

  /// The two chunk loops, one per wire format, each instantiated once per
  /// row policy (CSV or HQB1 staging, plain or drift-remapped).
  template <class Rows>
  common::Status ConvertBinary(const ConversionInput& input, ConvertedChunk* out) const;
  template <class Rows>
  common::Status ConvertVartext(const ConversionInput& input, ConvertedChunk* out) const;
  /// Decodes one framed binary record body into `rows`.
  template <class Rows>
  common::Status EmitBinaryRecord(common::Slice record, Rows* rows, QualityScratch* q) const;
  /// Splits one vartext line into `rows` (fields past the layout's arity
  /// are counted, not emitted); returns the field count.
  template <class Rows>
  size_t EmitVartextRecord(std::string_view text, Rows* rows, QualityScratch* q) const;

  /// Binds the HQB1 encoding state (header template, target widths).
  void AttachBinaryStaging(const types::Schema& staging_schema);

  std::vector<FieldPlan> fields_;
  legacy::DataFormat format_ = legacy::DataFormat::kBinary;
  char legacy_delimiter_ = '|';
  char csv_delimiter_ = ',';
  size_t indicator_bytes_ = 0;
  /// Sum of fixed width hints + delimiters + HQ_ROWNUM + newline, per row.
  size_t per_row_hint_ = 0;
  bool has_varwidth_ = false;
  /// HQB1 staging state (set by AttachBinaryStaging; empty for CSV plans).
  cdw::StagingFormat staging_format_ = cdw::StagingFormat::kCsv;
  /// Pre-serialized block header for the staging schema (row count 0).
  common::ByteBuffer header_template_;
  /// Fixed staging cell width per staging column incl. HQ_ROWNUM (0=varlen).
  std::vector<uint32_t> target_widths_;
  /// Typed-section bytes per row (fixed widths + varlen offsets + bitmap).
  size_t per_row_binary_hint_ = 0;
  /// Remap mode (CompileRemapped): target slot -> source field index, -1 when
  /// the target field has no source (NULL). fields_ describes the SOURCE
  /// layout in remap mode; emission order comes from this table.
  std::vector<int> out_source_;
  bool remapped_ = false;
  size_t dropped_sources_ = 0;
  size_t nulled_targets_ = 0;
  /// Attached quality gate (nullptr = off). Not owned.
  const CompiledQuality* quality_ = nullptr;
};

}  // namespace hyperq::core
