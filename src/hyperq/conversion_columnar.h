#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"

/// \file conversion_columnar.h
/// The HQB1 columnar encode side of the direct-pipe load path. Where the CSV
/// sink appends escaped text, the HQB1 column sink (conversion_plan.cc)
/// appends typed little-endian staging values into per-column sinks; the
/// builder assembles the sinks into one self-describing HQB1 block per chunk
/// (cdw/staging_binary.h) that CDW COPY appends without per-cell parsing.
///
/// Same hot-loop discipline as the CSV path: each sink is reserved once per
/// chunk from the chunk's row count, so steady-state encoding performs no
/// per-row heap allocation, and per-record rollback is pure truncation
/// derived from the committed row count — no undo log.

namespace hyperq::core {

/// Output state of one staging column while a chunk is being encoded.
struct ColumnSink {
  /// Fixed staging cell width in bytes; 0 = varlen (VARCHAR).
  uint32_t fixed_width = 0;
  /// The in-progress row's cell is NULL (recorded in the bitmap at commit).
  bool pending_null = false;
  /// Fixed value bytes (fixed columns) or cell payload bytes (varlen).
  common::ByteBuffer data;
  /// Varlen END offsets, one per committed row (appended at CommitRow).
  std::vector<uint32_t> offsets;
  /// LSB-first null bitmap, bit (row & 7) of byte (row >> 3).
  std::vector<uint8_t> nulls;

  /// Appends the canonical NULL cell: a zero-filled fixed slot (nothing for
  /// varlen) marked NULL.
  void AppendNull() {
    pending_null = true;
    if (fixed_width != 0) data.resize(data.size() + fixed_width);
  }
};

/// Accumulates one chunk's rows column-wise and serializes the HQB1 block.
/// Row protocol: decodes append cells into col(i) (ColumnSink::AppendNull
/// for NULL cells), then exactly one of CommitRow / RollbackRow. Rollback
/// is truncation to the committed state: offsets and bitmap bits are only
/// written at commit, so only in-progress cell bytes need cutting.
class ColumnarChunkBuilder {
 public:
  /// `target_widths` has one entry per staging column INCLUDING the trailing
  /// HQ_ROWNUM BIGINT (width 8), matching the block header's column order.
  /// Every sink is reserved for `expected_rows` rows (0 = unknown: grow by
  /// doubling).
  ColumnarChunkBuilder(const std::vector<uint32_t>& target_widths, uint32_t expected_rows);

  /// Sink of staging column `i` (HQ_ROWNUM's sink is never written by
  /// decodes; CommitRow fills it).
  ColumnSink* col(size_t i) { return &cols_[i]; }

  /// Seals the in-progress row: appends HQ_ROWNUM, varlen offsets and null
  /// bitmap bits for every column.
  void CommitRow(uint64_t row_number);

  /// Discards the in-progress row (truncates uncommitted cell bytes).
  void RollbackRow();

  uint32_t rows() const { return rows_; }

  /// Appends the finished HQB1 block (header copy with patched row count +
  /// column sections) to `out`. Emits nothing when no row committed (CSV
  /// parity: an all-bad chunk stages zero bytes).
  void Finish(const common::ByteBuffer& header_template, common::ByteBuffer* out) const;

 private:
  std::vector<ColumnSink> cols_;
  uint32_t rows_ = 0;
};

}  // namespace hyperq::core
