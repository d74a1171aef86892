// hqcheck:hotpath
#include "hyperq/conversion_columnar.h"

#include "cdw/staging_binary.h"

namespace hyperq::core {

using common::ByteBuffer;

ColumnarChunkBuilder::ColumnarChunkBuilder(const std::vector<uint32_t>& target_widths,
                                           uint32_t expected_rows)
    : cols_(target_widths.size()) {
  for (size_t i = 0; i < target_widths.size(); ++i) {
    ColumnSink& s = cols_[i];
    s.fixed_width = target_widths[i];
    if (expected_rows == 0) continue;  // unknown row count: grow by doubling
    s.nulls.reserve((expected_rows + 7) / 8);
    if (s.fixed_width != 0) {
      s.data.reserve(static_cast<size_t>(expected_rows) * s.fixed_width);
    } else {
      s.offsets.reserve(expected_rows);
    }
  }
}

void ColumnarChunkBuilder::CommitRow(uint64_t row_number) {
  cols_.back().data.AppendI64(static_cast<int64_t>(row_number));  // HQ_ROWNUM
  const uint8_t bit = static_cast<uint8_t>(1u << (rows_ & 7));
  const bool new_byte = (rows_ & 7) == 0;
  for (ColumnSink& s : cols_) {
    if (s.fixed_width == 0) s.offsets.push_back(static_cast<uint32_t>(s.data.size()));
    if (new_byte) s.nulls.push_back(0);
    if (s.pending_null) s.nulls.back() |= bit;
    s.pending_null = false;
  }
  ++rows_;
}

void ColumnarChunkBuilder::RollbackRow() {
  // Offsets and bitmap bits are only written at commit, so the committed
  // state is fully determined by rows_: truncate each column's cell bytes
  // back to it and drop the pending null marks.
  for (ColumnSink& s : cols_) {
    s.data.resize(s.fixed_width != 0 ? static_cast<size_t>(rows_) * s.fixed_width
                                     : (s.offsets.empty() ? 0 : s.offsets.back()));
    s.pending_null = false;
  }
}

void ColumnarChunkBuilder::Finish(const ByteBuffer& header_template, ByteBuffer* out) const {
  if (rows_ == 0) return;  // all-bad chunk stages zero bytes (CSV parity)
  const size_t base = out->size();
  out->AppendSlice(header_template.AsSlice());
  out->PatchU32(base + cdw::kHqb1RowCountOffset, rows_);
  for (const ColumnSink& s : cols_) {
    out->AppendBytes(s.nulls.data(), s.nulls.size());
    if (s.fixed_width != 0) {
      out->AppendSlice(s.data.AsSlice());
      continue;
    }
    out->AppendU32(static_cast<uint32_t>(s.data.size()));
    for (uint32_t end : s.offsets) out->AppendU32(end);
    out->AppendSlice(s.data.AsSlice());
  }
}

}  // namespace hyperq::core
