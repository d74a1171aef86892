#include "hyperq/load_tail.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>

#include "cloudstore/bulk_loader.h"
#include "common/fault.h"
#include "legacy/errors.h"

namespace hyperq::core {

using common::Result;
using common::Slice;
using common::Status;

namespace {

std::string SanitizeId(const std::string& id) {
  std::string out;
  for (char c : id) {
    out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  }
  return out;
}

Status RecreateTable(cdw::CdwServer* cdw, const std::string& name, const types::Schema& schema) {
  HQ_RETURN_NOT_OK(cdw->catalog()->DropTable(name, /*if_exists=*/true));
  return cdw->catalog()->CreateTable(name, schema).status();
}

}  // namespace

void QualityTally::AddChunk(const CompiledQuality& cq, const ChunkQuality& chunk) {
  rows_checked += chunk.rows_checked;
  rows_quarantined += chunk.rows_quarantined;
  violations_by_id.resize(std::max(violations_by_id.size(), cq.num_constraints()), 0);
  nulls_by_id.resize(std::max(nulls_by_id.size(), cq.num_constraints()), 0);
  for (size_t id = 0; id < chunk.violations_by_id.size() && id < violations_by_id.size(); ++id) {
    violations_by_id[id] += chunk.violations_by_id[id];
  }
  for (const CompiledQuality::NullRateCeiling& nr : cq.null_rate_ceilings()) {
    if (nr.field < chunk.field_nulls.size()) nulls_by_id[nr.id] += chunk.field_nulls[nr.field];
  }
}

void QualityTally::Add(const QualityTally& other) {
  rows_checked += other.rows_checked;
  rows_quarantined += other.rows_quarantined;
  violations_by_id.resize(std::max(violations_by_id.size(), other.violations_by_id.size()), 0);
  nulls_by_id.resize(std::max(nulls_by_id.size(), other.nulls_by_id.size()), 0);
  for (size_t id = 0; id < other.violations_by_id.size(); ++id) {
    violations_by_id[id] += other.violations_by_id[id];
  }
  for (size_t id = 0; id < other.nulls_by_id.size(); ++id) nulls_by_id[id] += other.nulls_by_id[id];
}

QualityJobReport QualityTally::Report(const CompiledQuality& cq) const {
  // BuildQualityJobReport takes field-indexed NULL counts; rebuild them from
  // the id-keyed totals for the layout `cq` was compiled against.
  std::vector<uint64_t> field_nulls(cq.num_fields(), 0);
  for (const CompiledQuality::NullRateCeiling& nr : cq.null_rate_ceilings()) {
    if (nr.field < field_nulls.size() && nr.id < nulls_by_id.size()) {
      field_nulls[nr.field] = nulls_by_id[nr.id];
    }
  }
  return BuildQualityJobReport(cq, violations_by_id, field_nulls, rows_checked,
                               rows_quarantined);
}

void SealedBatch::Merge(SealedBatch&& other) {
  for (auto& f : other.files) files.push_back(std::move(f));
  for (auto& f : other.qrtn_files) qrtn_files.push_back(std::move(f));
  for (auto& e : other.errors) errors.push_back(std::move(e));
  chunks += other.chunks;
  chunks_abandoned += other.chunks_abandoned;
  rows_staged += other.rows_staged;
  bytes_staged += other.bytes_staged;
  qrtn_rows_staged += other.qrtn_rows_staged;
  quality.Add(other.quality);
}

Result<LoadTail> LoadTail::Create(const std::string& job_id,
                                  const std::string& staging_table_prefix,
                                  const std::string& remote_root, LoadTarget target,
                                  JobContext ctx) {
  if (ctx.cdw == nullptr || ctx.store == nullptr) {
    return Status::Invalid("incomplete job context");
  }
  // The target table must already exist in the CDW.
  HQ_RETURN_NOT_OK(ctx.cdw->catalog()->GetTable(target.table).status());
  if (!ctx.options.fault_spec.empty()) {
    uint64_t seed = 0;
    std::vector<std::pair<int, common::FaultRule>> rules;
    Status parsed = common::ParseFaultSpec(ctx.options.fault_spec, &seed, &rules);
    if (!parsed.ok()) {
      return Status::ProtocolError("invalid fault_spec: " + parsed.message());
    }
  }
  std::optional<TableQualitySpec> table_quality;
  if (!ctx.options.quality.spec.empty()) {
    auto parsed = ParseQualitySpec(ctx.options.quality.spec);
    if (!parsed.ok()) {
      return Status::ProtocolError("invalid quality spec: " + parsed.status().message());
    }
    const TableQualitySpec* found = FindTableQuality(*parsed, target.table);
    if (found != nullptr) table_quality = *found;
  }
  if (target.max_errors != 0) ctx.options.max_errors = target.max_errors;
  if (target.max_retries != 0) ctx.options.max_retries = target.max_retries;
  LoadTail tail(job_id, staging_table_prefix, remote_root, std::move(target), std::move(ctx));
  if (table_quality.has_value()) {
    const std::string id = SanitizeId(job_id);
    tail.qrtn_table_ = "HQ_QRTN_" + id;
    tail.qrtn_remote_prefix_ = "quarantine/" + id + "/";
    tail.table_quality_ = std::move(table_quality);
  }
  return tail;
}

LoadTail::LoadTail(std::string job_id, std::string staging_table_prefix, std::string remote_root,
                   LoadTarget target, JobContext ctx)
    : job_id_(std::move(job_id)), target_(std::move(target)), ctx_(std::move(ctx)) {
  const std::string id = SanitizeId(job_id_);
  staging_table_ = staging_table_prefix + id;
  remote_prefix_ = remote_root + id + "/";
  local_dir_ = ctx_.options.local_staging_dir + "/" + id;
  if (target_.error_table_et.empty()) target_.error_table_et = target_.table + "_ET";
  if (target_.error_table_uv.empty()) target_.error_table_uv = target_.table + "_UV";
}

Result<DataConverter> LoadTail::Open() {
  HQ_ASSIGN_OR_RETURN(types::Schema staging_schema, MakeStagingSchema(target_.layout));
  HQ_ASSIGN_OR_RETURN(DataConverter converter,
                      MakeConverter(target_.layout, ctx_.options.staging_format));
  if (ctx_.tracer != nullptr) trace_ = ctx_.tracer->StartTrace(job_id_, obs::Phase::kImport);
  if (ctx_.metrics != nullptr) {
    obs::MetricsRegistry* r = ctx_.metrics;
    m_.upload_seconds = r->GetHistogram("hyperq_upload_seconds");
    m_.compress_seconds = r->GetHistogram("hyperq_compress_seconds");
    const CompiledQuality* quality = converter.quality();
    if (quality != nullptr) {
      m_.rows_quarantined = r->GetCounter("hyperq_quality_rows_quarantined_total");
      m_.violation_rate_bp = r->GetGauge("hyperq_quality_violation_rate_bp");
      m_.quality_violations.reserve(quality->num_constraints());
      for (size_t id = 0; id < quality->num_constraints(); ++id) {
        const QualityConstraintInfo& info = quality->constraint(id);
        m_.quality_violations.push_back(
            r->GetCounter("hyperq_quality_violations_total{constraint=\"" + std::to_string(id) +
                          ":" + std::string(QualityKindName(info.kind)) + ":" + info.column +
                          "\"}"));
      }
    }
  }

  // One staging table per job: HQ_ROWNUM is monotone over it, which is what
  // lets per-batch DML ranges compose into exactly the whole-job apply. A
  // recreated staging table must not inherit a prior job's COPY ledger.
  HQ_RETURN_NOT_OK(RecreateTable(ctx_.cdw, staging_table_, staging_schema));
  ctx_.cdw->ForgetCopies(staging_table_);
  HQ_RETURN_NOT_OK(RecreateTable(ctx_.cdw, target_.error_table_et, MakeEtErrorSchema()));
  HQ_RETURN_NOT_OK(
      RecreateTable(ctx_.cdw, target_.error_table_uv, MakeUvErrorSchema(target_.layout)));
  if (!qrtn_table_.empty()) {
    // Recreated per job like the error tables, and deliberately NOT dropped
    // at teardown: it is the operator's record of what the gate rejected.
    HQ_ASSIGN_OR_RETURN(types::Schema qrtn_schema, MakeQuarantineSchema(target_.layout));
    HQ_RETURN_NOT_OK(RecreateTable(ctx_.cdw, qrtn_table_, qrtn_schema));
    ctx_.cdw->ForgetCopies(qrtn_table_);
  }
  return converter;
}

Result<DataConverter> LoadTail::MakeConverter(const types::Schema& source_layout,
                                              cdw::StagingFormat format) const {
  const TableQualitySpec* quality = table_quality_.has_value() ? &*table_quality_ : nullptr;
  if (source_layout == target_.layout) {
    return DataConverter::Create(source_layout, target_.format, target_.delimiter,
                                 cdw::CsvOptions{}, format, quality);
  }
  return DataConverter::CreateRemapped(source_layout, target_.layout, target_.format,
                                       target_.delimiter, cdw::CsvOptions{}, format, quality);
}

common::RetryPolicy LoadTail::MakeIoRetry(const char* breaker_endpoint) const {
  common::RetryOptions options = ctx_.options.io_retry;
  options.breaker = common::BreakerFor(breaker_endpoint);
  if (trace_ != nullptr) {
    std::shared_ptr<obs::Trace> trace = trace_;
    options.on_backoff = [trace](std::string_view point, int attempt, uint64_t sleep_micros) {
      auto start = std::chrono::steady_clock::now();
      trace->RecordSpan(obs::Phase::kRetryBackoff,
                        "retry:" + std::string(point) + "#" + std::to_string(attempt), 0, start,
                        start + std::chrono::microseconds(sleep_micros));
    };
  }
  return common::RetryPolicy(std::move(options));
}

FileWriterOptions LoadTail::WriterOptions(cdw::StagingFormat format) const {
  FileWriterOptions options;
  options.directory = local_dir_;
  options.file_size_threshold = ctx_.options.file_size_threshold;
  options.compress = ctx_.options.compress_staging_files;
  options.file_extension = cdw::StagingFileExtension(format);
  options.compress_seconds = m_.compress_seconds;
  options.trace = trace_;
  options.trace_parent = trace_ == nullptr ? 0 : trace_->root_id();
  return options;
}

void LoadTail::Abandon(uint64_t row_number, std::string message, SealedBatch* out) const {
  RecordError abandoned;
  abandoned.row_number = row_number;
  abandoned.code = legacy::kErrChunkAbandoned;
  abandoned.message = std::move(message);
  out->errors.push_back(std::move(abandoned));
  ++out->chunks_abandoned;
}

Status LoadTail::StageChunk(ConvertedChunk converted, const CompiledQuality* quality,
                            StagingLane* lane, SealedBatch* out) const {
  ++out->chunks;
  if (lane->data == nullptr) {
    lane->data = std::make_unique<FileWriter>(WriterOptions(lane->format), lane->name);
  }
  // Transient staging-disk failures (the bulkload.file fault point fires
  // before any bytes land, so a failed attempt leaves no partial write) are
  // retried with backoff.
  common::RetryPolicy retry = MakeIoRetry("staging_disk");
  Status appended = retry.Run("bulkload.file", [&](const common::RetryAttempt&) {
    return lane->data->Append(converted.csv.AsSlice(), &out->files);
  });
  const size_t staged_bytes = converted.csv.size();
  // The staging bytes are on disk (or abandoned): recycle the buffer either way.
  if (ctx_.buffers != nullptr) ctx_.buffers->Release(std::move(converted.csv.vector()));
  if (!appended.ok() && !common::IsRetryableStatus(appended)) return appended;
  // Conversion errors describe real input rows even when the chunk is
  // abandoned, so the ET table always matches the counted errors.
  for (auto& e : converted.errors) out->errors.push_back(std::move(e));
  if (!appended.ok()) {
    // Retries exhausted: degrade instead of failing the job. The chunk's
    // rows never count as staged and the abandonment lands in the ET table
    // with its own code, so surviving chunks still commit.
    Abandon(converted.first_row_number,
            "chunk abandoned after staging retries: " + appended.message(), out);
    return Status::OK();
  }
  out->rows_staged += converted.rows_out;
  out->bytes_staged += staged_bytes;
  if (quality == nullptr) return Status::OK();

  // Quality gate: count the chunk (id-keyed, so totals survive drift-swapped
  // converters), then persist its quarantine rows through the same
  // disk/retry path.
  const ChunkQuality& q = converted.quality;
  out->quality.AddChunk(*quality, q);
  if (q.rows_quarantined != 0) {
    if (lane->qrtn == nullptr) {
      // Quarantine files are always CSV: diagnostics, not typed reload data.
      lane->qrtn = std::make_unique<FileWriter>(WriterOptions(cdw::StagingFormat::kCsv),
                                                lane->qrtn_name);
    }
    Status q_appended = retry.Run("bulkload.file", [&](const common::RetryAttempt&) {
      return lane->qrtn->Append(converted.qrtn.AsSlice(), &out->qrtn_files);
    });
    if (q_appended.ok()) {
      out->qrtn_rows_staged += q.rows_quarantined;
    } else if (common::IsRetryableStatus(q_appended)) {
      // The diverted rows are lost but audited; the load itself continues.
      Abandon(converted.first_row_number,
              "quarantine rows abandoned after staging retries: " + q_appended.message(), out);
    } else {
      return q_appended;
    }
  }
  if (m_.rows_quarantined != nullptr && q.rows_quarantined != 0) {
    m_.rows_quarantined->Increment(q.rows_quarantined);
  }
  for (size_t id = 0; id < q.violations_by_id.size() && id < m_.quality_violations.size(); ++id) {
    if (q.violations_by_id[id] != 0) m_.quality_violations[id]->Increment(q.violations_by_id[id]);
  }
  return Status::OK();
}

Status LoadTail::CloseLane(StagingLane* lane, SealedBatch* out) const {
  Status status;
  if (lane->data != nullptr) status = lane->data->Finish(&out->files);
  if (lane->qrtn != nullptr) {
    Status q = lane->qrtn->Finish(&out->qrtn_files);
    if (status.ok()) status = q;
  }
  lane->data = nullptr;
  lane->qrtn = nullptr;
  return status;
}

Result<ShipResult> LoadTail::Ship(const SealedBatch& batch, const std::string& batch_dir,
                                  cdw::CopyFormat format, bool load_rows) const {
  const std::string prefix = remote_prefix_ + batch_dir;
  const std::string qrtn_prefix = qrtn_remote_prefix_ + batch_dir;
  const bool copy_rows = load_rows && !batch.files.empty();
  const bool copy_qrtn = !batch.qrtn_files.empty();

  // One put batch for the staging and quarantine files, each series under
  // its own prefix (the scope of its COPY below).
  ShipResult result;
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<std::pair<std::string, Slice>> objects;
  payloads.reserve(batch.files.size() + batch.qrtn_files.size());
  auto add = [&](const std::vector<FinalizedFile>& local, const std::string& to) -> Status {
    for (const auto& f : local) {
      HQ_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, cloud::ReadFileBytes(f.path));
      result.bytes_uploaded += bytes.size();
      payloads.push_back(std::move(bytes));
      const size_t slash = f.path.find_last_of('/');
      objects.emplace_back(to + f.path.substr(slash == std::string::npos ? 0 : slash + 1),
                           Slice(payloads.back()));
    }
    return Status::OK();
  };
  if (load_rows) HQ_RETURN_NOT_OK(add(batch.files, prefix));
  HQ_RETURN_NOT_OK(add(batch.qrtn_files, qrtn_prefix));
  result.files_uploaded = objects.size();
  if (!objects.empty()) {
    obs::ScopedTimer upload_timer(m_.upload_seconds);
    obs::ScopedSpan upload_span(trace_.get(), obs::Phase::kStorePut, "upload");
    // Resume-aware retry: PutBatch reports the applied prefix on failure, so
    // each attempt re-uploads only the objects not yet known durable
    // (re-putting a lost-ack object is an idempotent overwrite).
    size_t start = 0;
    common::RetryPolicy retry = MakeIoRetry("objstore");
    HQ_RETURN_NOT_OK(retry.Run("objstore.put", [&](const common::RetryAttempt&) {
      std::vector<std::pair<std::string, Slice>> rest(
          objects.begin() + static_cast<long>(start), objects.end());
      size_t applied = 0;
      Status put = ctx_.store->PutBatch(rest, &applied);
      if (!put.ok()) start += applied;
      return put;
    }));
  }

  // COPY into the staging table. Safe to retry after a lost ack: the CDW's
  // per-table ledger skips already-ingested objects, and the batch's own
  // prefix scopes the cumulative count to exactly this batch.
  common::RetryPolicy retry = MakeIoRetry("cdw");
  if (copy_rows) {
    obs::ScopedSpan copy_span(trace_.get(), obs::Phase::kCdwCopy, "copy");
    cdw::CopyOptions copy_options;
    copy_options.format = format;
    HQ_ASSIGN_OR_RETURN(result.rows_copied,
                        retry.RunResult<uint64_t>("cdw.copy", [&](const common::RetryAttempt&) {
                          return ctx_.cdw->CopyInto(staging_table_, prefix, copy_options);
                        }));
  }
  // The quarantine COPY runs before any count check or degradation policy,
  // so a failed or rejected load still leaves its diagnostics queryable.
  uint64_t qrtn_copied = 0;
  if (copy_qrtn) {
    obs::ScopedSpan copy_span(trace_.get(), obs::Phase::kCdwCopy, "copy_quarantine");
    cdw::CopyOptions copy_options;
    copy_options.format = cdw::CopyFormat::kCsv;
    HQ_ASSIGN_OR_RETURN(qrtn_copied,
                        retry.RunResult<uint64_t>("cdw.copy", [&](const common::RetryAttempt&) {
                          return ctx_.cdw->CopyInto(qrtn_table_, qrtn_prefix, copy_options);
                        }));
  }
  if (load_rows && result.rows_copied != batch.rows_staged) {
    return Status::Internal("COPY loaded " + std::to_string(result.rows_copied) +
                            " rows, staged " + std::to_string(batch.rows_staged));
  }
  if (qrtn_copied != batch.qrtn_rows_staged) {
    return Status::Internal("quarantine COPY loaded " + std::to_string(qrtn_copied) +
                            " rows, staged " + std::to_string(batch.qrtn_rows_staged));
  }
  return result;
}

Status LoadTail::RecordErrors(SealedBatch* batch) const {
  // Legacy tuple-at-a-time semantics: bad input records are excluded and
  // logged. errors_recorded advances per durable insert, so a retried
  // attempt resumes instead of duplicating ET rows.
  common::RetryPolicy retry = MakeIoRetry("cdw");
  for (; batch->errors_recorded < batch->errors.size(); ++batch->errors_recorded) {
    const RecordError& e = batch->errors[batch->errors_recorded];
    std::string sql_text =
        "INSERT INTO " + target_.error_table_et + " VALUES (" + std::to_string(e.code) + ", " +
        (e.field.empty() ? std::string("NULL") : SqlQuote(e.field)) + ", " +
        SqlQuote(e.message + " (input row number: " + std::to_string(e.row_number) + ")") + ")";
    HQ_RETURN_NOT_OK(retry.Run("cdw.exec", [&](const common::RetryAttempt&) {
      return ctx_.cdw->ExecuteSql(sql_text).status();
    }));
  }
  return Status::OK();
}

Result<DmlApplyResult> LoadTail::Apply(const sql::Statement& dml, uint64_t first_row,
                                       uint64_t last_row) const {
  AdaptiveOptions adaptive;
  adaptive.max_errors = ctx_.options.max_errors;
  adaptive.max_retries = ctx_.options.max_retries;
  adaptive.enforce_uniqueness = ctx_.options.enforce_uniqueness;
  adaptive.io_retry = ctx_.options.io_retry;
  AdaptiveDmlApplier applier(ctx_.cdw, &dml, target_.layout, staging_table_, target_.table,
                             target_.error_table_et, target_.error_table_uv, adaptive);
  return applier.Apply(first_row, last_row);
}

void LoadTail::Retire(const SealedBatch& batch, const std::string& batch_dir) const {
  for (const auto& f : batch.files) std::remove(f.path.c_str());
  for (const auto& f : batch.qrtn_files) std::remove(f.path.c_str());
  ctx_.cdw->ForgetCopiesWithPrefix(staging_table_, remote_prefix_ + batch_dir);
  if (!qrtn_table_.empty()) {
    ctx_.cdw->ForgetCopiesWithPrefix(qrtn_table_, qrtn_remote_prefix_ + batch_dir);
  }
}

Status LoadTail::DropStaging() const {
  return ctx_.cdw->catalog()->DropTable(staging_table_, /*if_exists=*/true);
}

void LoadTail::NoteViolationRate(double rate) const {
  if (m_.violation_rate_bp != nullptr) {
    m_.violation_rate_bp->Set(static_cast<int64_t>(rate * 10000));
  }
}

}  // namespace hyperq::core
