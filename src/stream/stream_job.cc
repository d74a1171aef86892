#include "stream/stream_job.h"

#include <chrono>
#include <cstdio>

#include "common/logging.h"
#include "hyperq/conversion_plan.h"
#include "sql/parser.h"

namespace hyperq::stream {

using common::Result;
using common::Status;

namespace {

/// Zero-padded batch staging prefix ("batch_00000001"): each batch COPYs
/// from, and retires, its own "<prefix>/" directory.
std::string BatchPrefix(uint64_t batch_seq) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "batch_%08llu", static_cast<unsigned long long>(batch_seq));
  return std::string(buf);
}

}  // namespace

Result<std::shared_ptr<StreamJob>> StreamJob::Create(const std::string& job_id,
                                                     const legacy::BeginStreamBody& begin,
                                                     core::JobContext ctx) {
  if (begin.dml_sql.empty()) {
    return Status::Invalid("stream job requires a DML statement (applied per micro-batch)");
  }
  HQ_ASSIGN_OR_RETURN(sql::StatementPtr dml, sql::ParseStatement(begin.dml_sql));
  HQ_ASSIGN_OR_RETURN(core::LoadTail tail,
                      core::LoadTail::Create(job_id, "HQ_STRM_", "stream/",
                                             core::LoadTarget::Of(begin), std::move(ctx)));
  HQ_ASSIGN_OR_RETURN(core::DataConverter converter, tail.Open());
  return std::shared_ptr<StreamJob>(new StreamJob(std::move(tail), std::move(converter),
                                                  std::move(dml)));
}

StreamJob::StreamJob(core::LoadTail tail, core::DataConverter converter, sql::StatementPtr dml)
    : tail_(std::move(tail)),
      converter_(std::move(converter)),
      dml_(std::move(dml)),
      staging_format_(tail_.ctx().options.staging_format),
      active_(tail_.ctx().metrics == nullptr
                  ? nullptr
                  : tail_.ctx().metrics->GetGauge("hyperq_stream_jobs_active")) {
  if (obs::MetricsRegistry* r = tail_.ctx().metrics; r != nullptr) {
    m_.chunks = r->GetCounter("hyperq_stream_chunks_total");
    m_.rows_received = r->GetCounter("hyperq_stream_rows_received_total");
    m_.batches_committed = r->GetCounter("hyperq_stream_batches_committed_total");
    m_.rows_committed = r->GetCounter("hyperq_stream_rows_committed_total");
    m_.data_errors = r->GetCounter("hyperq_stream_data_errors_total");
    m_.remap_total = r->GetCounter("hyperq_stream_remap_total");
    m_.fields_dropped = r->GetCounter("hyperq_stream_fields_dropped_total");
    m_.fields_nulled = r->GetCounter("hyperq_stream_fields_nulled_total");
    m_.commit_replays = r->GetCounter("hyperq_stream_commit_replays_total");
    m_.format_fallbacks = r->GetCounter("hyperq_stream_format_fallback_total");
    m_.batch_latency = r->GetHistogram("hyperq_stream_batch_latency_seconds");
    m_.watermark_lag = r->GetGauge("hyperq_stream_watermark_lag_seconds");
    if (tail_.quality_on()) {
      m_.batches_rejected = r->GetCounter("hyperq_stream_batches_rejected_total");
    }
  }
}

void StreamJob::AcquireBusy() {
  common::MutexLock lock(&mu_);
  while (busy_) busy_cv_.Wait(lock);
  busy_ = true;
}

void StreamJob::ReleaseBusy() {
  common::MutexLock lock(&mu_);
  busy_ = false;
  busy_cv_.NotifyAll();
}

Status StreamJob::SubmitChunk(const legacy::DataChunkBody& chunk) {
  BusyToken busy(this);
  // A failed commit keeps its sealed batch for retry; accepting re-sent
  // copies of those rows here would stage them twice.
  if (CommitPending()) {
    return Status::ProtocolError(
        "stream " + job_id() + ": commit of batch " + std::to_string(commit_->batch_seq) +
        " failed and is pending retry; re-send CommitBatch, not chunks");
  }
  uint64_t order;
  uint64_t first_row;
  uint64_t batch_seq;
  {
    common::MutexLock lock(&mu_);
    if (finished_) return Status::Invalid("stream " + job_id() + " already ended");
    HQ_RETURN_NOT_OK(poison_);
    order = chunk_counter_++;
    first_row = row_counter_ + 1;
    row_counter_ += chunk.row_count;
    ++stats_.chunks;
    stats_.rows_received += chunk.row_count;
    batch_seq = stats_.batches_committed + 1;
  }
  if (m_.chunks != nullptr) {
    m_.chunks->Increment();
    m_.rows_received->Increment(chunk.row_count);
  }

  if (lane_.data == nullptr) {
    batch_open_ = std::chrono::steady_clock::now();
    lane_.name = BatchPrefix(batch_seq);
    lane_.qrtn_name = lane_.name + "_qrtn";
    lane_.format = staging_format_;
  }

  // Synchronous conversion on the session thread: micro-batches are small by
  // construction and strict arrival order keeps drift windows deterministic
  // (every chunk is decoded by exactly the layout that was current when it
  // was sent).
  core::ConversionInput input;
  input.order_index = order;
  input.first_row_number = first_row;
  input.chunk = chunk;
  HQ_ASSIGN_OR_RETURN(core::ConvertedChunk converted,
                      converter_.Convert(input, tail_.ctx().buffers));
  core::SealedBatch staged;
  Status s = tail_.StageChunk(std::move(converted), converter_.quality(), &lane_, &staged);
  const uint64_t new_errors = staged.errors.size();
  if (m_.data_errors != nullptr && new_errors != 0) m_.data_errors->Increment(new_errors);
  {
    common::MutexLock lock(&mu_);
    stats_.data_errors += new_errors;
    stats_.chunks_abandoned += staged.chunks_abandoned;
    stats_.rows_quarantined += staged.quality.rows_quarantined;
  }
  open_.Merge(std::move(staged));
  return s;
}

Status StreamJob::ChangeLayout(const types::Schema& layout) {
  BusyToken busy(this);
  {
    common::MutexLock lock(&mu_);
    if (finished_) return Status::Invalid("stream " + job_id() + " already ended");
    HQ_RETURN_NOT_OK(poison_);
  }
  if (layout == converter_.layout()) return Status::OK();  // no drift

  // Drift-swapped converters recompile the same quality constraints: ids are
  // spec-ordered, so the id-keyed aggregates keep composing across windows.
  Result<core::DataConverter> next = tail_.MakeConverter(layout, staging_format_);
  if (!next.ok() && staging_format_ == cdw::StagingFormat::kBinary &&
      layout != tail_.target().layout) {
    // Format negotiation: type-changing drift cannot be encoded into the
    // staging table's typed binary columns, so the session falls back to csv
    // staging (permanently — a later drift back would otherwise recreate the
    // file-name series and collide with the batch's existing objects). The
    // open staging file is finalized first so every staged object stays
    // single-format; COPY sniffs the format per object, so the resulting
    // mixed-format batch prefix loads and dedups correctly.
    HQ_LOG_WARN() << "stream " << job_id() << ": " << next.status().message()
                  << " — falling back to csv staging for this session";
    if (lane_.data != nullptr) {
      HQ_RETURN_NOT_OK(lane_.data->Finish(&open_.files));
      lane_.data = nullptr;
    }
    staging_format_ = cdw::StagingFormat::kCsv;
    if (m_.format_fallbacks != nullptr) m_.format_fallbacks->Increment();
    {
      common::MutexLock lock(&mu_);
      ++stats_.format_fallbacks;
    }
    next = tail_.MakeConverter(layout, cdw::StagingFormat::kCsv);
  }
  HQ_RETURN_NOT_OK(next.status());
  converter_ = std::move(next).ValueOrDie();

  const core::ConversionPlan& plan = converter_.plan();
  const size_t dropped = plan.dropped_source_fields();
  const size_t nulled = plan.nulled_target_fields();
  if (plan.remapped()) {
    HQ_LOG_WARN() << "stream " << job_id() << ": layout drift to " << layout.ToString()
                  << " — remapping by name (" << dropped << " source field(s) dropped, "
                  << nulled << " target field(s) nulled)";
    if (m_.remap_total != nullptr) {
      m_.remap_total->Increment();
      m_.fields_dropped->Increment(dropped);
      m_.fields_nulled->Increment(nulled);
    }
  }
  common::MutexLock lock(&mu_);
  ++stats_.layout_changes;
  stats_.fields_dropped += dropped;
  stats_.fields_nulled += nulled;
  return Status::OK();
}

Result<legacy::BatchCommittedBody> StreamJob::CommitBatch(uint64_t batch_seq,
                                                          uint64_t watermark_micros) {
  BusyToken busy(this);
  const bool in_slot = commit_.has_value() && commit_->batch_seq == batch_seq;
  {
    common::MutexLock lock(&mu_);
    if (finished_) return Status::Invalid("stream " + job_id() + " already ended");
    HQ_RETURN_NOT_OK(poison_);
    // Re-send of the latest committed batch (lost BatchCommitted reply): the
    // slot's reply answers; nothing downstream runs again.
    if (in_slot && commit_->reply.has_value()) {
      ++stats_.commit_replays;
      if (m_.commit_replays != nullptr) m_.commit_replays->Increment();
      return *commit_->reply;
    }
    const uint64_t expected = stats_.batches_committed + 1;
    if (!in_slot && batch_seq != expected) {
      return Status::ProtocolError("commit for batch " + std::to_string(batch_seq) +
                                   ", expected " + std::to_string(expected));
    }
  }
  if (watermark_micros <= last_watermark_) {
    return Status::ProtocolError(
        "micro-batch watermark must advance: " + std::to_string(watermark_micros) +
        " <= " + std::to_string(last_watermark_));
  }
  if (in_slot) {
    // Retained from a failed attempt: re-run the pipeline on the same rows.
    common::MutexLock lock(&mu_);
    ++stats_.commit_retries;
  } else {
    Status sealed = SealOpenBatch(batch_seq);
    if (!sealed.ok()) {
      // Finalize is not re-runnable; the batch content is forfeit, so fail
      // every later call loudly rather than ever ack an empty batch.
      Poison(sealed);
      return sealed;
    }
  }
  return CommitSealed(watermark_micros);
}

Status StreamJob::SealOpenBatch(uint64_t batch_seq) {
  Commit pending;
  pending.batch_seq = batch_seq;
  pending.open_time = open_.chunks != 0 ? batch_open_ : std::chrono::steady_clock::now();
  pending.batch = std::move(open_);
  open_ = core::SealedBatch{};
  pending.batch.first_row = committed_row_high_ + 1;
  {
    common::MutexLock lock(&mu_);
    pending.batch.last_row = row_counter_;
  }
  HQ_RETURN_NOT_OK(tail_.CloseLane(&lane_, &pending.batch));
  commit_ = std::move(pending);
  return Status::OK();
}

void StreamJob::Poison(const Status& cause) {
  Status poison = Status::Internal("stream " + job_id() +
                                   " poisoned by unrecoverable commit failure: " +
                                   cause.message());
  HQ_LOG_ERROR() << poison.message();
  common::MutexLock lock(&mu_);
  poison_ = std::move(poison);
}

Result<legacy::BatchCommittedBody> StreamJob::CommitSealed(uint64_t watermark_micros) {
  // Everything up to the DML apply is idempotent across commit attempts:
  // uploads re-put identical bytes to the same keys, COPY dedups through the
  // per-table ledger, and ET inserts resume at errors_recorded. Open-batch
  // members stay untouched, so a failed attempt can't corrupt the next
  // batch's accounting — and the sealed batch survives for the retry.
  core::SealedBatch& batch = commit_->batch;
  const uint64_t batch_seq = commit_->batch_seq;
  const core::HyperQOptions& options = tail_.ctx().options;

  // Per-micro-batch degradation policy: a batch whose violation rate exceeds
  // the per-batch watermark is rejected — its quarantine rows still ship (the
  // operator's evidence) but its staging rows never reach the target table,
  // so a drifting upstream poisons only the offending batch, not the stream.
  // The decision is a pure function of sealed state: every commit attempt of
  // this batch decides the same way.
  const double batch_rate = batch.quality.violation_rate();
  const bool rejected = tail_.quality_on() && options.quality.abort_over_threshold &&
                        batch_rate > options.quality.batch_max_violation_rate;

  // Ship this batch under its own zero-padded prefix — the scope of its
  // COPY and of its retirement. CopyFormat::kAuto on purpose: a
  // batch cut across a format fallback holds both .hqb and .csv objects, and
  // auto sniffs per object.
  const std::string batch_dir = BatchPrefix(batch_seq) + "/";
  HQ_RETURN_NOT_OK(
      tail_.Ship(batch, batch_dir, cdw::CopyFormat::kAuto, /*load_rows=*/!rejected).status());

  // Record this batch's data errors in the ET table, then apply the stream
  // DML over exactly the batch's row range. Sequential inclusive ranges over
  // the monotone HQ_ROWNUM partition the stream, so the union of per-batch
  // applies equals one whole-table apply (the batch-equivalence invariant
  // the drift e2e checks).
  HQ_RETURN_NOT_OK(tail_.RecordErrors(&batch));
  core::DmlApplyResult dml;
  const bool apply = !rejected && batch.last_row >= batch.first_row;
  if (apply) {
    obs::ScopedSpan apply_span(tail_.trace().get(), obs::Phase::kDmlApply, "apply");
    Result<core::DmlApplyResult> applied = tail_.Apply(*dml_, batch.first_row, batch.last_row);
    if (!applied.ok()) {
      // The one non-idempotent stage: partial DML effects can't be re-run
      // safely, so the stream dies loudly instead of risking double-apply.
      Poison(applied.status());
      return applied.status();
    }
    dml = std::move(applied).ValueOrDie();
  }

  // The batch is durably applied; from here on the commit must succeed.
  // Nothing ships it again (a re-send is answered from the slot's reply), so
  // retire it and advance the committed row high-water mark.
  tail_.Retire(batch, batch_dir);
  committed_row_high_ = batch.last_row;

  // Prune the applied rows from the accumulating staging table. Every later
  // batch addresses a strictly higher HQ_ROWNUM range and a replayed commit
  // is answered from the slot without re-reading staging, so rows at or
  // below the new high-water mark are dead weight — left in place they make
  // each batch's COPY count check and DML range scan cost O(stream) instead
  // of O(batch). Best-effort: a failed prune costs latency, not rows.
  uint64_t pruned = 0;
  if (apply) {
    Result<cdw::ExecResult> del =
        tail_.ctx().cdw->ExecuteSql("DELETE FROM " + tail_.staging_table() +
                                    " WHERE HQ_ROWNUM <= " + std::to_string(batch.last_row));
    if (del.ok()) {
      pruned = del.ValueOrDie().rows_deleted;
    } else {
      HQ_LOG_WARN() << "stream " << job_id() << ": staging prune failed (non-fatal): "
                    << del.status().message();
    }
  }

  last_watermark_ = watermark_micros;
  const auto now_wall = std::chrono::system_clock::now().time_since_epoch();
  const int64_t wall_micros =
      std::chrono::duration_cast<std::chrono::microseconds>(now_wall).count();
  const int64_t lag_micros = wall_micros - static_cast<int64_t>(watermark_micros);
  const double batch_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - commit_->open_time)
          .count();
  const uint64_t rows_staged = batch.rows_staged;
  const size_t batch_errors = batch.errors.size();
  const core::QualityTally batch_quality = std::move(batch.quality);
  batch = core::SealedBatch{};  // the slot keeps only the reply

  legacy::BatchCommittedBody reply;
  reply.batch_seq = batch_seq;
  reply.watermark_micros = watermark_micros;
  reply.rows_in_batch = dml.rows_inserted + dml.rows_updated + dml.rows_deleted;
  {
    common::MutexLock lock(&mu_);
    dml_totals_.rows_inserted += dml.rows_inserted;
    dml_totals_.rows_updated += dml.rows_updated;
    dml_totals_.rows_deleted += dml.rows_deleted;
    dml_totals_.et_errors += dml.et_errors;
    dml_totals_.uv_errors += dml.uv_errors;
    dml_totals_.range_errors += dml.range_errors;
    dml_totals_.statements_issued += dml.statements_issued;
    data_errors_recorded_ += batch_errors;
    // batches_committed is the commit-protocol sequence number, so a rejected
    // batch advances it too.
    ++stats_.batches_committed;
    if (rejected) ++stats_.batches_rejected;
    if (!rejected) stats_.rows_committed += rows_staged;
    stats_.staging_rows_pruned += pruned;
    quality_.Add(batch_quality);
    reply.rows_total =
        dml_totals_.rows_inserted + dml_totals_.rows_updated + dml_totals_.rows_deleted;
    reply.et_errors = dml_totals_.et_errors + data_errors_recorded_;
    reply.message =
        rejected ? "batch " + std::to_string(batch_seq) + " rejected by quality gate (" +
                       std::to_string(batch_quality.rows_quarantined) + "/" +
                       std::to_string(batch_quality.rows_checked) + " rows quarantined to " +
                       tail_.quarantine_table() + ")"
                 : "batch " + std::to_string(batch_seq) + " committed";
  }
  commit_->reply = reply;
  if (m_.batches_committed != nullptr) {
    if (rejected) {
      m_.batches_rejected->Increment();
    } else {
      m_.batches_committed->Increment();
      m_.rows_committed->Increment(rows_staged);
    }
    m_.batch_latency->Observe(batch_seconds);
    m_.watermark_lag->Set(std::max<int64_t>(0, lag_micros / 1000000));
  }
  if (batch_quality.rows_checked != 0) tail_.NoteViolationRate(batch_rate);
  return reply;
}

Result<legacy::JobReportBody> StreamJob::Finish(uint64_t total_chunks, uint64_t total_rows) {
  BusyToken busy(this);
  {
    common::MutexLock lock(&mu_);
    if (finished_) return Status::Invalid("stream " + job_id() + " already ended");
    HQ_RETURN_NOT_OK(poison_);
    if (total_chunks != 0 && total_chunks != chunk_counter_) {
      return Status::ProtocolError("client reported " + std::to_string(total_chunks) +
                                   " chunks, received " + std::to_string(chunk_counter_));
    }
    if (total_rows != 0 && total_rows != row_counter_) {
      return Status::ProtocolError("client reported " + std::to_string(total_rows) +
                                   " rows, received " + std::to_string(row_counter_));
    }
  }
  if (open_.chunks != 0 || lane_.data != nullptr || CommitPending()) {
    return Status::ProtocolError(
        "stream ended with an uncommitted micro-batch; send CommitBatch before EndStream");
  }

  // Stream-scoped scratch state goes with the stream.
  HQ_RETURN_NOT_OK(tail_.DropStaging());

  legacy::JobReportBody report;
  {
    common::MutexLock lock(&mu_);
    finished_ = true;
    report.rows_inserted = dml_totals_.rows_inserted;
    report.rows_updated = dml_totals_.rows_updated;
    report.rows_deleted = dml_totals_.rows_deleted;
    report.et_errors = dml_totals_.et_errors + data_errors_recorded_;
    report.uv_errors = dml_totals_.uv_errors;
    report.message = "stream " + job_id() + " complete (" +
                     std::to_string(stats_.batches_committed) + " micro-batches)";
  }
  active_.Release();
  if (tail_.trace() != nullptr) tail_.trace()->Finish();
  return report;
}

StreamStats StreamJob::stats() const {
  common::MutexLock lock(&mu_);
  return stats_;
}

core::QualityJobReport StreamJob::quality_report() {
  // The busy token serializes with in-flight calls, making the open-batch
  // and slot aggregates safe to read here.
  BusyToken busy(this);
  const core::CompiledQuality* cq = converter_.quality();
  if (cq == nullptr) return core::QualityJobReport{};
  // All-time view: committed batches + the slot's batch (if its commit is
  // pending retry) + the open batch.
  core::QualityTally all = open_.quality;
  if (CommitPending()) all.Add(commit_->batch.quality);
  {
    common::MutexLock lock(&mu_);
    all.Add(quality_);
  }
  return all.Report(*cq);
}

}  // namespace hyperq::stream
