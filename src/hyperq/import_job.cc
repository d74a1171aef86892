#include "hyperq/import_job.h"

#include <chrono>

#include "common/fault.h"
#include "sql/parser.h"

namespace hyperq::core {

using common::Result;
using common::Status;

Result<std::shared_ptr<ImportJob>> ImportJob::Create(const std::string& job_id,
                                                     const legacy::BeginLoadBody& begin,
                                                     JobContext ctx) {
  if (ctx.credits == nullptr || ctx.converter_pool == nullptr || ctx.memory == nullptr) {
    return Status::Invalid("incomplete job context");
  }
  HQ_ASSIGN_OR_RETURN(LoadTail tail, LoadTail::Create(job_id, "HQ_STG_", "staging/",
                                                      LoadTarget::Of(begin), std::move(ctx)));
  HQ_ASSIGN_OR_RETURN(DataConverter converter, tail.Open());
  auto job =
      std::shared_ptr<ImportJob>(new ImportJob(std::move(tail), std::move(converter)));
  job->StartWriters();
  return job;
}

ImportJob::ImportJob(LoadTail tail, DataConverter converter)
    : tail_(std::move(tail)),
      converter_(std::move(converter)),
      active_(tail_.ctx().metrics == nullptr
                  ? nullptr
                  : tail_.ctx().metrics->GetGauge("hyperq_import_jobs_active")) {
  if (obs::MetricsRegistry* r = tail_.ctx().metrics; r != nullptr) {
    m_.chunks = r->GetCounter("hyperq_chunks_total");
    m_.rows_received = r->GetCounter("hyperq_rows_received_total");
    m_.bytes_received = r->GetCounter("hyperq_bytes_received_total");
    m_.rows_staged = r->GetCounter("hyperq_rows_staged_total");
    m_.data_errors = r->GetCounter("hyperq_data_errors_total");
    m_.files_uploaded = r->GetCounter("hyperq_files_uploaded_total");
    m_.bytes_uploaded = r->GetCounter("hyperq_bytes_uploaded_total");
    m_.rows_copied = r->GetCounter("hyperq_rows_copied_total");
    m_.chunks_abandoned = r->GetCounter("hyperq_chunks_abandoned_total");
    m_.csv_reallocs = r->GetCounter("hyperq_convert_csv_realloc_total");
    m_.jobs_started = r->GetCounter("hyperq_import_jobs_started_total");
    m_.jobs_completed = r->GetCounter("hyperq_import_jobs_completed_total");
    m_.jobs_failed = r->GetCounter("hyperq_import_jobs_failed_total");
    m_.convert_seconds = r->GetHistogram("hyperq_convert_seconds");
    m_.write_seconds = r->GetHistogram("hyperq_file_write_seconds");
    m_.apply_seconds = r->GetHistogram("hyperq_dml_apply_seconds");
    m_.converter_queue = r->GetGauge("hyperq_converter_queue_depth");
    m_.staging_bytes_per_row = r->GetGauge("hyperq_staging_bytes_per_row");
    m_.jobs_started->Increment();
  }
}

ImportJob::~ImportJob() {
  // A job abandoned mid-load (no EndLoad) can still have conversion tasks
  // queued or running on the node's converter pool, and each holds `this`.
  // Closing the queue first makes their Push fail fast, so the wait below
  // cannot block on writers that have already exited.
  ordered_chunks_.Close();
  {
    common::MutexLock lock(&mu_);
    while (outstanding_conversions_ != 0) conversions_done_.Wait(lock);
  }
  for (auto& t : writer_threads_) {
    if (t.joinable()) t.join();
  }
}

void ImportJob::StartWriters() {
  const size_t n = std::max<size_t>(1, tail_.ctx().options.file_writers);
  for (size_t i = 0; i < n; ++i) {
    StagingLane lane;
    lane.name = "part_w" + std::to_string(i);
    lane.qrtn_name = "qrtn_w" + std::to_string(i);
    lane.format = tail_.ctx().options.staging_format;
    lanes_.push_back(std::move(lane));
  }
  for (size_t i = 0; i < n; ++i) {
    writer_threads_.emplace_back([this, i] { WriterLoop(i); });
  }
}

void ImportJob::NoteFatal(const Status& s) {
  common::MutexLock lock(&mu_);
  if (fatal_.ok()) fatal_ = s;
}

Status ImportJob::fatal_status() const {
  common::MutexLock lock(&mu_);
  return fatal_;
}

Status ImportJob::SubmitChunk(const legacy::DataChunkBody& chunk) {
  HQ_RETURN_NOT_OK(fatal_status());
  const JobContext& ctx = tail_.ctx();
  obs::Trace* trace = tail_.trace().get();

  // Back-pressure: block while the node-wide credit pool is exhausted
  // (Figure 4). The ack to the client is sent only after this returns.
  auto wait_start = std::chrono::steady_clock::now();
  Credit credit = ctx.credits->Acquire();
  if (trace != nullptr) {
    auto wait_end = std::chrono::steady_clock::now();
    // Only genuine throttle events are worth a span (the wait histogram in
    // the CreditManager sees every acquisition).
    if (wait_end - wait_start >= std::chrono::milliseconds(1)) {
      trace->RecordSpan(obs::Phase::kCreditWait, "credit_wait", 0, wait_start, wait_end);
    }
  }

  // Reserve in-flight memory for the raw chunk plus the converted output
  // (estimated at parity). Exhaustion is the simulated OOM of Figure 10.
  uint64_t reserve_bytes = static_cast<uint64_t>(chunk.payload.size()) * 2;
  Status mem = ctx.memory->Reserve(reserve_bytes);
  if (!mem.ok()) {
    NoteFatal(mem);
    return mem;
  }

  uint64_t order;
  uint64_t first_row;
  {
    common::MutexLock lock(&mu_);
    order = chunk_counter_++;
    first_row = row_counter_ + 1;
    row_counter_ += chunk.row_count;
    bytes_received_ += chunk.payload.size();
    ++outstanding_conversions_;
  }

  // Move-only state shared into the std::function task.
  struct TaskState {
    legacy::DataChunkBody chunk;
    Credit credit;
    common::MemoryReservation reservation;
  };
  auto state = std::make_shared<TaskState>();
  state->chunk.chunk_seq = chunk.chunk_seq;
  state->chunk.row_count = chunk.row_count;
  if (ctx.buffers != nullptr) {
    // Copy the payload into a pooled buffer so the allocation is recycled
    // once the converter is done with the raw bytes.
    state->chunk.payload = ctx.buffers->Acquire(chunk.payload.size());
    state->chunk.payload.insert(state->chunk.payload.end(), chunk.payload.begin(),
                                chunk.payload.end());
  } else {
    state->chunk.payload = chunk.payload;
  }
  state->credit = std::move(credit);
  state->reservation = common::MemoryReservation(ctx.memory, reserve_bytes);

  if (m_.chunks != nullptr) {
    m_.chunks->Increment();
    m_.rows_received->Increment(chunk.row_count);
    m_.bytes_received->Increment(chunk.payload.size());
    m_.converter_queue->Set(static_cast<int64_t>(ctx.converter_pool->queued()));
  }

  bool submitted = ctx.converter_pool->Submit([this, state, order, first_row] {
    // Latency-only point: lets tests hold a conversion in flight.
    (void)common::FaultInjector::Global().Check("hyperq.convert");
    ConversionInput input;
    input.order_index = order;
    input.first_row_number = first_row;
    input.chunk = std::move(state->chunk);
    common::BufferPool* buffers = tail_.ctx().buffers;
    obs::ScopedTimer convert_timer(m_.convert_seconds);
    obs::ScopedSpan convert_span(tail_.trace().get(), obs::Phase::kRowConvert, "convert");
    auto converted = converter_.Convert(input, buffers);
    convert_timer.StopAndObserve();
    convert_span.End();
    if (buffers != nullptr) buffers->Release(std::move(input.chunk.payload));

    WorkItem item;
    item.credit = std::move(state->credit);
    item.reservation = std::move(state->reservation);
    if (converted.ok()) {
      item.converted = std::move(converted).ValueOrDie();
    } else {
      item.status = converted.status();
    }
    if (!ordered_chunks_.Push(order, std::move(item))) {
      NoteFatal(Status::Cancelled("chunk queue closed before conversion finished"));
    }
    {
      common::MutexLock lock(&mu_);
      --outstanding_conversions_;
      if (outstanding_conversions_ == 0) conversions_done_.NotifyAll();
    }
  });
  if (!submitted) {
    common::MutexLock lock(&mu_);
    --outstanding_conversions_;
    return Status::Cancelled("converter pool is shut down");
  }
  return Status::OK();
}

void ImportJob::WriterLoop(size_t writer_index) {
  StagingLane& lane = lanes_[writer_index];
  for (;;) {
    std::optional<WorkItem> item = ordered_chunks_.PopNext();
    if (!item.has_value()) break;
    if (!item->status.ok()) {
      NoteFatal(item->status);
      continue;  // credit + reservation released by WorkItem destruction
    }
    // Return the credit to the pool just before the disk write (Figure 4).
    item->credit.Return();
    if (m_.csv_reallocs != nullptr && item->converted.csv_reallocs != 0) {
      m_.csv_reallocs->Increment(item->converted.csv_reallocs);
    }
    SealedBatch staged;
    obs::ScopedTimer write_timer(m_.write_seconds);
    obs::ScopedSpan write_span(tail_.trace().get(), obs::Phase::kFileWrite, "write");
    Status s = tail_.StageChunk(std::move(item->converted), converter_.quality(), &lane, &staged);
    write_timer.StopAndObserve();
    write_span.End();
    MergeStaged(std::move(staged), s);
  }
  SealedBatch closed;
  Status s = tail_.CloseLane(&lane, &closed);
  MergeStaged(std::move(closed), s);
}

void ImportJob::MergeStaged(SealedBatch staged, const Status& status) {
  if (m_.rows_staged != nullptr) {
    m_.rows_staged->Increment(staged.rows_staged);
    m_.data_errors->Increment(staged.errors.size());
    m_.chunks_abandoned->Increment(staged.chunks_abandoned);
  }
  common::MutexLock lock(&mu_);
  batch_.Merge(std::move(staged));
  if (!status.ok() && fatal_.ok()) fatal_ = status;
}

Status ImportJob::FinishAcquisition(uint64_t client_total_chunks, uint64_t client_total_rows) {
  {
    common::MutexLock lock(&mu_);
    if (acquisition_finished_) return fatal_;
    while (outstanding_conversions_ != 0) conversions_done_.Wait(lock);
    acquisition_finished_ = true;
  }
  ordered_chunks_.Close();
  for (auto& t : writer_threads_) {
    if (t.joinable()) t.join();
  }
  Status s = SealAndShip(client_total_chunks, client_total_rows);
  if (!s.ok()) EndJob(s);
  return s;
}

Status ImportJob::SealAndShip(uint64_t client_total_chunks, uint64_t client_total_rows) {
  SealedBatch batch;
  {
    common::MutexLock lock(&mu_);
    HQ_RETURN_NOT_OK(fatal_);
    if (client_total_chunks != 0 && client_total_chunks != chunk_counter_) {
      return Status::ProtocolError("client reported " + std::to_string(client_total_chunks) +
                                   " chunks, received " + std::to_string(chunk_counter_));
    }
    if (client_total_rows != 0 && client_total_rows != row_counter_) {
      return Status::ProtocolError("client reported " + std::to_string(client_total_rows) +
                                   " rows, received " + std::to_string(row_counter_));
    }
    // The whole job is one batch over every row number handed out.
    batch = std::move(batch_);
    batch_ = SealedBatch{};
    batch.first_row = 1;
    batch.last_row = row_counter_;
    stats_.chunks = chunk_counter_;
    stats_.rows_received = row_counter_;
    stats_.bytes_received = bytes_received_;
  }

  // Format negotiation: the job tells COPY what it staged, so a malformed
  // object fails loudly instead of being misparsed under auto-sniffing.
  const HyperQOptions& options = tail_.ctx().options;
  const cdw::CopyFormat format = options.staging_format == cdw::StagingFormat::kBinary
                                     ? cdw::CopyFormat::kBinary
                                     : cdw::CopyFormat::kCsv;
  Result<ShipResult> shipped = tail_.Ship(batch, /*batch_dir=*/"", format);
  // The batch has served its purpose either way: a failed import is never
  // shipped again.
  tail_.Retire(batch, /*batch_dir=*/"");
  HQ_RETURN_NOT_OK(shipped.status());
  if (m_.files_uploaded != nullptr) {
    m_.files_uploaded->Increment(shipped->files_uploaded);
    m_.bytes_uploaded->Increment(shipped->bytes_uploaded);
    m_.rows_copied->Increment(shipped->rows_copied);
  }

  const CompiledQuality* quality = converter_.quality();
  QualityJobReport report;
  {
    common::MutexLock lock(&mu_);
    stats_.rows_staged = batch.rows_staged;
    stats_.data_errors = batch.errors.size();
    stats_.files_uploaded = shipped->files_uploaded;
    stats_.bytes_uploaded = shipped->bytes_uploaded;
    stats_.rows_copied = shipped->rows_copied;
    stats_.chunks_abandoned = batch.chunks_abandoned;
    stats_.bytes_staged = batch.bytes_staged;
    stats_.rows_quarantined = batch.quality.rows_quarantined;
    if (m_.staging_bytes_per_row != nullptr && batch.rows_staged != 0) {
      m_.staging_bytes_per_row->Set(static_cast<int64_t>(batch.bytes_staged / batch.rows_staged));
    }
    timings_.acquisition_seconds = acquisition_timer_.ElapsedSeconds();
    if (quality != nullptr) quality_report_ = batch.quality.Report(*quality);
    report = quality_report_;
  }
  if (quality != nullptr) {
    tail_.NoteViolationRate(report.violation_rate);
    if (options.quality.abort_over_threshold) {
      // Reason-coded graceful degradation, job flavor: the load aborts (the
      // quarantine table and report survive) when the job-level watermark or
      // any nullrate ceiling is breached.
      if (report.violation_rate > options.quality.max_violation_rate) {
        return Status::ConstraintViolation(
            "quality violation rate " + std::to_string(report.violation_rate) +
            " exceeds max_violation_rate " + std::to_string(options.quality.max_violation_rate) +
            " (" + std::to_string(report.rows_quarantined) + " of " +
            std::to_string(report.rows_checked) + " rows quarantined to " +
            tail_.quarantine_table() + ")");
      }
      for (const auto& c : report.constraints) {
        if (c.breached) {
          return Status::ConstraintViolation(
              "quality constraint " + c.column + " " + c.bound + " breached (observed " +
              std::to_string(c.observed) + "); quarantine table " + tail_.quarantine_table());
        }
      }
    }
  }
  common::MutexLock lock(&mu_);
  sealed_ = std::move(batch);
  return Status::OK();
}

Result<legacy::JobReportBody> ImportJob::ApplyDml(const std::string& label,
                                                  const std::string& sql) {
  (void)label;
  std::optional<SealedBatch> batch;
  Status ready;
  {
    common::MutexLock lock(&mu_);
    ready = fatal_;
    if (ready.ok() && !sealed_.has_value()) {
      // Not a job exit: EndLoad has not completed, or an earlier ApplyDml
      // already took the batch.
      return Status::ProtocolError("job " + job_id() +
                                   ": ApplyDml needs a completed EndLoad and runs once");
    }
    batch = std::move(sealed_);
    sealed_.reset();
  }
  Result<legacy::JobReportBody> report =
      ready.ok() ? ApplySealed(sql, &*batch) : Result<legacy::JobReportBody>(ready);
  EndJob(report.status());
  return report;
}

Result<legacy::JobReportBody> ImportJob::ApplySealed(const std::string& sql, SealedBatch* batch) {
  common::Stopwatch app_timer;
  obs::ScopedTimer apply_timer(m_.apply_seconds);
  obs::ScopedSpan apply_span(tail_.trace().get(), obs::Phase::kDmlApply, "apply");

  HQ_ASSIGN_OR_RETURN(sql::StatementPtr legacy_stmt, sql::ParseStatement(sql));
  // Record acquisition-phase data errors in the ET table first (the legacy
  // tuple-at-a-time semantics: bad input records are excluded and logged).
  HQ_RETURN_NOT_OK(tail_.RecordErrors(batch));
  HQ_ASSIGN_OR_RETURN(DmlApplyResult dml,
                      tail_.Apply(*legacy_stmt, batch->first_row, batch->last_row));
  // Staging table is job-scoped scratch state.
  HQ_RETURN_NOT_OK(tail_.DropStaging());

  // Publish the result and application timing under the job lock: sessions
  // may poll JobDmlResult()/JobTimings() while the apply is still running.
  {
    common::MutexLock lock(&mu_);
    dml_result_ = dml;
    timings_.application_seconds = app_timer.ElapsedSeconds();
  }

  legacy::JobReportBody report;
  report.rows_inserted = dml.rows_inserted;
  report.rows_updated = dml.rows_updated;
  report.rows_deleted = dml.rows_deleted;
  report.et_errors = dml.et_errors + batch->errors.size();
  report.uv_errors = dml.uv_errors;
  report.message = "job " + job_id() + " complete";

  apply_timer.StopAndObserve();
  apply_span.End();
  return report;
}

void ImportJob::EndJob(const Status& outcome) {
  if (ended_.exchange(true)) return;
  if (!outcome.ok()) NoteFatal(outcome);
  obs::Counter* ended = outcome.ok() ? m_.jobs_completed : m_.jobs_failed;
  if (ended != nullptr) ended->Increment();
  active_.Release();
  if (tail_.trace() != nullptr) tail_.trace()->Finish();
}

PhaseTimings ImportJob::timings() const {
  common::MutexLock lock(&mu_);
  return timings_;
}

AcquisitionStats ImportJob::stats() const {
  common::MutexLock lock(&mu_);
  return stats_;
}

DmlApplyResult ImportJob::dml_result() const {
  common::MutexLock lock(&mu_);
  return dml_result_;
}

QualityJobReport ImportJob::quality_report() const {
  common::MutexLock lock(&mu_);
  return quality_report_;
}

}  // namespace hyperq::core
