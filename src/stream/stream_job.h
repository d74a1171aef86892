#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hyperq/load_tail.h"
#include "legacy/parcel.h"
#include "sql/ast.h"

/// \file stream_job.h
/// Streaming micro-batch import (the "real-time" half of the paper's title,
/// following DOD-ETL's micro-batching and METL's drift-tolerant mapping). A
/// StreamJob is the second front end of the shared core::LoadTail
/// (hyperq/load_tail.h); ImportJob is the first. Chunks arrive continuously
/// and are converted and staged on the session thread into the open
/// micro-batch; the client cuts watermark-delimited micro-batches with
/// CommitBatch, and every commit seals the open batch and runs the tail:
/// Ship (upload + COPY) -> ET inserts -> DML apply over exactly the batch's
/// HQ_ROWNUM range. The target table trails the stream by one micro-batch; a
/// batch import is the same tail with one watermark.
///
/// What the stream adds on top of the tail: the busy token that serializes
/// its verbs, schema-drift remapping with the binary -> csv format fallback,
/// the commit slot, poisoning, per-batch quality rejection and staging-row
/// pruning.
///
/// Exactly-once, as two rules:
///   - *A sealed batch carries its own retry state, and the tail retires
///     it.* Every stage before the DML apply is idempotent across commit
///     attempts: uploads re-put identical bytes to the same keys, the CDW's
///     COPY ledger skips objects the batch's own prefix already ingested (a
///     lost COPY ack), and ET inserts resume past the rows already recorded.
///     A failure in the DML apply itself, the one stage whose partial
///     effects cannot be re-run safely, poisons the stream. Once a commit
///     succeeds (rejected batches included), LoadTail::Retire removes the
///     batch's local files and forgets its ledger entries: nothing COPYs
///     that prefix again, so the ledger never outgrows one batch.
///   - *A stream has one commit slot.* It holds the latest sealed batch.
///     Until its reply is recorded the batch is pending: chunks and EndStream
///     are refused, and a re-sent CommitBatch re-runs the pipeline on the
///     retained rows. After the commit the slot keeps only the reply, which
///     answers a re-sent CommitBatch (lost BatchCommitted reply) without
///     re-running anything. Any other batch_seq must be the next one.
///
/// Schema drift: a StreamLayout parcel switches the session's conversion
/// plan. Name-matched fields are remapped into the original target layout
/// (see ConversionPlan::CompileRemapped); new fields with no target are
/// dropped (counted), removed fields become NULLs. The staging table, DML
/// binding and HQ_ROWNUM bookkeeping all stay in the original layout, which
/// is what makes a drifting stream land byte-identical to a batch run of the
/// same logical rows.

namespace hyperq::stream {

struct StreamStats {
  uint64_t chunks = 0;
  uint64_t rows_received = 0;
  uint64_t batches_committed = 0;
  uint64_t rows_committed = 0;  ///< rows staged and COPYed across batches
  uint64_t data_errors = 0;
  uint64_t chunks_abandoned = 0;
  uint64_t layout_changes = 0;
  uint64_t fields_dropped = 0;  ///< source fields with no target match
  uint64_t fields_nulled = 0;   ///< target fields with no source match
  uint64_t commit_replays = 0;  ///< CommitBatch re-sends answered from the slot
  uint64_t commit_retries = 0;  ///< pipeline re-runs on a retained sealed batch
  uint64_t staging_rows_pruned = 0;  ///< applied rows deleted from the staging table
  /// Sessions negotiated down from binary to csv staging because a layout
  /// drift changed a name-matched field's staging type (see
  /// DataConverter::CreateRemapped). At most 1 per stream: the fallback is
  /// sticky for the session.
  uint64_t format_fallbacks = 0;
  /// Rows the data-quality gate diverted to the HQ_QRTN_<job> table.
  uint64_t rows_quarantined = 0;
  /// Micro-batches rejected by abort-over-threshold (quarantine shipped,
  /// staging rows dropped, stream kept healthy).
  uint64_t batches_rejected = 0;
};

class StreamJob {
 public:
  /// Validates the context, parses the stream's DML, and creates the
  /// CDW-side state (staging + error tables). `job_id` must be unique on
  /// the node.
  static common::Result<std::shared_ptr<StreamJob>> Create(const std::string& job_id,
                                                           const legacy::BeginStreamBody& begin,
                                                           core::JobContext ctx);

  /// Accepts one data chunk into the open micro-batch. Conversion and the
  /// staging-file append run synchronously on the calling session thread:
  /// a micro-batch is small by construction and strict arrival order is
  /// what makes drift windows deterministic. Refused while a failed commit
  /// is pending retry — the rows of that batch are already sealed, and
  /// accepting re-sent copies of them would stage duplicates.
  common::Status SubmitChunk(const legacy::DataChunkBody& chunk);

  /// Switches the session's source layout (schema drift). Subsequent chunks
  /// are decoded in `layout` and remapped into the stream's original target
  /// layout by field name. No-op when `layout` equals the current one.
  common::Status ChangeLayout(const types::Schema& layout);

  /// Commits the open micro-batch: seals the staging files, uploads them
  /// under the batch's own prefix, COPYs into the staging table, records
  /// this batch's data errors, and applies the stream DML over exactly the
  /// batch's HQ_ROWNUM range. Re-sending the latest committed `batch_seq`
  /// returns its recorded reply. `watermark_micros` must advance. On
  /// failure the sealed batch is retained: re-sending the same CommitBatch
  /// re-runs the pipeline on the same rows (exactly-once either way), unless
  /// the failure poisoned the stream (DML apply / staging finalize), in
  /// which case this and every later call returns the poison status.
  common::Result<legacy::BatchCommittedBody> CommitBatch(uint64_t batch_seq,
                                                         uint64_t watermark_micros);

  /// Ends the stream after validating client totals; fails if uncommitted
  /// rows remain. Drops the staging table and reports the cumulative result
  /// of every committed batch.
  common::Result<legacy::JobReportBody> Finish(uint64_t total_chunks, uint64_t total_rows);

  const std::string& job_id() const { return tail_.job_id(); }
  StreamStats stats() const HQ_EXCLUDES(mu_);
  /// Cumulative data-quality outcome across every batch so far
  /// (enabled=false when the gate is off). Serializes with in-flight calls.
  core::QualityJobReport quality_report() HQ_EXCLUDES(mu_);
  /// Quarantine table name ("" when the gate is off); outlives the stream.
  const std::string& quarantine_table() const { return tail_.quarantine_table(); }
  std::shared_ptr<obs::Trace> trace() const { return tail_.trace(); }

 private:
  StreamJob(core::LoadTail tail, core::DataConverter converter, sql::StatementPtr dml);

  /// Serializes SubmitChunk/ChangeLayout/CommitBatch/Finish across sessions
  /// without holding mu_ (rank kJob) through CDW (rank kCdw) or store calls
  /// — the lock hierarchy is descending-only, so commit IO must run
  /// lock-free. Busy is a turn token, not a critical section.
  void AcquireBusy() HQ_EXCLUDES(mu_);
  void ReleaseBusy() HQ_EXCLUDES(mu_);
  /// RAII for the busy token.
  struct BusyToken {
    explicit BusyToken(StreamJob* job) : job_(job) { job_->AcquireBusy(); }
    ~BusyToken() { job_->ReleaseBusy(); }
    BusyToken(const BusyToken&) = delete;
    BusyToken& operator=(const BusyToken&) = delete;
    StreamJob* job_;
  };

  /// Moves the open batch into the commit slot and finalizes its staging
  /// files. On failure the caller must poison the stream: the writer's
  /// finalize path is not re-runnable, so the batch content is forfeit.
  common::Status SealOpenBatch(uint64_t batch_seq);
  /// The commit pipeline body over the slot's batch; runs with the busy
  /// token held, mu_ free. Retires the batch and records the slot's reply
  /// (and advances the committed watermark / row high) only after every
  /// stage has succeeded.
  common::Result<legacy::BatchCommittedBody> CommitSealed(uint64_t watermark_micros);
  /// A sealed batch awaits a (re-sent) CommitBatch.
  bool CommitPending() const { return commit_.has_value() && !commit_->reply.has_value(); }
  /// Marks the stream permanently failed; every later call returns this.
  void Poison(const common::Status& cause);

  core::LoadTail tail_;
  core::DataConverter converter_;  ///< swapped on drift; busy-serialized
  sql::StatementPtr dml_;
  /// Effective staging format for NEW staging files. Starts as the node's
  /// configured format; negotiated down to kCsv (permanently, for this
  /// session) when a type-changing drift makes binary staging impossible.
  /// Already-written files keep their format — each staged object is
  /// single-format and COPY sniffs per object, so a mixed-format batch
  /// prefix loads correctly and its ledger keys stay format-tagged.
  cdw::StagingFormat staging_format_ = cdw::StagingFormat::kCsv;

  struct Instruments {
    obs::Counter* chunks = nullptr;
    obs::Counter* rows_received = nullptr;
    obs::Counter* batches_committed = nullptr;
    obs::Counter* rows_committed = nullptr;
    obs::Counter* data_errors = nullptr;
    obs::Counter* remap_total = nullptr;
    obs::Counter* fields_dropped = nullptr;
    obs::Counter* fields_nulled = nullptr;
    obs::Counter* commit_replays = nullptr;
    obs::Counter* format_fallbacks = nullptr;
    obs::Histogram* batch_latency = nullptr;
    obs::Gauge* watermark_lag = nullptr;
    obs::Counter* batches_rejected = nullptr;
  } m_;
  core::ActiveGauge active_;

  mutable common::Mutex mu_{common::LockRank::kJob, "stream_job"};
  common::CondVar busy_cv_;
  bool busy_ HQ_GUARDED_BY(mu_) = false;

  // --- Session-serialized state (written with the busy token held; counters
  // --- mirrored under mu_ where stats() reads them). ---
  uint64_t chunk_counter_ HQ_GUARDED_BY(mu_) = 0;
  uint64_t row_counter_ HQ_GUARDED_BY(mu_) = 0;
  StreamStats stats_ HQ_GUARDED_BY(mu_);

  /// Open micro-batch and its staging lane (busy-serialized; no concurrent
  /// readers).
  core::StagingLane lane_;
  core::SealedBatch open_;
  std::chrono::steady_clock::time_point batch_open_;
  /// Global row number of the last row belonging to a committed batch.
  uint64_t committed_row_high_ = 0;

  /// The latest micro-batch sealed for commit. `batch` survives a failed
  /// attempt so a retried CommitBatch re-runs the pipeline on the same rows;
  /// a successful commit empties it and sets `reply`, which answers re-sends.
  struct Commit {
    uint64_t batch_seq = 0;
    std::chrono::steady_clock::time_point open_time;
    core::SealedBatch batch;
    std::optional<legacy::BatchCommittedBody> reply;
  };
  std::optional<Commit> commit_;  ///< the commit slot (busy-serialized)

  uint64_t last_watermark_ = 0;

  /// Cumulative quality aggregates across committed batches.
  core::QualityTally quality_ HQ_GUARDED_BY(mu_);

  /// Cumulative DML results across batches (for the final JobReport).
  core::DmlApplyResult dml_totals_ HQ_GUARDED_BY(mu_);
  uint64_t data_errors_recorded_ HQ_GUARDED_BY(mu_) = 0;
  bool finished_ HQ_GUARDED_BY(mu_) = false;
  /// Non-OK once an unrecoverable commit failure has been observed.
  common::Status poison_ HQ_GUARDED_BY(mu_);
};

}  // namespace hyperq::stream
