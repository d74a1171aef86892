#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/memory_tracker.h"
#include "common/sequenced_queue.h"
#include "common/stopwatch.h"
#include "common/sync.h"
#include "hyperq/credit_manager.h"
#include "hyperq/load_tail.h"
#include "legacy/parcel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

/// \file import_job.h
/// One virtualized import job (Figure 2a of the paper): receives legacy data
/// chunks from any number of parallel client sessions, converts them in the
/// background, and hands them to the shared LoadTail (load_tail.h), which
/// stages, uploads, COPYs and finally applies the job's DML transformation
/// with adaptive error handling.
///
/// ImportJob is the tail's parallel front end (Sections 4-5):
///   session thread: CreditManager.Acquire -> submit -> ack client
///   converter pool: legacy encoding -> staging bytes (+ data-error capture)
///   sequenced queue: restores chunk order
///   writer threads: return credit, stage the chunk on the writer's lane,
///                   merge the outcome into the open batch under mu_
///   EndLoad: seal everything as ONE batch over rows [1, N] -> Ship
///   ApplyDml: ET inserts -> adaptive apply -> teardown
/// Every failure is sticky: once the job has failed, every later EndLoad or
/// ApplyDml returns that failure.

namespace hyperq::core {

struct PhaseTimings {
  double acquisition_seconds = 0;  ///< data receipt + conversion + upload + COPY
  double application_seconds = 0;  ///< DML transformation in the CDW
  double other_seconds = 0;        ///< startup/teardown bookkeeping
};

struct AcquisitionStats {
  uint64_t chunks = 0;
  uint64_t rows_received = 0;
  uint64_t rows_staged = 0;
  uint64_t bytes_received = 0;
  uint64_t data_errors = 0;
  uint64_t files_uploaded = 0;
  uint64_t bytes_uploaded = 0;
  uint64_t rows_copied = 0;
  /// Staging bytes written by the converter stage (CSV text or HQB1 blocks,
  /// per HyperQOptions::staging_format); bytes_staged / rows_staged is the
  /// exported staging-bytes-per-row gauge.
  uint64_t bytes_staged = 0;
  /// Chunks dropped after exhausting per-chunk staging retries (graceful
  /// degradation: each lands in the ET table with code 9058 instead of
  /// failing the job).
  uint64_t chunks_abandoned = 0;
  /// Rows the data-quality gate diverted to the HQ_QRTN_<job> table.
  uint64_t rows_quarantined = 0;
};

class ImportJob {
 public:
  /// Creates CDW-side state (staging + error tables) and starts the writer
  /// stage. `job_id` must be unique on the node.
  static common::Result<std::shared_ptr<ImportJob>> Create(const std::string& job_id,
                                                           const legacy::BeginLoadBody& begin,
                                                           JobContext ctx);

  ~ImportJob();

  /// Accepts one data chunk from a client session. Blocks while the credit
  /// pool is empty (back-pressure); the caller acknowledges the chunk to the
  /// client after this returns.
  common::Status SubmitChunk(const legacy::DataChunkBody& chunk) HQ_EXCLUDES(mu_);

  /// Drains the pipeline, seals every staged chunk as one batch, uploads it
  /// and COPYs it into the staging table, then evaluates the quality gate.
  /// Idempotent; a failure is sticky and ends the job.
  common::Status FinishAcquisition(uint64_t client_total_chunks, uint64_t client_total_rows)
      HQ_EXCLUDES(mu_);

  /// Application phase: transpiles and applies the legacy DML with adaptive
  /// error handling; records data errors; drops the staging table. Runs once,
  /// after a successful FinishAcquisition, and ends the job either way.
  common::Result<legacy::JobReportBody> ApplyDml(const std::string& label,
                                                 const std::string& sql)
      HQ_EXCLUDES(mu_);

  const std::string& job_id() const { return tail_.job_id(); }
  PhaseTimings timings() const HQ_EXCLUDES(mu_);
  AcquisitionStats stats() const HQ_EXCLUDES(mu_);
  DmlApplyResult dml_result() const HQ_EXCLUDES(mu_);
  /// Per-job data-quality outcome (enabled=false when the gate is off).
  /// Complete once FinishAcquisition returns.
  QualityJobReport quality_report() const HQ_EXCLUDES(mu_);
  /// Quarantine table name ("" when the gate is off).
  const std::string& quarantine_table() const { return tail_.quarantine_table(); }
  /// The job's span tree (null when observability is disabled).
  std::shared_ptr<obs::Trace> trace() const { return tail_.trace(); }

 private:
  ImportJob(LoadTail tail, DataConverter converter);

  struct WorkItem {
    ConvertedChunk converted;
    Credit credit;
    common::MemoryReservation reservation;
    common::Status status;  ///< conversion failure (fatal)
  };

  void StartWriters();
  void WriterLoop(size_t writer_index) HQ_EXCLUDES(mu_);
  /// Merges one writer's staging outcome into the open batch.
  void MergeStaged(SealedBatch staged, const common::Status& status) HQ_EXCLUDES(mu_);
  /// The body of FinishAcquisition after the writers have drained.
  common::Status SealAndShip(uint64_t client_total_chunks, uint64_t client_total_rows)
      HQ_EXCLUDES(mu_);
  /// The body of ApplyDml over the batch it took from sealed_.
  common::Result<legacy::JobReportBody> ApplySealed(const std::string& sql, SealedBatch* batch)
      HQ_EXCLUDES(mu_);
  /// The one job-end step every terminal outcome goes through: makes a
  /// failure sticky, counts the job as completed or failed, drops the
  /// jobs-active gauge and finishes the trace, each exactly once.
  void EndJob(const common::Status& outcome) HQ_EXCLUDES(mu_);
  void NoteFatal(const common::Status& s) HQ_EXCLUDES(mu_);
  common::Status fatal_status() const HQ_EXCLUDES(mu_);

  LoadTail tail_;
  DataConverter converter_;

  /// Node-wide instrument pointers cached once at construction (all null
  /// when observability is off — hot paths test one pointer and skip).
  struct Instruments {
    obs::Counter* chunks = nullptr;
    obs::Counter* rows_received = nullptr;
    obs::Counter* bytes_received = nullptr;
    obs::Counter* rows_staged = nullptr;
    obs::Counter* data_errors = nullptr;
    obs::Counter* files_uploaded = nullptr;
    obs::Counter* bytes_uploaded = nullptr;
    obs::Counter* rows_copied = nullptr;
    obs::Counter* chunks_abandoned = nullptr;
    obs::Counter* jobs_started = nullptr;
    obs::Counter* jobs_completed = nullptr;
    obs::Counter* jobs_failed = nullptr;
    obs::Counter* csv_reallocs = nullptr;
    obs::Histogram* convert_seconds = nullptr;
    obs::Histogram* write_seconds = nullptr;
    obs::Histogram* apply_seconds = nullptr;
    obs::Gauge* converter_queue = nullptr;
    obs::Gauge* staging_bytes_per_row = nullptr;
  } m_;
  ActiveGauge active_;
  std::atomic<bool> ended_{false};

  common::SequencedQueue<WorkItem> ordered_chunks_;
  std::vector<std::thread> writer_threads_;
  /// One staging lane per writer thread, owned by that thread.
  std::vector<StagingLane> lanes_;

  mutable common::Mutex mu_{common::LockRank::kJob, "import_job"};
  common::CondVar conversions_done_;
  uint64_t outstanding_conversions_ HQ_GUARDED_BY(mu_) = 0;
  uint64_t chunk_counter_ HQ_GUARDED_BY(mu_) = 0;
  uint64_t row_counter_ HQ_GUARDED_BY(mu_) = 0;
  uint64_t bytes_received_ HQ_GUARDED_BY(mu_) = 0;
  /// The job's one batch: open while writers stage into it, moved out and
  /// shipped by FinishAcquisition, parked in sealed_ until ApplyDml takes it.
  SealedBatch batch_ HQ_GUARDED_BY(mu_);
  std::optional<SealedBatch> sealed_ HQ_GUARDED_BY(mu_);
  QualityJobReport quality_report_ HQ_GUARDED_BY(mu_);
  common::Status fatal_ HQ_GUARDED_BY(mu_);
  bool acquisition_finished_ HQ_GUARDED_BY(mu_) = false;

  AcquisitionStats stats_ HQ_GUARDED_BY(mu_);
  common::Stopwatch acquisition_timer_;
  PhaseTimings timings_ HQ_GUARDED_BY(mu_);
  DmlApplyResult dml_result_ HQ_GUARDED_BY(mu_);
};

}  // namespace hyperq::core
