#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cdw/cdw_server.h"
#include "cdw/copy.h"
#include "cloudstore/object_store.h"
#include "common/buffer_pool.h"
#include "common/memory_tracker.h"
#include "common/retry.h"
#include "common/thread_pool.h"
#include "hyperq/credit_manager.h"
#include "hyperq/data_converter.h"
#include "hyperq/error_handler.h"
#include "hyperq/file_writer.h"
#include "hyperq/hyperq_config.h"
#include "hyperq/quality.h"
#include "legacy/parcel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/ast.h"

/// \file load_tail.h
/// The load tail both job drivers share (Figure 2a of the paper, after
/// conversion): stage converted chunks into local files, seal them into a
/// batch, upload it, COPY it into the job's staging table, record its data
/// errors in the ET table, and apply the job's DML over the batch's
/// HQ_ROWNUM range with adaptive error handling. Two front ends feed it:
/// ImportJob seals the whole job as one batch over rows [1, N] at EndLoad;
/// stream::StreamJob seals one micro-batch per CommitBatch. HQ_ROWNUM is
/// monotone over the one staging table, so N micro-batch applies over
/// consecutive ranges equal one apply over all rows.
///
/// The tail holds no lock. Staging works on a caller-owned StagingLane and
/// fills a caller-provided SealedBatch that the caller merges under its own
/// lock; every later stage runs on one thread with no lock held, so CDW and
/// object-store calls never nest inside a job lock.

namespace hyperq::core {

/// Node-wide resources a job runs against (filled by HyperQServer).
struct JobContext {
  cdw::CdwServer* cdw = nullptr;
  cloud::ObjectStore* store = nullptr;
  CreditManager* credits = nullptr;
  common::ThreadPool* converter_pool = nullptr;
  common::MemoryTracker* memory = nullptr;
  /// Node-wide recycler for chunk payload copies and converted CSV buffers
  /// (null = allocate fresh per chunk); set by the HyperQServer.
  common::BufferPool* buffers = nullptr;
  /// Node-wide observability (null = disabled); set by the HyperQServer.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
  HyperQOptions options;
};

/// What a job loads into: the fields BeginLoad and BeginStream share.
struct LoadTarget {
  std::string table;
  std::string error_table_et;  ///< "" = <table>_ET
  std::string error_table_uv;  ///< "" = <table>_UV
  types::Schema layout;
  legacy::DataFormat format = legacy::DataFormat::kVartext;
  char delimiter = '|';
  /// Error-handling overrides from the client script; 0 = node default.
  uint64_t max_errors = 0;
  int32_t max_retries = 0;

  template <typename Begin>
  static LoadTarget Of(const Begin& begin) {
    return LoadTarget{begin.target_table, begin.error_table_et, begin.error_table_uv,
                      begin.layout,       begin.format,         begin.delimiter,
                      begin.max_errors,   begin.max_retries};
  }
};

/// Quality-gate aggregates keyed by constraint id. Ids are spec-ordered and
/// so stable across drift recompiles; field indices are not, which is why
/// NULL counts are kept per nullrate constraint rather than per field.
struct QualityTally {
  uint64_t rows_checked = 0;
  uint64_t rows_quarantined = 0;
  std::vector<uint64_t> violations_by_id;
  std::vector<uint64_t> nulls_by_id;

  void AddChunk(const CompiledQuality& cq, const ChunkQuality& chunk);
  void Add(const QualityTally& other);
  double violation_rate() const {
    return rows_checked == 0 ? 0.0
                             : static_cast<double>(rows_quarantined) /
                                   static_cast<double>(rows_checked);
  }
  QualityJobReport Report(const CompiledQuality& cq) const;
};

/// A batch's staged state: accumulated while the batch is open, then sealed
/// and shipped. Survives a failed ship/apply attempt so a retry re-runs the
/// tail on the same rows; errors_recorded makes the ET inserts resumable.
struct SealedBatch {
  std::vector<FinalizedFile> files;       ///< staging files (the COPY scope)
  std::vector<FinalizedFile> qrtn_files;  ///< quarantine files (always CSV)
  std::vector<RecordError> errors;        ///< ET rows to record
  size_t errors_recorded = 0;             ///< ET rows durably inserted so far
  uint64_t chunks = 0;
  uint64_t chunks_abandoned = 0;  ///< staging retries exhausted (ET code 9058)
  uint64_t rows_staged = 0;       ///< rows durably in `files`
  uint64_t bytes_staged = 0;
  uint64_t qrtn_rows_staged = 0;  ///< rows durably in `qrtn_files`
  /// HQ_ROWNUM range the DML applies over (set when the batch is sealed).
  uint64_t first_row = 0;
  uint64_t last_row = 0;
  QualityTally quality;

  /// Moves `other`'s files and errors in and adds its counters.
  void Merge(SealedBatch&& other);
};

/// One caller-owned series of staging files plus its quarantine series.
/// Both writers open on first use. Not thread-safe: the import gives each
/// writer thread its own lane, the stream has one per open micro-batch.
struct StagingLane {
  std::string name;       ///< staging file-name stem
  std::string qrtn_name;  ///< quarantine file-name stem
  cdw::StagingFormat format = cdw::StagingFormat::kCsv;
  std::unique_ptr<FileWriter> data;
  std::unique_ptr<FileWriter> qrtn;
};

/// What one Ship call moved.
struct ShipResult {
  uint64_t files_uploaded = 0;
  uint64_t bytes_uploaded = 0;
  uint64_t rows_copied = 0;
};

/// Holds one unit of a jobs-active gauge and drops it exactly once, at job
/// end or destruction, whichever comes first.
class ActiveGauge {
 public:
  explicit ActiveGauge(obs::Gauge* gauge) : gauge_(gauge) {
    if (gauge_ != nullptr) gauge_->Add(1);
  }
  ~ActiveGauge() { Release(); }
  ActiveGauge(const ActiveGauge&) = delete;
  ActiveGauge& operator=(const ActiveGauge&) = delete;
  void Release() {
    if (gauge_ != nullptr && held_.exchange(false)) gauge_->Sub(1);
  }

 private:
  obs::Gauge* gauge_;
  std::atomic<bool> held_{true};
};

class LoadTail {
 public:
  /// Validates the context, the target table and the node's fault and
  /// quality specs (an unparseable spec fails loudly with ProtocolError
  /// instead of silently degrading to "no injection" / "no gate"), and names
  /// the job's tables: staging `<staging_table_prefix><id>` with objects
  /// under `<remote_root><id>/`, quarantine HQ_QRTN_<id> under
  /// quarantine/<id>/ when the target has a quality block. No side effects.
  static common::Result<LoadTail> Create(const std::string& job_id,
                                         const std::string& staging_table_prefix,
                                         const std::string& remote_root, LoadTarget target,
                                         JobContext ctx);

  /// Compiles the converter for the target layout, starts the job's trace,
  /// and recreates the CDW-side tables: staging, ET, UV and quarantine, the
  /// staging and quarantine tables without a prior job's COPY ledger.
  common::Result<DataConverter> Open();

  /// A converter for `source_layout` (remapped by name into the target
  /// layout when they differ) with the job's quality gate.
  common::Result<DataConverter> MakeConverter(const types::Schema& source_layout,
                                              cdw::StagingFormat format) const;

  /// Stages one converted chunk on `lane` into `out`, which the caller then
  /// merges into its open batch. Transient disk failures are retried;
  /// exhausted retries abandon the chunk (or its quarantine rows) into an ET
  /// 9058 row instead of failing the job. A non-OK return is a hard failure;
  /// `out` still holds what was staged. `quality` is the gate of the
  /// converter that produced the chunk (null when off).
  common::Status StageChunk(ConvertedChunk converted, const CompiledQuality* quality,
                            StagingLane* lane, SealedBatch* out) const;

  /// Finalizes the lane's open files into `out` and closes both writers.
  common::Status CloseLane(StagingLane* lane, SealedBatch* out) const;

  /// Uploads the batch (staging files under <remote prefix><batch_dir>,
  /// quarantine files under <quarantine prefix><batch_dir>) in one
  /// resume-aware put, then COPYs each non-empty series into its table and
  /// checks the row counts. `format` is the staging COPY's format (kAuto
  /// sniffs per object); `load_rows` = false ships only the quarantine
  /// series. Idempotent: re-puts overwrite identical bytes and the COPY
  /// ledger skips objects already ingested.
  common::Result<ShipResult> Ship(const SealedBatch& batch, const std::string& batch_dir,
                                  cdw::CopyFormat format, bool load_rows = true) const;

  /// Inserts the batch's not-yet-recorded data errors into the ET table.
  common::Status RecordErrors(SealedBatch* batch) const;

  /// Applies `dml` over staging rows [first_row, last_row] with adaptive
  /// error handling.
  common::Result<DmlApplyResult> Apply(const sql::Statement& dml, uint64_t first_row,
                                       uint64_t last_row) const;

  /// Retires a batch that will never be shipped again (a committed stream
  /// batch, rejected ones included, or an import's batch after its one
  /// Ship): removes its local files and forgets the COPY ledger entries of
  /// its staging and quarantine prefixes under `batch_dir`. The ledger only
  /// has to absorb COPY retries until the batch's commit succeeds; a
  /// replayed commit never re-runs COPY.
  void Retire(const SealedBatch& batch, const std::string& batch_dir) const;

  /// Drops the staging table (job teardown). Its COPY ledger is already
  /// empty: every shipped batch was retired.
  common::Status DropStaging() const;

  /// Publishes a violation rate on the node-wide gauge.
  void NoteViolationRate(double rate) const;

  const std::string& job_id() const { return job_id_; }
  const LoadTarget& target() const { return target_; }
  const JobContext& ctx() const { return ctx_; }
  const std::string& staging_table() const { return staging_table_; }
  /// Quarantine table ("" when the gate is off). It outlives the job on
  /// purpose: quarantined rows are the operator's diagnostics.
  const std::string& quarantine_table() const { return qrtn_table_; }
  bool quality_on() const { return table_quality_.has_value(); }
  /// The job's span tree (null when observability is disabled).
  const std::shared_ptr<obs::Trace>& trace() const { return trace_; }

 private:
  LoadTail(std::string job_id, std::string staging_table_prefix, std::string remote_root,
           LoadTarget target, JobContext ctx);

  /// The job's retry policy for one substrate hop: io_retry options from the
  /// config, the named endpoint's circuit breaker, and (when tracing) an
  /// on_backoff hook that records Phase::kRetryBackoff spans.
  common::RetryPolicy MakeIoRetry(const char* breaker_endpoint) const;
  FileWriterOptions WriterOptions(cdw::StagingFormat format) const;
  /// Degrades a chunk whose staging retries ran out into an ET 9058 row.
  void Abandon(uint64_t row_number, std::string message, SealedBatch* out) const;

  std::string job_id_;
  LoadTarget target_;
  JobContext ctx_;
  std::string staging_table_;
  std::string remote_prefix_;
  std::string local_dir_;
  std::string qrtn_table_;
  std::string qrtn_remote_prefix_;
  /// Kept so drift-swapped converters recompile the same constraints.
  std::optional<TableQualitySpec> table_quality_;

  std::shared_ptr<obs::Trace> trace_;
  struct Instruments {
    obs::Histogram* upload_seconds = nullptr;
    obs::Histogram* compress_seconds = nullptr;
    obs::Counter* rows_quarantined = nullptr;
    /// Violation rate in basis points (rate * 10000).
    obs::Gauge* violation_rate_bp = nullptr;
    /// hyperq_quality_violations_total{constraint="..."}, id-indexed.
    std::vector<obs::Counter*> quality_violations;
  } m_;
};

}  // namespace hyperq::core
