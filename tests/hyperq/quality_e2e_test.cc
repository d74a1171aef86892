#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>

#include "cdw/cdw_server.h"
#include "cloudstore/bulk_loader.h"
#include "cloudstore/object_store.h"
#include "common/fault.h"
#include "common/retry.h"
#include "etlscript/etl_client.h"
#include "hyperq/server.h"

/// \file quality_e2e_test.cc
/// Quarantine differential suite for the declarative data-quality gate:
///   1. gate-on over clean data is byte-identical to gate-off,
///   2. seeded dirty data yields exactly the quarantine rows + reason codes
///      the hand-computed reference below predicts,
///   3. the same dirty load under >=10% injected faults lands identically
///      (same ledger/retry machinery; no duplicate quarantine rows), and
///   4. the abort-over-threshold degradation policy fails the job loudly
///      while keeping the quarantine table and report.

namespace hyperq::core {
namespace {

class QualityE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    work_dir_ = "/tmp/hq_quality_e2e." + std::to_string(::getpid());
    std::filesystem::remove_all(work_dir_);
    std::filesystem::create_directories(work_dir_);
    ResetResilienceState();
  }

  void TearDown() override {
    StopNode();
    ResetResilienceState();
  }

  static void ResetResilienceState() {
    common::FaultInjector::Global().ResetForTesting();
    common::RetryStats::Global().ResetForTesting();
    common::ResetBreakersForTesting();
  }

  void StartNode(HyperQOptions options = {}) {
    store_ = std::make_unique<cloud::ObjectStore>();
    cdw_ = std::make_unique<cdw::CdwServer>(store_.get());
    options.local_staging_dir = work_dir_ + "/staging";
    node_ = std::make_unique<HyperQServer>(cdw_.get(), store_.get(), options);
    node_->Start();
  }

  void StopNode() {
    if (node_) node_->Stop();
    node_.reset();
  }

  void WriteInput(const std::string& content) {
    ASSERT_TRUE(cloud::WriteFileBytes(work_dir_ + "/input.txt",
                                      common::Slice(std::string_view(content)))
                    .ok());
  }

  etlscript::EtlClient MakeClient(size_t chunk_rows = 100) {
    etlscript::EtlClientOptions options;
    options.working_dir = work_dir_;
    options.chunk_rows = chunk_rows;
    options.connector =
        [this](const std::string&) -> common::Result<std::shared_ptr<net::Transport>> {
      auto t = node_->Connect();
      if (!t) return common::Status::IOError("node down");
      return t;
    };
    return etlscript::EtlClient(options);
  }

  /// One session so source row numbers are the 1-based input line numbers —
  /// the reference prediction depends on that.
  static std::string BaseScript() {
    return R"(.logon hq/u,p;
.sessions 1;
create table PROD.CUSTOMER (
  CUST_ID varchar(5),
  CUST_NAME varchar(50),
  JOIN_DATE date
);
.layout L;
.field CUST_ID varchar(5);
.field CUST_NAME varchar(50);
.field JOIN_DATE varchar(10);
.begin import tables PROD.CUSTOMER errortables PROD.CUSTOMER_ET PROD.CUSTOMER_UV;
.dml label Ins;
insert into PROD.CUSTOMER values (
  trim(:CUST_ID), trim(:CUST_NAME),
  cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'));
.import infile input.txt format vartext '|' layout L apply Ins;
.end load;
.logoff;
)";
  }

  /// Constraint ids follow spec order; the reference expectations in the
  /// dirty test below are derived from this spec by hand.
  static QualityOptions GateOptions() {
    QualityOptions q;
    q.spec =
        "PROD.CUSTOMER{CUST_ID:notnull,len[1,4],charset[0-9];"
        "CUST_NAME:pattern[Name*];JOIN_DATE:notnull;"
        "require:CUST_NAME if CUST_ID}";
    return q;
  }

  std::string TableContents(const std::string& table, const std::string& order_by) {
    auto result =
        cdw_->ExecuteSql("SELECT * FROM " + table + " ORDER BY " + order_by).ValueOrDie();
    std::string out;
    for (const auto& row : result.rows) {
      for (const auto& value : row) out += value.ToString() + "|";
      out += "\n";
    }
    return out;
  }

  uint64_t CountRows(const std::string& table) {
    auto result = cdw_->ExecuteSql("SELECT COUNT(*) FROM " + table).ValueOrDie();
    return static_cast<uint64_t>(result.rows[0][0].int_value());
  }

  std::string FindQuarantineTable() {
    for (const std::string& name : cdw_->catalog()->ListTables()) {
      if (name.rfind("HQ_QRTN_", 0) == 0) return name;
    }
    return "";
  }

  static std::string CleanData(int rows) {
    std::string data;
    for (int i = 1; i <= rows; ++i) {
      data += std::to_string(i) + "|Name" + std::to_string(i) + "|2012-01-01\n";
    }
    return data;
  }

  /// Seeded dirty input. Each line's expected outcome (computed by hand from
  /// the spec in GateOptions(), the documented evaluation order — fields in
  /// layout order with notnull -> len -> charset -> pattern, then cross rules
  /// in spec order — and first-violation-wins) is in the comment.
  static std::string DirtyData() {
    return
        "1|Name1|2012-01-01\n"     // 1: clean
        "|Name2|2012-01-02\n"      // 2: id 0 notnull CUST_ID
        "12345|Name3|2012-01-03\n" // 3: id 1 len[1,4]
        "1X|Name4|2012-01-04\n"    // 4: id 2 charset[0-9]
        "5|Other|2012-01-05\n"     // 5: id 3 pattern[Name*]
        "6|Name6|\n"               // 6: id 4 notnull JOIN_DATE
        "7||2012-01-07\n"          // 7: id 5 require (NULL never fails pattern)
        "999|Name8|2012-01-08\n"   // 8: clean
        "12X45|NoName|\n"          // 9: id 1 first; ids 2,3,4 also counted
        "10|Name10|2012-01-10\n";  // 10: clean
  }

  struct ExpectedQuarantineRow {
    int64_t rownum;
    int64_t constraint_id;
    std::string kind;
    std::string column;
    std::string bound;
  };

  static std::vector<ExpectedQuarantineRow> ExpectedDirtyQuarantine() {
    return {
        {2, 0, "notnull", "CUST_ID", "notnull"},
        {3, 1, "len", "CUST_ID", "len[1,4]"},
        {4, 2, "charset", "CUST_ID", "charset[0-9]"},
        {5, 3, "pattern", "CUST_NAME", "pattern[Name*]"},
        {6, 4, "notnull", "JOIN_DATE", "notnull"},
        {7, 5, "require", "CUST_NAME", "required if CUST_ID"},
        {9, 1, "len", "CUST_ID", "len[1,4]"},
    };
  }

  void CheckDirtyQuarantine(const std::string& qrtn_table) {
    auto rows = cdw_->ExecuteSql("SELECT QRTN_ROWNUM, QRTN_CONSTRAINT, QRTN_KIND, "
                                 "QRTN_COLUMN, QRTN_BOUND, CUST_ID, CUST_NAME, JOIN_DATE "
                                 "FROM " + qrtn_table + " ORDER BY QRTN_ROWNUM")
                    .ValueOrDie();
    const auto expected = ExpectedDirtyQuarantine();
    ASSERT_EQ(rows.rows.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      const auto& row = rows.rows[i];
      const auto& want = expected[i];
      EXPECT_EQ(row[0].int_value(), want.rownum) << "row " << i;
      EXPECT_EQ(row[1].int_value(), want.constraint_id) << "row " << i;
      EXPECT_EQ(row[2].string_value(), want.kind) << "row " << i;
      EXPECT_EQ(row[3].string_value(), want.column) << "row " << i;
      EXPECT_EQ(row[4].string_value(), want.bound) << "row " << i;
    }
    // Raw wire values ride along: line 9's oversized id and NULL date.
    const auto& line9 = rows.rows[6];
    EXPECT_EQ(line9[5].string_value(), "12X45");
    EXPECT_EQ(line9[6].string_value(), "NoName");
    EXPECT_TRUE(line9[7].is_null());
    // Line 7's empty CUST_NAME landed as NULL.
    EXPECT_TRUE(rows.rows[5][6].is_null());
  }

  std::string work_dir_;
  std::unique_ptr<cloud::ObjectStore> store_;
  std::unique_ptr<cdw::CdwServer> cdw_;
  std::unique_ptr<HyperQServer> node_;
};

TEST_F(QualityE2eTest, GateOnCleanDataIsByteIdenticalToGateOff) {
  const std::string data = CleanData(500);

  StartNode();
  WriteInput(data);
  auto off = MakeClient().RunScript(BaseScript());
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  EXPECT_EQ(off->imports[0].report.rows_inserted, 500u);
  const std::string baseline = TableContents("PROD.CUSTOMER", "CUST_ID");
  ASSERT_FALSE(baseline.empty());
  auto off_report = node_->JobQualityReport(off->imports[0].job_id).ValueOrDie();
  EXPECT_FALSE(off_report.enabled);
  EXPECT_EQ(FindQuarantineTable(), "");
  StopNode();

  HyperQOptions gated;
  gated.quality = GateOptions();
  StartNode(gated);
  WriteInput(data);
  auto on = MakeClient().RunScript(BaseScript());
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_EQ(on->imports[0].report.rows_inserted, 500u);
  EXPECT_EQ(on->imports[0].report.et_errors, 0u);
  EXPECT_EQ(TableContents("PROD.CUSTOMER", "CUST_ID"), baseline);

  auto report = node_->JobQualityReport(on->imports[0].job_id).ValueOrDie();
  EXPECT_TRUE(report.enabled);
  EXPECT_EQ(report.rows_checked, 500u);
  EXPECT_EQ(report.rows_quarantined, 0u);
  EXPECT_EQ(report.violations_total, 0u);
  EXPECT_EQ(report.violation_rate, 0.0);

  const std::string qrtn = node_->JobQuarantineTable(on->imports[0].job_id).ValueOrDie();
  ASSERT_FALSE(qrtn.empty());
  EXPECT_EQ(CountRows(qrtn), 0u);
}

TEST_F(QualityE2eTest, DirtyRowsDivertToQuarantineWithPredictedReasonCodes) {
  HyperQOptions gated;
  gated.quality = GateOptions();
  StartNode(gated);
  WriteInput(DirtyData());
  auto run = MakeClient().RunScript(BaseScript());
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // Only the three clean lines reach the target; quarantined rows are not
  // data errors, so the ET/UV tables stay empty.
  EXPECT_EQ(run->imports[0].report.rows_inserted, 3u);
  EXPECT_EQ(run->imports[0].report.et_errors, 0u);
  EXPECT_EQ(run->imports[0].report.uv_errors, 0u);
  EXPECT_EQ(CountRows("PROD.CUSTOMER"), 3u);
  EXPECT_EQ(TableContents("PROD.CUSTOMER", "CUST_ID"),
            "'1'|'Name1'|2012-01-01|\n"
            "'10'|'Name10'|2012-01-10|\n"
            "'999'|'Name8'|2012-01-08|\n");

  const std::string qrtn = node_->JobQuarantineTable(run->imports[0].job_id).ValueOrDie();
  ASSERT_FALSE(qrtn.empty());
  CheckDirtyQuarantine(qrtn);

  auto report = node_->JobQualityReport(run->imports[0].job_id).ValueOrDie();
  EXPECT_TRUE(report.enabled);
  EXPECT_EQ(report.rows_checked, 10u);
  EXPECT_EQ(report.rows_quarantined, 7u);
  EXPECT_NEAR(report.violation_rate, 0.7, 1e-9);
  // Per-constraint counts include the non-reason violations of line 9.
  ASSERT_EQ(report.constraints.size(), 6u);
  const uint64_t expected_by_id[] = {1, 2, 2, 2, 2, 1};
  for (size_t id = 0; id < 6; ++id) {
    EXPECT_EQ(report.constraints[id].violations, expected_by_id[id]) << "constraint " << id;
  }
}

TEST_F(QualityE2eTest, QuarantineSurvivesInjectedFaultsWithoutDuplicates) {
  // Fault-free dirty baseline.
  HyperQOptions gated;
  gated.quality = GateOptions();
  StartNode(gated);
  WriteInput(DirtyData());
  auto baseline_run = MakeClient().RunScript(BaseScript());
  ASSERT_TRUE(baseline_run.ok()) << baseline_run.status().ToString();
  const std::string baseline_target = TableContents("PROD.CUSTOMER", "CUST_ID");
  const std::string baseline_qrtn = TableContents(
      node_->JobQuarantineTable(baseline_run->imports[0].job_id).ValueOrDie(), "QRTN_ROWNUM");
  EXPECT_EQ(common::FaultInjector::Global().total_injected(), 0u);
  StopNode();
  ResetResilienceState();

  // Same load with every staging-path fault point failing >=10% of calls;
  // the retry/ledger machinery must land the identical outcome, including
  // exactly-once quarantine rows across replays.
  HyperQOptions chaos;
  chaos.quality = GateOptions();
  chaos.fault_spec =
      "seed=77;"
      "objstore.put=error,once=1;objstore.put=error,p=0.15;"
      "objstore.get=error,once=1;objstore.get=error,p=0.15;"
      "cdw.copy=error,once=1;cdw.copy=error,p=0.15;"
      "bulkload.file=error,once=1;bulkload.file=error,p=0.15;";
  chaos.io_retry.max_attempts = 8;
  chaos.io_retry.initial_backoff_micros = 50;
  chaos.io_retry.max_backoff_micros = 2000;
  StartNode(chaos);
  WriteInput(DirtyData());
  auto chaos_run = MakeClient().RunScript(BaseScript());
  ASSERT_TRUE(chaos_run.ok()) << chaos_run.status().ToString();
  EXPECT_GE(common::FaultInjector::Global().total_injected(), 1u);

  EXPECT_EQ(TableContents("PROD.CUSTOMER", "CUST_ID"), baseline_target);
  const std::string qrtn =
      node_->JobQuarantineTable(chaos_run->imports[0].job_id).ValueOrDie();
  EXPECT_EQ(TableContents(qrtn, "QRTN_ROWNUM"), baseline_qrtn);
  CheckDirtyQuarantine(qrtn);

  auto report = node_->JobQualityReport(chaos_run->imports[0].job_id).ValueOrDie();
  EXPECT_EQ(report.rows_quarantined, 7u);
  EXPECT_EQ(report.rows_checked, 10u);
}

TEST_F(QualityE2eTest, AbortOverThresholdFailsTheJobButKeepsTheQuarantine) {
  HyperQOptions strict;
  strict.quality = GateOptions();
  strict.quality.abort_over_threshold = true;
  strict.quality.max_violation_rate = 0.5;  // dirty data runs at 0.7
  StartNode(strict);
  WriteInput(DirtyData());
  auto run = MakeClient().RunScript(BaseScript());
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().ToString().find("max_violation_rate"), std::string::npos)
      << run.status().ToString();

  // Degradation is graceful: the quarantine table survives the abort with
  // the full predicted contents, so the operator can inspect what failed.
  const std::string qrtn = FindQuarantineTable();
  ASSERT_FALSE(qrtn.empty());
  CheckDirtyQuarantine(qrtn);
}

/// A shipped import batch is retired whether the job then succeeds or
/// fails: nothing ships it again, so its quarantine COPY ledger entries go.
TEST_F(QualityE2eTest, ImportRetiresQuarantineLedgerWhetherItSucceedsOrFails) {
  for (bool abort : {false, true}) {
    SCOPED_TRACE(abort ? "abort over threshold" : "quarantine and continue");
    StopNode();
    HyperQOptions options;
    options.quality = GateOptions();
    options.quality.abort_over_threshold = abort;
    options.quality.max_violation_rate = 0.5;  // dirty data runs at 0.7
    StartNode(options);
    WriteInput(DirtyData());
    auto run = MakeClient().RunScript(BaseScript());
    EXPECT_EQ(run.ok(), !abort) << run.status().ToString();

    const std::string qrtn = FindQuarantineTable();
    ASSERT_FALSE(qrtn.empty());
    EXPECT_EQ(CountRows(qrtn), 7u);
    EXPECT_EQ(cdw_->CopyLedgerSize(qrtn), 0u);
    for (const std::string& table : cdw_->catalog()->ListTables()) {
      EXPECT_EQ(cdw_->CopyLedgerSize(table), 0u) << table;
    }
  }
}

TEST_F(QualityE2eTest, NullRateCeilingBreachAbortsWhenPolicySaysSo) {
  HyperQOptions strict;
  strict.quality.spec = "PROD.CUSTOMER{JOIN_DATE:nullrate<=0.1}";
  strict.quality.abort_over_threshold = true;
  StartNode(strict);
  // 2 of 10 dates NULL = 0.2 observed; nullrate never quarantines rows, so
  // without the policy this load would succeed untouched.
  std::string data;
  for (int i = 1; i <= 10; ++i) {
    data += std::to_string(i) + "|Name" + std::to_string(i) + "|" +
            (i <= 2 ? "" : "2012-01-01") + "\n";
  }
  WriteInput(data);
  auto run = MakeClient().RunScript(BaseScript());
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().ToString().find("breached"), std::string::npos)
      << run.status().ToString();

  // The same load under quarantine-and-continue inserts everything.
  StopNode();
  HyperQOptions lenient;
  lenient.quality.spec = "PROD.CUSTOMER{JOIN_DATE:nullrate<=0.1}";
  StartNode(lenient);
  WriteInput(data);
  auto ok_run = MakeClient().RunScript(BaseScript());
  ASSERT_TRUE(ok_run.ok()) << ok_run.status().ToString();
  EXPECT_EQ(ok_run->imports[0].report.rows_inserted, 10u);
  auto report = node_->JobQualityReport(ok_run->imports[0].job_id).ValueOrDie();
  ASSERT_EQ(report.constraints.size(), 1u);
  EXPECT_NEAR(report.constraints[0].observed, 0.2, 1e-9);
  EXPECT_TRUE(report.constraints[0].breached);
  EXPECT_EQ(report.rows_quarantined, 0u);
}

TEST_F(QualityE2eTest, UnparseableSpecsFailBeginLoadLoudly) {
  // Quality spec that does not parse: BeginLoad must refuse the job with a
  // protocol error naming the spec, not silently skip the gate.
  HyperQOptions bad_quality;
  bad_quality.quality.spec = "PROD.CUSTOMER{CUST_ID:frobnicate}";
  StartNode(bad_quality);
  WriteInput(CleanData(3));
  auto run = MakeClient().RunScript(BaseScript());
  ASSERT_FALSE(run.ok());
  // Server-side the refusal is a ProtocolError; the legacy wire flattens the
  // code into a failure parcel, so the client asserts on the carried message.
  EXPECT_NE(run.status().ToString().find("invalid quality spec"), std::string::npos)
      << run.status().ToString();
  StopNode();

  // Same contract for an unparseable fault_spec. The node-level injector
  // warns and ignores (chaos is best-effort there), but the per-job path
  // must not start a job whose declared faults cannot be honored.
  HyperQOptions bad_faults;
  bad_faults.fault_spec = "objstore.put=error,p=not-a-number";
  StartNode(bad_faults);
  WriteInput(CleanData(3));
  auto fault_run = MakeClient().RunScript(BaseScript());
  ASSERT_FALSE(fault_run.ok());
  EXPECT_NE(fault_run.status().ToString().find("invalid fault_spec"), std::string::npos)
      << fault_run.status().ToString();
}

}  // namespace
}  // namespace hyperq::core
