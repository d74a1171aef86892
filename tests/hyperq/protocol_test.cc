#include <unistd.h>

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "cdw/cdw_server.h"
#include "cloudstore/object_store.h"
#include "common/fault.h"
#include "hyperq/server.h"
#include "legacy/session.h"

namespace hyperq::core {
namespace {

using common::Status;

/// Wire-protocol robustness: drives HyperQServer with a raw LegacySession
/// (no ETL client) and checks the Failure replies and error codes the Beta /
/// PXC path produces.
class ProtocolTest : public ::testing::Test {
 protected:
  ProtocolTest() : cdw_(&store_) { StartNode(HyperQOptions{}); }

  ~ProtocolTest() override { node_->Stop(); }

  /// (Re)starts the node under test with `options` over the same CDW/store.
  void StartNode(HyperQOptions options) {
    if (node_ != nullptr) node_->Stop();
    options.local_staging_dir = std::string("/tmp/hq_protocol_test.") + std::to_string(::getpid()) + "/staging";
    node_ = std::make_unique<HyperQServer>(&cdw_, &store_, options);
    node_->Start();
  }

  /// One vartext chunk of single-field records.
  static legacy::DataChunkBody VartextChunk(uint64_t seq, const std::vector<std::string>& values) {
    common::ByteBuffer payload;
    for (const auto& v : values) {
      EXPECT_TRUE(legacy::EncodeVartextRecord({{false, v}}, '|', &payload).ok());
    }
    legacy::DataChunkBody chunk;
    chunk.chunk_seq = seq;
    chunk.row_count = static_cast<uint32_t>(values.size());
    chunk.payload = payload.vector();
    return chunk;
  }

  static legacy::BeginLoadBody SingleColumnLoad(const std::string& job_id,
                                                const std::string& table) {
    legacy::BeginLoadBody begin;
    begin.job_id = job_id;
    begin.target_table = table;
    begin.layout.AddField(types::Field("A", types::TypeDesc::Varchar(5)));
    return begin;
  }

  int64_t CountRows(const std::string& table) {
    return cdw_.ExecuteSql("SELECT COUNT(*) FROM " + table).ValueOrDie().rows[0][0].int_value();
  }

  std::unique_ptr<legacy::LegacySession> Connect() {
    auto session = std::make_unique<legacy::LegacySession>(node_->Connect());
    EXPECT_TRUE(session->Logon("hq", "u", "p").ok());
    return session;
  }

  cloud::ObjectStore store_;
  cdw::CdwServer cdw_;
  std::unique_ptr<HyperQServer> node_;
};

TEST_F(ProtocolTest, LogonAssignsDistinctSessionIds) {
  auto s1 = Connect();
  auto s2 = Connect();
  EXPECT_NE(s1->session_id(), 0u);
  EXPECT_NE(s1->session_id(), s2->session_id());
}

TEST_F(ProtocolTest, SyntaxErrorReturnsLegacyCode3706) {
  auto session = Connect();
  auto result = session->ExecuteSql("SELEKT * FROM nowhere");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("[3706]"), std::string::npos);
}

TEST_F(ProtocolTest, MissingTableReturnsLegacyCode3807) {
  auto session = Connect();
  auto result = session->ExecuteSql("SELECT * FROM NO.SUCH_TABLE");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("[3807]"), std::string::npos);
}

TEST_F(ProtocolTest, DuplicateKeyReturnsLegacyCode2801) {
  auto session = Connect();
  ASSERT_TRUE(session->ExecuteSql("CREATE TABLE U (K INTEGER, PRIMARY KEY (K))").ok());
  ASSERT_TRUE(session->ExecuteSql("INSERT INTO U VALUES (1)").ok());
  auto result = session->ExecuteSql("INSERT INTO U VALUES (1)");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("[2801]"), std::string::npos);
}

TEST_F(ProtocolTest, DataChunkBeforeBeginLoadIsProtocolFailure) {
  auto session = Connect();
  legacy::DataChunkBody chunk;
  chunk.chunk_seq = 0;
  chunk.row_count = 1;
  chunk.payload = {0, 0};
  auto s = session->SendDataChunk(chunk);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("DataChunk before BeginLoad"), std::string::npos);
}

TEST_F(ProtocolTest, EndLoadBeforeBeginLoadIsProtocolFailure) {
  auto session = Connect();
  EXPECT_FALSE(session->EndLoad(0, 0).ok());
}

TEST_F(ProtocolTest, ApplyDmlBeforeBeginLoadIsProtocolFailure) {
  auto session = Connect();
  EXPECT_FALSE(session->ApplyDml("L", "INSERT INTO t VALUES (1)").ok());
}

TEST_F(ProtocolTest, ExportChunkRequestBeforeBeginExportIsProtocolFailure) {
  auto session = Connect();
  EXPECT_FALSE(session->FetchExportChunk(0).ok());
}

TEST_F(ProtocolTest, BeginLoadAgainstMissingTargetFails) {
  auto session = Connect();
  legacy::BeginLoadBody begin;
  begin.job_id = "proto_job";
  begin.target_table = "NOT.THERE";
  begin.layout.AddField(types::Field("A", types::TypeDesc::Varchar(5)));
  EXPECT_FALSE(session->BeginLoad(begin).ok());
}

TEST_F(ProtocolTest, BeginStreamOnBatchLoadSessionIsRefused) {
  auto session = Connect();
  ASSERT_TRUE(session->ExecuteSql("CREATE TABLE MX1 (A VARCHAR(5))").ok());
  legacy::BeginLoadBody load;
  load.job_id = "mx1_load";
  load.target_table = "MX1";
  load.layout.AddField(types::Field("A", types::TypeDesc::Varchar(5)));
  ASSERT_TRUE(session->BeginLoad(load).ok());
  // A session serves either a batch load or a stream, never both: routing
  // chunks of an in-flight load into a stream would corrupt the load.
  legacy::BeginStreamBody stream;
  stream.job_id = "mx1_stream";
  stream.target_table = "MX1";
  stream.layout.AddField(types::Field("A", types::TypeDesc::Varchar(5)));
  stream.dml_sql = "insert into MX1 values (:A);";
  auto s = session->BeginStream(stream);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("BeginStream refused"), std::string::npos);
}

TEST_F(ProtocolTest, BeginLoadOnStreamSessionIsRefused) {
  auto session = Connect();
  ASSERT_TRUE(session->ExecuteSql("CREATE TABLE MX2 (A VARCHAR(5))").ok());
  legacy::BeginStreamBody stream;
  stream.job_id = "mx2_stream";
  stream.target_table = "MX2";
  stream.layout.AddField(types::Field("A", types::TypeDesc::Varchar(5)));
  stream.dml_sql = "insert into MX2 values (:A);";
  ASSERT_TRUE(session->BeginStream(stream).ok());
  legacy::BeginLoadBody load;
  load.job_id = "mx2_load";
  load.target_table = "MX2";
  load.layout.AddField(types::Field("A", types::TypeDesc::Varchar(5)));
  auto s = session->BeginLoad(load);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("BeginLoad refused"), std::string::npos);
}

TEST_F(ProtocolTest, ChunkAcksEchoSequenceNumbers) {
  auto session = Connect();
  ASSERT_TRUE(session->ExecuteSql("CREATE TABLE T1 (A VARCHAR(5))").ok());
  legacy::BeginLoadBody begin;
  begin.job_id = "proto_job2";
  begin.target_table = "T1";
  begin.layout.AddField(types::Field("A", types::TypeDesc::Varchar(5)));
  ASSERT_TRUE(session->BeginLoad(begin).ok());
  for (uint64_t seq : {7u, 9u, 11u}) {
    common::ByteBuffer payload;
    ASSERT_TRUE(legacy::EncodeVartextRecord({{false, "x"}}, '|', &payload).ok());
    legacy::DataChunkBody chunk;
    chunk.chunk_seq = seq;
    chunk.row_count = 1;
    chunk.payload = payload.vector();
    // SendDataChunk verifies the ack echoes the same sequence number.
    ASSERT_TRUE(session->SendDataChunk(chunk).ok()) << seq;
  }
}

TEST_F(ProtocolTest, AbandonedLoadOutlivesServerDestructionMidConversion) {
  // hyperq.convert stalls every conversion task, so when the node goes away
  // the abandoned job (no EndLoad) still has a task in flight that holds it.
  // Destroying the job must wait that task out instead of freeing the job
  // under it (AddressSanitizer reports the use-after-free otherwise).
  common::FaultInjector& faults = common::FaultInjector::Global();
  faults.ResetForTesting();
  HyperQOptions options;
  options.fault_spec = "hyperq.convert=latency,ms=200";
  StartNode(options);
  {
    auto session = Connect();
    ASSERT_TRUE(session->ExecuteSql("CREATE TABLE T3 (A VARCHAR(5))").ok());
    ASSERT_TRUE(session->BeginLoad(SingleColumnLoad("proto_abandoned", "T3")).ok());
    ASSERT_TRUE(session->SendDataChunk(VartextChunk(1, {"x"})).ok());
    node_.reset();
  }
  EXPECT_EQ(faults.injected_count("hyperq.convert"), 1u);
  faults.ResetForTesting();
  StartNode(HyperQOptions{});
}

/// Memory mappings of this process; each exited-but-unjoined thread keeps
/// its stack (and guard page) mapped.
size_t MappingCount() {
  std::ifstream maps("/proc/self/maps");
  size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

TEST_F(ProtocolTest, EndedSessionThreadsAreJoinedWhileTheNodeRuns) {
  ASSERT_TRUE(Connect()->Logoff().ok());  // warm-up: first-use allocations settle
  const size_t before = MappingCount();
  constexpr int kSessions = 64;
  for (int i = 0; i < kSessions; ++i) {
    auto session = Connect();
    ASSERT_TRUE(session->Logoff().ok());
  }
  // Unjoined, every ended session would keep two mappings until Stop().
  EXPECT_LT(MappingCount(), before + kSessions / 2);
}

TEST_F(ProtocolTest, ResultSetsTravelInLegacyBinaryFormat) {
  auto session = Connect();
  ASSERT_TRUE(session->ExecuteSql("CREATE TABLE R (ID INTEGER, D DATE)").ok());
  ASSERT_TRUE(session->ExecuteSql("INSERT INTO R VALUES (5, DATE '2012-12-01')").ok());
  auto result = session->ExecuteSql("SELECT ID, D FROM R").ValueOrDie();
  ASSERT_TRUE(result.has_result_set());
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].int_value(), 5);
  // DATE came across the wire in the legacy int32 encoding and back.
  EXPECT_EQ(result.rows[0][1].date_days(), types::DaysFromYmd(2012, 12, 1).ValueOrDie());
}

TEST_F(ProtocolTest, ActivityCountsReported) {
  auto session = Connect();
  ASSERT_TRUE(session->ExecuteSql("CREATE TABLE AC (A INTEGER)").ok());
  EXPECT_EQ(session->ExecuteSql("INSERT INTO AC VALUES (1), (2), (3)").ValueOrDie()
                .activity_count,
            3u);
  EXPECT_EQ(session->ExecuteSql("UPDATE AC SET A = 0 WHERE A > 1").ValueOrDie().activity_count,
            2u);
  EXPECT_EQ(session->ExecuteSql("DELETE FROM AC").ValueOrDie().activity_count, 3u);
}

TEST_F(ProtocolTest, ServerSurvivesAbruptDisconnect) {
  {
    auto transport = node_->Connect();
    legacy::LegacySession session(transport);
    ASSERT_TRUE(session.Logon("hq", "u", "p").ok());
    transport->Close();  // vanish without logoff
  }
  // The node still accepts and serves new sessions.
  auto session = Connect();
  EXPECT_TRUE(session->ExecuteSql("SELECT 1").ok());
}

TEST_F(ProtocolTest, FailedEndLoadStaysFailedAndAppliesNothing) {
  HyperQOptions options;
  options.quality.spec = "QG{A:len[1,2]}";
  options.quality.abort_over_threshold = true;
  options.quality.max_violation_rate = 0.1;
  StartNode(options);
  auto session = Connect();
  ASSERT_TRUE(session->ExecuteSql("CREATE TABLE QG (A VARCHAR(5))").ok());
  ASSERT_TRUE(session->BeginLoad(SingleColumnLoad("qg_job", "QG")).ok());
  // Two of the four rows break len[1,2]: a 0.5 violation rate aborts the load.
  ASSERT_TRUE(session->SendDataChunk(VartextChunk(0, {"a", "bbbb", "cc", "dddd"})).ok());
  Status first = session->EndLoad(1, 4);
  ASSERT_FALSE(first.ok());
  EXPECT_NE(first.message().find("max_violation_rate"), std::string::npos) << first.ToString();
  // A re-sent EndLoad must not turn the aborted load into a success, and the
  // rejected job's staged rows must never reach the target.
  EXPECT_FALSE(session->EndLoad(1, 4).ok());
  EXPECT_FALSE(session->ApplyDml("L", "INSERT INTO QG VALUES (:A);").ok());
  EXPECT_EQ(CountRows("QG"), 0);
  EXPECT_EQ(CountRows("HQ_QRTN_qg_job"), 2);
}

TEST_F(ProtocolTest, FailedApplyDmlCountsTheJobAsFailed) {
  auto session = Connect();
  ASSERT_TRUE(session->ExecuteSql("CREATE TABLE AJ (A VARCHAR(5))").ok());
  ASSERT_TRUE(session->BeginLoad(SingleColumnLoad("aj_job", "AJ")).ok());
  ASSERT_TRUE(session->SendDataChunk(VartextChunk(0, {"x"})).ok());
  ASSERT_TRUE(session->EndLoad(1, 1).ok());
  EXPECT_FALSE(session->ApplyDml("L", "INSERT INTO NO.SUCH_TABLE VALUES (:A);").ok());

  obs::MetricsSnapshot snap = node_->MetricsSnapshot();
  EXPECT_EQ(snap.counters.at("hyperq_import_jobs_started_total"), 1u);
  EXPECT_EQ(snap.counters.at("hyperq_import_jobs_completed_total"), 0u);
  EXPECT_EQ(snap.counters.at("hyperq_import_jobs_failed_total"), 1u);
  EXPECT_EQ(snap.gauges.at("hyperq_import_jobs_active"), 0);
}

TEST_F(ProtocolTest, StopClosesLingeringSessions) {
  auto session = Connect();  // never logs off
  node_->Stop();             // must not hang (see server.cc Stop)
  SUCCEED();
}

}  // namespace
}  // namespace hyperq::core
