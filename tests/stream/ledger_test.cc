#include <gtest/gtest.h>

#include <string>

#include "cdw/cdw_server.h"
#include "cloudstore/object_store.h"
#include "common/bytes.h"

/// The CDW's COPY idempotence ledger: a retried COPY (lost ack) skips what
/// the first attempt ingested, and prefix-scoped forgetting drops exactly
/// one batch's entries. The load tail forgets a batch's prefix when it
/// retires the batch, which is what bounds the ledger over a long stream.

namespace hyperq::cdw {
namespace {

using common::Slice;
using types::Field;
using types::Schema;
using types::TypeDesc;

Schema OneColSchema() {
  Schema s;
  s.AddField(Field("ID", TypeDesc::Int64()));
  return s;
}

std::string BatchKey(int batch, int part) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "stream/j/batch_%08d/p%d.csv", batch, part);
  return buf;
}

class LedgerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cdw_ = std::make_unique<CdwServer>(&store_);
    ASSERT_TRUE(cdw_->catalog()->CreateTable("T", OneColSchema()).ok());
  }

  void PutRow(const std::string& key, int id) {
    std::string csv = std::to_string(id) + "\n";
    ASSERT_TRUE(store_.Put(key, Slice(std::string_view(csv))).ok());
  }

  cloud::ObjectStore store_;
  std::unique_ptr<CdwServer> cdw_;
};

TEST_F(LedgerTest, ReissuedCopyIsIdempotentAndCumulative) {
  PutRow(BatchKey(1, 0), 1);
  PutRow(BatchKey(1, 1), 2);
  EXPECT_EQ(cdw_->CopyInto("T", "stream/j/batch_00000001/").ValueOrDie(), 2u);
  // Lost-ack retry: same prefix, nothing new staged. The ledger answers with
  // the cumulative count and the table gains no duplicate rows.
  EXPECT_EQ(cdw_->CopyInto("T", "stream/j/batch_00000001/").ValueOrDie(), 2u);
  EXPECT_EQ(cdw_->catalog()->GetTable("T").ValueOrDie()->num_rows(), 2u);
  EXPECT_EQ(cdw_->CopyLedgerSize("T"), 2u);
}

TEST_F(LedgerTest, RetryAfterPartialStagePicksUpOnlyNewObjects) {
  PutRow(BatchKey(1, 0), 1);
  EXPECT_EQ(cdw_->CopyInto("T", "stream/j/batch_00000001/").ValueOrDie(), 1u);
  PutRow(BatchKey(1, 1), 2);  // staged between attempt and retry
  EXPECT_EQ(cdw_->CopyInto("T", "stream/j/batch_00000001/").ValueOrDie(), 2u);
  EXPECT_EQ(cdw_->catalog()->GetTable("T").ValueOrDie()->num_rows(), 2u);
}

TEST_F(LedgerTest, ForgetCopiesWithPrefixDropsOnlyThatBatch) {
  PutRow(BatchKey(1, 0), 1);
  PutRow(BatchKey(2, 0), 2);
  EXPECT_EQ(cdw_->CopyInto("T", "stream/j/batch_00000001/").ValueOrDie(), 1u);
  EXPECT_EQ(cdw_->CopyInto("T", "stream/j/batch_00000002/").ValueOrDie(), 1u);
  EXPECT_EQ(cdw_->CopyLedgerSize("T"), 2u);

  cdw_->ForgetCopiesWithPrefix("T", "stream/j/batch_00000001/");
  EXPECT_EQ(cdw_->CopyLedgerSize("T"), 1u);
  // Batch 2's entry survives: its retry is still answered from the ledger.
  EXPECT_EQ(cdw_->CopyInto("T", "stream/j/batch_00000002/").ValueOrDie(), 1u);
  EXPECT_EQ(cdw_->catalog()->GetTable("T").ValueOrDie()->num_rows(), 2u);
}

TEST_F(LedgerTest, UnboundedByDefault) {
  for (int batch = 1; batch <= 8; ++batch) {
    PutRow(BatchKey(batch, 0), batch);
    std::string prefix = "stream/j/batch_0000000" + std::to_string(batch) + "/";
    ASSERT_TRUE(cdw_->CopyInto("T", prefix).ok());
  }
  EXPECT_EQ(cdw_->CopyLedgerSize("T"), 8u);
}

}  // namespace
}  // namespace hyperq::cdw
