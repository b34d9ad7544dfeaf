// Failure-path coverage: every layer must propagate injected I/O errors as
// Status, never crash or silently succeed.
#include "io/fault_env.h"

#include <gtest/gtest.h>

#include "core/exact_maxrs.h"
#include "datagen/dataset_io.h"
#include "io/external_sort.h"
#include "io/record_io.h"
#include "serve/dataset_handle.h"
#include "serve/maxrs_server.h"
#include "test_util.h"

namespace maxrs {
namespace {

struct Rec {
  uint64_t a;
};

TEST(FaultEnvTest, FailsExactlyTheArmedOperation) {
  auto base = NewMemEnv(512);
  FaultEnv env(*base);
  auto file_or = env.Create("f");
  ASSERT_TRUE(file_or.ok());
  std::vector<char> buf(512);
  env.ArmAfter(2);
  EXPECT_TRUE((*file_or)->WriteBlock(0, buf.data()).ok());      // op 1
  EXPECT_FALSE((*file_or)->WriteBlock(1, buf.data()).ok());     // op 2: fault
  EXPECT_TRUE((*file_or)->WriteBlock(1, buf.data()).ok());      // disarmed
  EXPECT_EQ(env.faults_delivered(), 1u);
}

TEST(FaultEnvTest, RecordWriterPropagatesWriteFault) {
  auto base = NewMemEnv(512);
  FaultEnv env(*base);
  auto writer_or = RecordWriter<Rec>::Make(env, "f");
  ASSERT_TRUE(writer_or.ok());
  env.ArmAfter(1);
  Status st = Status::OK();
  // 512/8 = 64 records per block: the 64th append triggers the block flush.
  for (uint64_t i = 0; i < 64 && st.ok(); ++i) st = writer_or->Append({i});
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kIOError);
}

TEST(FaultEnvTest, RecordReaderPropagatesReadFault) {
  auto base = NewMemEnv(512);
  {
    std::vector<Rec> records(200);
    ASSERT_TRUE(WriteRecordFile(*base, "f", records).ok());
  }
  FaultEnv env(*base);
  auto reader_or = RecordReader<Rec>::Make(env, "f");
  ASSERT_TRUE(reader_or.ok());
  env.ArmAfter(2);  // header already read; fail the second data block
  Rec r;
  Status st = Status::OK();
  while (st.ok()) st = reader_or->Read(&r);
  EXPECT_EQ(st.code(), Status::Code::kIOError);
}

TEST(FaultEnvTest, ExternalSortSurfacesFaults) {
  auto base = NewMemEnv(512);
  {
    std::vector<Rec> records;
    for (uint64_t i = 0; i < 5000; ++i) records.push_back({5000 - i});
    ASSERT_TRUE(WriteRecordFile(*base, "in", records).ok());
  }
  FaultEnv env(*base);
  // Try faults at several depths of the sort pipeline.
  for (uint64_t k : {1u, 10u, 50u, 200u}) {
    env.ArmAfter(k);
    Status st = ExternalSort<Rec>(
        env, "in", "out",
        [](const Rec& a, const Rec& b) { return a.a < b.a; },
        ExternalSortOptions{1 << 10});
    env.Disarm();
    EXPECT_FALSE(st.ok()) << "fault at op " << k << " was swallowed";
    EXPECT_EQ(st.code(), Status::Code::kIOError);
  }
}

class ExactMaxRSFaultTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExactMaxRSFaultTest, SurfacesFaultsAtEveryStage) {
  auto base = NewMemEnv(512);
  auto objects = testing::RandomIntObjects(1000, 400, 3);
  ASSERT_TRUE(WriteDataset(*base, "data", objects).ok());
  FaultEnv env(*base);
  MaxRSOptions options;
  options.rect_width = 20;
  options.rect_height = 20;
  options.memory_bytes = 1 << 13;
  options.fanout = 3;
  options.base_case_max_pieces = 64;

  // Both division modes (materialized part files and streaming channels at
  // a zero cap, where the fault lands on spill traffic) must surface the
  // fault as a Status at the caller, never crash a worker.
  for (bool streaming : {false, true}) {
    options.streaming_division = streaming;
    options.stream_channel_bytes = 0;
    env.ArmAfter(GetParam());
    auto result = RunExactMaxRS(env, "data", options);
    env.Disarm();
    ASSERT_FALSE(result.ok()) << "fault at op " << GetParam()
                              << " swallowed (streaming=" << streaming << ")";
    EXPECT_EQ(result.status().code(), Status::Code::kIOError)
        << "streaming=" << streaming;
  }
}

// Operation indices chosen to land in: dataset read, transform writes, sort
// runs, merge passes, division routing, plane-sweep slab write, merge sweep.
INSTANTIATE_TEST_SUITE_P(Depths, ExactMaxRSFaultTest,
                         ::testing::Values(1, 3, 20, 100, 300, 700, 1200));

TEST(StreamingSpillFaultTest, SpillFaultSurfacesAtSubmitWithoutWedgingServer) {
  // Streaming serve with a zero channel cap: every routed record takes the
  // spill path, so armed faults land on spill writes (and spill read-backs)
  // mid-routing. Each fault must surface as kIOError from Submit — no hang,
  // and the server must stay serviceable afterwards (workers alive, scratch
  // released), which the follow-up healthy Submit proves.
  auto base = NewMemEnv(512);
  auto objects = testing::RandomIntObjects(1500, 500, 7);
  ASSERT_TRUE(WriteDataset(*base, "data", objects).ok());
  FaultEnv env(*base);
  DatasetHandleOptions ingest;
  ingest.shard_count = 5;
  ingest.memory_bytes = 1 << 13;
  auto handle = DatasetHandle::Ingest(env, "data", ingest);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();

  MaxRSServerOptions options;
  options.memory_bytes = 1 << 13;
  options.num_workers = 2;
  options.cache_entries = 0;
  options.stream_channel_bytes = 0;
  MaxRSServer server(env, *handle, options);

  // Healthy run first: pins the answer and proves the sweep's failures
  // below are injected, not latent.
  auto want = server.Submit(24, 24);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  for (uint64_t k : {3u, 15u, 40u, 90u, 250u}) {
    env.ArmAfter(k);
    auto result = server.Submit(24, 24);
    env.Disarm();
    ASSERT_FALSE(result.ok()) << "spill-path fault at op " << k << " swallowed";
    EXPECT_EQ(result.status().code(), Status::Code::kIOError) << "op " << k;
    auto after = server.Submit(24, 24);
    ASSERT_TRUE(after.ok()) << "server wedged after fault at op " << k << ": "
                            << after.status().ToString();
    EXPECT_EQ(after->total_weight, want->total_weight);
  }
}

TEST(FaultRecoveryTest, RerunAfterFaultSucceeds) {
  // After a failed run, the Env may hold leftover scratch files, but a fresh
  // run must still produce the correct answer.
  auto base = NewMemEnv(512);
  auto objects = testing::RandomIntObjects(800, 300, 9);
  ASSERT_TRUE(WriteDataset(*base, "data", objects).ok());
  FaultEnv env(*base);
  MaxRSOptions options;
  options.rect_width = 16;
  options.rect_height = 16;
  options.memory_bytes = 1 << 13;
  options.fanout = 3;
  options.base_case_max_pieces = 32;

  env.ArmAfter(150);
  auto failed = RunExactMaxRS(env, "data", options);
  EXPECT_FALSE(failed.ok());
  env.Disarm();

  auto retry = RunExactMaxRS(env, "data", options);
  ASSERT_TRUE(retry.ok());
  auto clean_env = NewMemEnv(512);
  auto want = RunExactMaxRS(*clean_env, objects, options);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(retry->total_weight, want->total_weight);
}

}  // namespace
}  // namespace maxrs
