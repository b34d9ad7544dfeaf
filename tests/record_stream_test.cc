// Contract tests of the record-stream seam (io/record_stream.h): channel
// hand-off semantics (consumer blocks until data or close, producer never
// blocks), producer-error propagation in place of end-of-stream, safe
// destruction with undrained in-flight records, the empty stream, the
// deterministic spill policy (threshold crossing mid-stream, cap=0 and
// cap=SIZE_MAX extremes), spill-then-resume content equality, and the
// byte-identity of MergingSource against the materialized merge oracle.
#include "io/record_stream.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "io/env.h"
#include "io/external_sort.h"
#include "io/record_io.h"

namespace maxrs {
namespace {

struct Rec {
  uint64_t a;
  uint64_t b;
};
inline bool operator==(const Rec& x, const Rec& y) {
  return x.a == y.a && x.b == y.b;
}

std::vector<Rec> MakeRecords(uint64_t n) {
  std::vector<Rec> records;
  records.reserve(n);
  for (uint64_t i = 0; i < n; ++i) records.push_back({i, i * 31});
  return records;
}

// 512-byte blocks, 16-byte records: 32 records per segment and per block.
constexpr size_t kBlockSize = 512;
constexpr size_t kNoCap = std::numeric_limits<size_t>::max();

std::vector<Rec> DrainAll(RecordSource<Rec>& source, Status* final_status) {
  std::vector<Rec> out;
  Rec r{};
  while (source.Next(&r)) out.push_back(r);
  *final_status = source.final_status();
  return out;
}

TEST(RecordChannelTest, BoundedMemoryHandsOffToBlockedConsumer) {
  auto env = NewMemEnv(kBlockSize);
  RecordChannel<Rec> channel(*env, "spill", /*memory_cap_bytes=*/kNoCap);
  const std::vector<Rec> records = MakeRecords(500);

  // Consumer first: it must park until segments arrive, then deliver the
  // exact sequence and stop at the close.
  std::vector<Rec> got;
  Status consumer_status;
  std::thread consumer(
      [&] { got = DrainAll(channel, &consumer_status); });

  for (const Rec& r : records) ASSERT_TRUE(channel.Append(r).ok());
  ASSERT_TRUE(channel.Close(Status::OK()).ok());
  consumer.join();

  EXPECT_TRUE(consumer_status.ok()) << consumer_status.ToString();
  EXPECT_EQ(got, records);
  EXPECT_FALSE(channel.spilled());
  // Never-spilled channels never touch the Env.
  EXPECT_EQ(env->stats().Snapshot().total(), 0u);
}

TEST(RecordChannelTest, ProducerErrorSurfacesAtConsumerAfterBufferedData) {
  auto env = NewMemEnv(kBlockSize);
  RecordChannel<Rec> channel(*env, "spill", kNoCap);
  // Two full segments enqueued before the failure: the consumer must see
  // all of them, *then* the error in place of end-of-stream.
  const std::vector<Rec> records = MakeRecords(64);
  for (const Rec& r : records) ASSERT_TRUE(channel.Append(r).ok());
  const Status boom = Status::IOError("producer exploded");
  EXPECT_EQ(channel.Close(boom).code(), Status::Code::kIOError);
  // Close is idempotent and the first status wins.
  EXPECT_EQ(channel.Close(Status::OK()).code(), Status::Code::kIOError);

  Status consumer_status;
  const std::vector<Rec> got = DrainAll(channel, &consumer_status);
  EXPECT_EQ(got, records);
  EXPECT_EQ(consumer_status.code(), Status::Code::kIOError);
  EXPECT_EQ(consumer_status.message(), boom.message());
}

TEST(RecordChannelTest, DestructorWithInFlightRecordsLeaksNothing) {
  auto env = NewMemEnv(kBlockSize);
  {
    // Undrained in-memory segments, a partial fill, and a created spill
    // file — destroying the channel must drop all of it and delete the
    // spill from the Env.
    RecordChannel<Rec> channel(*env, "spill", /*memory_cap_bytes=*/kBlockSize);
    for (const Rec& r : MakeRecords(300)) ASSERT_TRUE(channel.Append(r).ok());
    ASSERT_TRUE(channel.Close(Status::OK()).ok());
    ASSERT_TRUE(channel.spilled());
    ASSERT_TRUE(env->Exists("spill"));
  }
  EXPECT_FALSE(env->Exists("spill"));

  {
    // And the harsher variant: not even closed.
    RecordChannel<Rec> channel(*env, "spill2", /*memory_cap_bytes=*/0);
    for (const Rec& r : MakeRecords(100)) ASSERT_TRUE(channel.Append(r).ok());
  }
  EXPECT_FALSE(env->Exists("spill2"));
}

TEST(RecordChannelTest, EmptyStreamDeliversCleanEndOfStream) {
  auto env = NewMemEnv(kBlockSize);
  for (size_t cap : {size_t{0}, kNoCap}) {
    RecordChannel<Rec> channel(*env, "spill", cap);
    ASSERT_TRUE(channel.Close(Status::OK()).ok());
    Status final_status;
    EXPECT_TRUE(DrainAll(channel, &final_status).empty());
    EXPECT_TRUE(final_status.ok()) << final_status.ToString();
    // Closing an empty stream never creates a spill file, even at cap=0.
    EXPECT_FALSE(channel.spilled());
    EXPECT_FALSE(env->Exists("spill"));
  }
}

TEST(RecordChannelTest, SpillThresholdCrossingMidStreamIsDeterministic) {
  // Cap of 4 segments: segments 0-3 stay in memory, segment 4 crosses the
  // cap and from that record on EVERYTHING goes to the spill file — a pure
  // function of the bytes produced, independent of consumer progress.
  auto env = NewMemEnv(kBlockSize);
  RecordChannel<Rec> channel(*env, "spill", /*memory_cap_bytes=*/4 * kBlockSize);
  const std::vector<Rec> records = MakeRecords(1000);
  for (const Rec& r : records) ASSERT_TRUE(channel.Append(r).ok());
  ASSERT_TRUE(channel.Close(Status::OK()).ok());
  ASSERT_TRUE(channel.spilled());

  // The spill file holds exactly the records past the in-memory prefix.
  auto spilled_or = ReadRecordFile<Rec>(*env, "spill");
  ASSERT_TRUE(spilled_or.ok());
  EXPECT_EQ(spilled_or->size(), 1000u - 4 * 32);
  EXPECT_EQ(spilled_or->front(), records[4 * 32]);

  Status final_status;
  EXPECT_EQ(DrainAll(channel, &final_status), records);
  EXPECT_TRUE(final_status.ok()) << final_status.ToString();
}

TEST(RecordChannelTest, SpillThenResumeContentEqualityAtEveryCap) {
  // The same stream through every spill level — never (cap=inf), mid-stream
  // crossing at several thresholds, always (cap=0) — must deliver identical
  // content; only the Env traffic differs, and monotonically.
  const std::vector<Rec> records = MakeRecords(777);
  uint64_t previous_io = 0;
  bool first = true;
  for (size_t cap : {kNoCap, size_t{8 * kBlockSize}, size_t{kBlockSize},
                     size_t{7}, size_t{0}}) {
    auto env = NewMemEnv(kBlockSize);
    RecordChannel<Rec> channel(*env, "spill", cap);
    for (const Rec& r : records) ASSERT_TRUE(channel.Append(r).ok());
    ASSERT_TRUE(channel.Close(Status::OK()).ok());
    Status final_status;
    EXPECT_EQ(DrainAll(channel, &final_status), records) << "cap=" << cap;
    EXPECT_TRUE(final_status.ok()) << final_status.ToString();
    const uint64_t io = env->stats().Snapshot().total();
    if (!first) {
      EXPECT_GE(io, previous_io) << "smaller cap must not do less I/O";
    }
    previous_io = io;
    first = false;
  }
}

TEST(RecordChannelTest, ConsumerAheadOfProducerSeesEverySegment) {
  // Interleaved hand-off under real concurrency: the consumer races the
  // producer segment by segment across the spill threshold. TSan-sensitive.
  auto env = NewMemEnv(kBlockSize);
  RecordChannel<Rec> channel(*env, "spill", /*memory_cap_bytes=*/2 * kBlockSize);
  const std::vector<Rec> records = MakeRecords(2000);
  std::vector<Rec> got;
  Status consumer_status;
  std::thread consumer([&] { got = DrainAll(channel, &consumer_status); });
  for (const Rec& r : records) ASSERT_TRUE(channel.Append(r).ok());
  ASSERT_TRUE(channel.Close(Status::OK()).ok());
  consumer.join();
  EXPECT_TRUE(consumer_status.ok()) << consumer_status.ToString();
  EXPECT_EQ(got, records);
}

TEST(FileRecordStreamTest, SinkThenSourceRoundTripsThroughTheEnv) {
  auto env = NewMemEnv(kBlockSize);
  const std::vector<Rec> records = MakeRecords(100);
  {
    auto sink_or = FileRecordSink<Rec>::Make(*env, "f");
    ASSERT_TRUE(sink_or.ok());
    for (const Rec& r : records) ASSERT_TRUE(sink_or->Append(r).ok());
    ASSERT_TRUE(sink_or->Close(Status::OK()).ok());
    EXPECT_EQ(sink_or->count(), 100u);
  }
  auto source_or = FileRecordSource<Rec>::Make(*env, "f");
  ASSERT_TRUE(source_or.ok());
  EXPECT_EQ(source_or->remaining(), 100u);
  Status final_status;
  EXPECT_EQ(DrainAll(*source_or, &final_status), records);
  EXPECT_TRUE(final_status.ok());
}

TEST(FileRecordStreamTest, SinkClosedWithErrorWritesNoValidFile) {
  auto env = NewMemEnv(kBlockSize);
  auto sink_or = FileRecordSink<Rec>::Make(*env, "f");
  ASSERT_TRUE(sink_or.ok());
  ASSERT_TRUE(sink_or->Append({1, 2}).ok());
  EXPECT_EQ(sink_or->Close(Status::IOError("upstream died")).code(),
            Status::Code::kIOError);
  // Never Finish()ed: the header still holds the zero-fill, so readers
  // see an empty (not a torn) stream rather than the partial data.
  auto readback_or = ReadRecordFile<Rec>(*env, "f");
  ASSERT_TRUE(readback_or.ok());
  EXPECT_TRUE(readback_or->empty());
}

TEST(MergingSourceTest, ByteIdenticalToMaterializedMergeOracle) {
  auto env = NewMemEnv(kBlockSize);
  auto less = [](const Rec& x, const Rec& y) { return x.a < y.a; };
  // Overlapping runs with cross-run ties (equal keys, equal payloads under
  // a total order) plus one empty run.
  std::vector<std::string> runs;
  std::vector<std::vector<Rec>> run_data;
  for (uint64_t k = 0; k < 4; ++k) {
    std::vector<Rec> run;
    for (uint64_t i = 0; i < 150 + 11 * k; ++i) {
      run.push_back({(i * 3 + k) / 2, ((i * 3 + k) / 2) * 31});
    }
    runs.push_back("run" + std::to_string(k));
    ASSERT_TRUE(WriteRecordFile(*env, runs.back(), run).ok());
    run_data.push_back(std::move(run));
  }
  runs.push_back("empty");
  run_data.push_back({});
  ASSERT_TRUE(WriteRecordFile(*env, "empty", std::vector<Rec>{}).ok());

  ASSERT_TRUE(MergeRuns<Rec>(*env, runs, "oracle", less).ok());
  auto oracle_or = ReadRecordFile<Rec>(*env, "oracle");
  ASSERT_TRUE(oracle_or.ok());

  // The same runs through channels (so the merge is over live streams, not
  // files), at a cap that spills some channels mid-stream.
  std::vector<std::unique_ptr<RecordChannel<Rec>>> channels;
  std::vector<RecordSource<Rec>*> sources;
  for (size_t k = 0; k < runs.size(); ++k) {
    channels.push_back(std::make_unique<RecordChannel<Rec>>(
        *env, "ch_spill" + std::to_string(k), 2 * kBlockSize));
    sources.push_back(channels.back().get());
    for (const Rec& r : run_data[k]) ASSERT_TRUE(channels[k]->Append(r).ok());
    ASSERT_TRUE(channels[k]->Close(Status::OK()).ok());
  }
  MergingSource<Rec, decltype(less)> merged(std::move(sources), less);
  Status final_status;
  EXPECT_EQ(DrainAll(merged, &final_status), *oracle_or);
  EXPECT_TRUE(final_status.ok()) << final_status.ToString();
}

TEST(MergingSourceTest, PrependedProbeDoesNotDisturbTheMerge) {
  auto env = NewMemEnv(kBlockSize);
  auto less = [](const Rec& x, const Rec& y) { return x.a < y.a; };
  RecordChannel<Rec> even(*env, "s0", kNoCap);
  RecordChannel<Rec> odd(*env, "s1", kNoCap);
  for (uint64_t i = 0; i < 100; i += 2) ASSERT_TRUE(even.Append({i, i}).ok());
  for (uint64_t i = 1; i < 100; i += 2) ASSERT_TRUE(odd.Append({i, i}).ok());
  ASSERT_TRUE(even.Close(Status::OK()).ok());
  ASSERT_TRUE(odd.Close(Status::OK()).ok());

  MergingSource<Rec, decltype(less)> merged({&even, &odd}, less);
  Rec first{};
  ASSERT_TRUE(merged.Read(&first).ok());
  EXPECT_EQ(first.a, 0u);
  PrependedSource<Rec> stream(first, &merged);
  Status final_status;
  const std::vector<Rec> got = DrainAll(stream, &final_status);
  ASSERT_TRUE(final_status.ok());
  ASSERT_EQ(got.size(), 100u);
  for (uint64_t i = 0; i < 100; ++i) EXPECT_EQ(got[i].a, i);
}

}  // namespace
}  // namespace maxrs
