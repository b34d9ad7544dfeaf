#include "io/record_io.h"

#include <gtest/gtest.h>

#include "io/env.h"
#include "io/fault_env.h"

namespace maxrs {
namespace {

struct Rec {
  uint64_t id;
  double value;
};

TEST(RecordIoTest, RoundTrip) {
  auto env = NewMemEnv(4096);
  std::vector<Rec> records;
  for (uint64_t i = 0; i < 1000; ++i) records.push_back({i, i * 1.5});
  ASSERT_TRUE(WriteRecordFile(*env, "f", records).ok());

  auto back = ReadRecordFile<Rec>(*env, "f");
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ((*back)[i].id, records[i].id);
    EXPECT_EQ((*back)[i].value, records[i].value);
  }
}

TEST(RecordIoTest, EmptyFile) {
  auto env = NewMemEnv(4096);
  ASSERT_TRUE(WriteRecordFile(*env, "empty", std::vector<Rec>{}).ok());
  auto back = ReadRecordFile<Rec>(*env, "empty");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(RecordIoTest, PartialFinalBlock) {
  auto env = NewMemEnv(4096);
  // 4096/16 = 256 per block; 300 records -> one full block + 44 in the next.
  std::vector<Rec> records;
  for (uint64_t i = 0; i < 300; ++i) records.push_back({i, 0.0});
  ASSERT_TRUE(WriteRecordFile(*env, "f", records).ok());
  auto back = ReadRecordFile<Rec>(*env, "f");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 300u);
  EXPECT_EQ(back->back().id, 299u);
}

TEST(RecordIoTest, ReaderReportsTotalsAndEnd) {
  auto env = NewMemEnv(4096);
  ASSERT_TRUE(WriteRecordFile(*env, "f", std::vector<Rec>{{1, 1}, {2, 2}}).ok());
  auto reader_or = RecordReader<Rec>::Make(*env, "f");
  ASSERT_TRUE(reader_or.ok());
  RecordReader<Rec> reader = std::move(reader_or).value();
  EXPECT_EQ(reader.total(), 2u);
  Rec r;
  EXPECT_TRUE(reader.Next(&r));
  EXPECT_EQ(reader.remaining(), 1u);
  EXPECT_TRUE(reader.Next(&r));
  EXPECT_FALSE(reader.Next(&r));
  EXPECT_EQ(reader.Read(&r).code(), Status::Code::kNotFound);
}

TEST(RecordIoTest, OpenMissingFileIsNotFound) {
  auto env = NewMemEnv(4096);
  auto reader_or = RecordReader<Rec>::Make(*env, "nope");
  EXPECT_FALSE(reader_or.ok());
  EXPECT_EQ(reader_or.status().code(), Status::Code::kNotFound);
}

TEST(RecordIoTest, RecordSizeMismatchIsCorruption) {
  auto env = NewMemEnv(4096);
  ASSERT_TRUE(WriteRecordFile(*env, "f", std::vector<Rec>{{1, 1}}).ok());
  struct Other {
    uint32_t x;
  };
  auto reader_or = RecordReader<Other>::Make(*env, "f");
  EXPECT_FALSE(reader_or.ok());
  EXPECT_EQ(reader_or.status().code(), Status::Code::kCorruption);
}

TEST(RecordIoTest, IoIsCountedPerBlock) {
  auto env = NewMemEnv(4096);
  std::vector<Rec> records(1024);  // 4 data blocks of 256
  for (uint64_t i = 0; i < records.size(); ++i) records[i] = {i, 0.0};

  const IoStatsSnapshot before = env->stats().Snapshot();
  ASSERT_TRUE(WriteRecordFile(*env, "f", records).ok());
  const IoStatsSnapshot after_write = env->stats().Snapshot();
  // 4 data blocks + header block reservation + final header write.
  EXPECT_EQ(after_write.blocks_written - before.blocks_written, 6u);
  EXPECT_EQ(after_write.blocks_read, before.blocks_read);

  auto back = ReadRecordFile<Rec>(*env, "f");
  ASSERT_TRUE(back.ok());
  const IoStatsSnapshot after_read = env->stats().Snapshot();
  // Header + 4 data blocks.
  EXPECT_EQ(after_read.blocks_read - after_write.blocks_read, 5u);
}

// 512-byte blocks hold 32 of the 16-byte Rec records per data block.
std::vector<Rec> MakeRecords(uint64_t n) {
  std::vector<Rec> records;
  records.reserve(n);
  for (uint64_t i = 0; i < n; ++i) records.push_back({i, i * 31.0});
  return records;
}

TEST(RecordIoTest, HeaderOnlyProbeCostsOneBlock) {
  auto env = NewMemEnv(512);
  ASSERT_TRUE(WriteRecordFile(*env, "f", MakeRecords(1000)).ok());
  const IoStatsSnapshot before = env->stats().Snapshot();
  auto reader_or = RecordReader<Rec>::Make(*env, "f");
  ASSERT_TRUE(reader_or.ok());
  EXPECT_EQ(reader_or->total(), 1000u);
  // The first data block is read lazily by the first Read, so a probe that
  // only wants the header pays exactly the header block.
  EXPECT_EQ((env->stats().Snapshot() - before).blocks_read, 1u);
}

TEST(RecordIoTest, RetriesFailedBlockWithoutSkippingRecords) {
  auto base = NewMemEnv(512);
  const std::vector<Rec> records = MakeRecords(100);
  ASSERT_TRUE(WriteRecordFile(*base, "f", records).ok());
  FaultEnv env(*base);
  auto reader_or = RecordReader<Rec>::Make(env, "f");
  ASSERT_TRUE(reader_or.ok());
  env.ArmAfter(2);  // the second data block
  Rec r{};
  std::vector<Rec> got;
  Status st;
  while ((st = reader_or->Read(&r)).ok()) got.push_back(r);
  ASSERT_EQ(st.code(), Status::Code::kIOError);
  EXPECT_EQ(got.size(), 32u);
  // The fault disarmed itself; Read retries the same block (the block
  // index only advances on success) and the stream completes with nothing
  // skipped.
  while ((st = reader_or->Read(&r)).ok()) got.push_back(r);
  EXPECT_EQ(st.code(), Status::Code::kNotFound);
  ASSERT_EQ(got.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(got[i].id, records[i].id);
    EXPECT_EQ(got[i].value, records[i].value);
  }
}

TEST(RecordIoTest, ShortFileSurfacesErrorNotCrash) {
  // Blocks that vanish *after* open (truncated through a second handle to
  // the same backing file) hit the reader mid-stream: the failed read ends
  // the scan with a clean status after exactly the records that still
  // existed.
  auto env = NewMemEnv(512);
  ASSERT_TRUE(WriteRecordFile(*env, "f", MakeRecords(320)).ok());
  auto reader_or = RecordReader<Rec>::Make(*env, "f");
  ASSERT_TRUE(reader_or.ok()) << reader_or.status().ToString();
  {
    auto file_or = env->Open("f");
    ASSERT_TRUE(file_or.ok());
    ASSERT_TRUE((*file_or)->Truncate(4).ok());
  }
  Rec r{};
  uint64_t delivered = 0;
  while (reader_or->Next(&r)) ++delivered;
  EXPECT_EQ(reader_or->final_status().code(), Status::Code::kIOError)
      << reader_or->final_status().ToString();
  EXPECT_EQ(delivered, 3u * 32u);
}

// Flips one bit of one stored block in place, via raw BlockFile access.
void FlipBit(Env& env, const std::string& name, uint64_t block, size_t bit) {
  auto file_or = env.Open(name);
  ASSERT_TRUE(file_or.ok());
  std::vector<char> buf((*file_or)->block_size());
  ASSERT_TRUE((*file_or)->ReadBlock(block, buf.data()).ok());
  buf[bit / 8] ^= static_cast<char>(1u << (bit % 8));
  ASSERT_TRUE((*file_or)->WriteBlock(block, buf.data()).ok());
}

TEST(RecordIoChecksumTest, DataBlockBitFlipIsCorruption) {
  auto env = NewMemEnv(4096);
  std::vector<Rec> records(1000);
  for (uint64_t i = 0; i < records.size(); ++i) records[i] = {i, 1.0 * i};
  ASSERT_TRUE(WriteRecordFile(*env, "f", records).ok());

  FlipBit(*env, "f", /*block=*/2, /*bit=*/12345);
  auto back = ReadRecordFile<Rec>(*env, "f");
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), Status::Code::kCorruption);
  EXPECT_NE(back.status().message().find("checksum mismatch"),
            std::string::npos);
}

TEST(RecordIoChecksumTest, HeaderBitFlipIsCorruption) {
  auto env = NewMemEnv(4096);
  ASSERT_TRUE(WriteRecordFile(*env, "f", std::vector<Rec>{{1, 1}}).ok());
  // Inside the inline CRC table: the header's own CRC catches it before any
  // data block is trusted.
  FlipBit(*env, "f", /*block=*/0, /*bit=*/40 * 8);
  auto back = ReadRecordFile<Rec>(*env, "f");
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), Status::Code::kCorruption);
  EXPECT_NE(back.status().message().find("header checksum mismatch"),
            std::string::npos);
}

TEST(RecordIoChecksumTest, TruncatedFileIsCorruptionAtOpen) {
  auto env = NewMemEnv(4096);
  std::vector<Rec> records(1000);  // 4 data blocks
  for (uint64_t i = 0; i < records.size(); ++i) records[i] = {i, 0.0};
  ASSERT_TRUE(WriteRecordFile(*env, "f", records).ok());

  // A crash-truncated copy: header + 2 of the 4 promised data blocks.
  auto src = env->Open("f");
  auto dst = env->Create("trunc");
  ASSERT_TRUE(src.ok());
  ASSERT_TRUE(dst.ok());
  std::vector<char> buf(env->block_size());
  for (uint64_t b = 0; b < 3; ++b) {
    ASSERT_TRUE((*src)->ReadBlock(b, buf.data()).ok());
    ASSERT_TRUE((*dst)->WriteBlock(b, buf.data()).ok());
  }
  auto back = ReadRecordFile<Rec>(*env, "trunc");
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), Status::Code::kCorruption);
  EXPECT_NE(back.status().message().find("truncated"), std::string::npos);
}

TEST(RecordIoChecksumTest, LegacyV1FilesStillOpenUnverified) {
  // Hand-crafted v1 file: old header, no checksum table. It must keep
  // reading (old datasets stay usable) — but without verification, so a
  // bit flip goes undetected. That asymmetry is the point of v2.
  auto env = NewMemEnv(4096);
  auto file_or = env->Create("v1");
  ASSERT_TRUE(file_or.ok());
  std::vector<char> block(env->block_size(), 0);
  record_internal::Header header{record_internal::kMagic, sizeof(Rec), 2};
  std::memcpy(block.data(), &header, sizeof(header));
  ASSERT_TRUE((*file_or)->WriteBlock(0, block.data()).ok());
  const Rec data[2] = {{7, 7.5}, {8, 8.5}};
  std::fill(block.begin(), block.end(), 0);
  std::memcpy(block.data(), data, sizeof(data));
  ASSERT_TRUE((*file_or)->WriteBlock(1, block.data()).ok());

  auto back = ReadRecordFile<Rec>(*env, "v1");
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[0].id, 7u);
  EXPECT_EQ((*back)[1].value, 8.5);

  FlipBit(*env, "v1", /*block=*/1, /*bit=*/3);
  EXPECT_TRUE(ReadRecordFile<Rec>(*env, "v1").ok());  // silently accepted
}

TEST(RecordIoChecksumTest, TrailerBlocksCoverLargeFilesExactly) {
  // 512-byte blocks: 120 CRCs fit inline, 127 per trailer block. 5000
  // records of 16 bytes = 157 data blocks -> exactly one trailer block.
  auto env = NewMemEnv(512);
  std::vector<Rec> records(5000);
  for (uint64_t i = 0; i < records.size(); ++i) records[i] = {i, 2.0 * i};

  const IoStatsSnapshot before = env->stats().Snapshot();
  ASSERT_TRUE(WriteRecordFile(*env, "big", records).ok());
  const IoStatsSnapshot after_write = env->stats().Snapshot();
  // Header reservation + 157 data + 1 trailer + final header = 160.
  EXPECT_EQ(after_write.blocks_written - before.blocks_written, 160u);

  auto back = ReadRecordFile<Rec>(*env, "big");
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 5000u);
  EXPECT_EQ(back->back().id, 4999u);
  // Header + 1 trailer at open + 157 data while draining = 159.
  EXPECT_EQ(env->stats().Snapshot().blocks_read - after_write.blocks_read,
            159u);

  // A torn trailer is caught by its self-CRC before any data is trusted.
  FlipBit(*env, "big", /*block=*/158, /*bit=*/77);
  auto corrupt = ReadRecordFile<Rec>(*env, "big");
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), Status::Code::kCorruption);
  EXPECT_NE(corrupt.status().message().find("trailer"), std::string::npos);
}

TEST(RecordIoTest, WorksOnPosixEnv) {
  auto env = NewPosixEnv(::testing::TempDir() + "/maxrs_posix_env", 4096);
  std::vector<Rec> records;
  for (uint64_t i = 0; i < 500; ++i) records.push_back({i, -1.0 * i});
  ASSERT_TRUE(WriteRecordFile(*env, "f", records).ok());
  auto back = ReadRecordFile<Rec>(*env, "f");
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 500u);
  EXPECT_EQ((*back)[499].id, 499u);
  ASSERT_TRUE(env->Delete("f").ok());
  EXPECT_FALSE(env->Exists("f"));
}

TEST(MemEnvTest, CreateOpenDeleteList) {
  auto env = NewMemEnv(4096);
  ASSERT_TRUE(env->Create("a").ok());
  ASSERT_TRUE(env->Create("b").ok());
  EXPECT_TRUE(env->Exists("a"));
  EXPECT_EQ(env->ListFiles().size(), 2u);
  ASSERT_TRUE(env->Delete("a").ok());
  EXPECT_FALSE(env->Exists("a"));
  EXPECT_EQ(env->Delete("a").code(), Status::Code::kNotFound);
  EXPECT_FALSE(env->Open("a").ok());
}

TEST(MemEnvTest, ReadPastEndFails) {
  auto env = NewMemEnv(4096);
  auto file_or = env->Create("f");
  ASSERT_TRUE(file_or.ok());
  std::vector<char> buf(4096);
  EXPECT_EQ((*file_or)->ReadBlock(0, buf.data()).code(),
            Status::Code::kIOError);
  ASSERT_TRUE((*file_or)->WriteBlock(0, buf.data()).ok());
  EXPECT_TRUE((*file_or)->ReadBlock(0, buf.data()).ok());
  // Write may extend by exactly one block, not beyond.
  EXPECT_EQ((*file_or)->WriteBlock(5, buf.data()).code(),
            Status::Code::kIOError);
}

}  // namespace
}  // namespace maxrs
