// Typed sequential record streams over BlockFiles.
//
// Layout: block 0 is a header {magic, record_size, record_count}; blocks 1..n
// hold `block_size / sizeof(T)` records each. A stream holds exactly one
// block of buffer memory, so a reader or writer costs one block of the
// memory budget M — the standard EM-model streaming primitive with O(1/B)
// amortized I/O per record (cost accounting: docs/IO_MODEL.md).
//
// T must be trivially copyable and fit in one block.
//
// Checksums (format v2, the write default): every data block's CRC32C is
// recorded — inline in the header block while they fit, then in
// self-checksummed trailer blocks appended after the data — and verified by
// RecordReader on every data-block read, surfacing kCorruption with the
// block index. Data blocks keep their full record capacity, so block counts
// (and the IO_MODEL invariants) are unchanged for any file of up to
// ~(block_size-32)/4 data blocks; larger files pay exactly the trailer
// blocks, written at Finish and read at open. Files with the v1 magic still
// open and read, unverified (docs/ROBUSTNESS.md, "Checksum format").
#ifndef MAXRS_IO_RECORD_IO_H_
#define MAXRS_IO_RECORD_IO_H_

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "io/env.h"
#include "util/check.h"
#include "util/crc32c.h"
#include "util/status.h"

namespace maxrs {

namespace record_internal {
constexpr uint64_t kMagic = 0x4d61785253f11eULL;    // v1: no checksums.
constexpr uint64_t kMagicV2 = 0x4d61785253f22eULL;  // v2: CRC32C per block.

struct Header {
  uint64_t magic;
  uint64_t record_size;
  uint64_t record_count;
};

/// v2 header: the v1 fields plus a CRC over the whole header block (inline
/// checksum table included), computed with header_crc itself zeroed.
struct HeaderV2 {
  uint64_t magic;
  uint64_t record_size;
  uint64_t record_count;
  uint32_t header_crc;
  uint32_t reserved;
};
static_assert(sizeof(HeaderV2) == 32, "on-disk layout");

/// Data-block CRCs that fit in the header block after the fixed fields.
inline uint64_t InlineCrcCapacity(size_t block_size) {
  return (block_size - sizeof(HeaderV2)) / sizeof(uint32_t);
}
/// CRCs per trailer block; the last 4 bytes hold the trailer's own CRC
/// (over the preceding block_size-4 bytes), so a torn trailer is detected
/// without a second metadata location.
inline uint64_t TrailerCrcCapacity(size_t block_size) {
  return (block_size - sizeof(uint32_t)) / sizeof(uint32_t);
}
inline uint64_t DataBlocksFor(uint64_t record_count, uint64_t per_block) {
  return (record_count + per_block - 1) / per_block;
}
inline uint64_t TrailerBlocksFor(uint64_t data_blocks, size_t block_size) {
  const uint64_t inline_cap = InlineCrcCapacity(block_size);
  if (data_blocks <= inline_cap) return 0;
  const uint64_t overflow = data_blocks - inline_cap;
  return (overflow + TrailerCrcCapacity(block_size) - 1) /
         TrailerCrcCapacity(block_size);
}

/// The per-data-block checksum table of an open record file. Disabled for
/// v1 files and empty files; when enabled, crcs[i] guards data block i+1.
struct BlockChecksums {
  bool enabled = false;
  std::vector<uint32_t> crcs;
};

/// Reads and validates the header block of `file` against `record_size`,
/// storing the record count in *total and the checksum table in *sums
/// (trailer blocks, if any, are read — counted — and verified here). An
/// empty file is a valid zero-record stream. A truncated file (fewer blocks
/// than the header promises) and any checksum mismatch surface as clean
/// kCorruption.
inline Status ReadAndValidateHeader(BlockFile& file, uint64_t record_size,
                                    uint64_t* total, BlockChecksums* sums) {
  sums->enabled = false;
  sums->crcs.clear();
  if (file.NumBlocks() == 0) {
    *total = 0;  // Empty file: treated as zero records.
    return Status::OK();
  }
  const size_t bs = file.block_size();
  std::vector<char> hbuf(bs);
  MAXRS_RETURN_IF_ERROR(file.ReadBlock(0, hbuf.data()));
  uint64_t magic;
  std::memcpy(&magic, hbuf.data(), sizeof(magic));
  if (magic == kMagic) {
    // Legacy v1 file: no checksum table; reads are unverified.
    Header header;
    std::memcpy(&header, hbuf.data(), sizeof(header));
    if (header.record_size != record_size) {
      return Status::Corruption("record size mismatch in " + file.name());
    }
    *total = header.record_count;
    return Status::OK();
  }
  if (magic != kMagicV2) {
    return Status::Corruption("bad magic in " + file.name());
  }
  HeaderV2 header;
  std::memcpy(&header, hbuf.data(), sizeof(header));
  {
    // The header CRC covers the whole block with its own field zeroed.
    std::vector<char> check(hbuf);
    const uint32_t zero = 0;
    std::memcpy(check.data() + offsetof(HeaderV2, header_crc), &zero,
                sizeof(zero));
    if (Crc32c(check.data(), check.size()) != header.header_crc) {
      return Status::Corruption("header checksum mismatch in " + file.name());
    }
  }
  if (header.record_size != record_size) {
    return Status::Corruption("record size mismatch in " + file.name());
  }
  const uint64_t per_block = bs / record_size;
  const uint64_t data_blocks = DataBlocksFor(header.record_count, per_block);
  const uint64_t trailer_blocks = TrailerBlocksFor(data_blocks, bs);
  if (file.NumBlocks() < 1 + data_blocks + trailer_blocks) {
    return Status::Corruption("truncated record file " + file.name());
  }
  sums->crcs.reserve(data_blocks);
  const uint64_t from_header =
      std::min<uint64_t>(data_blocks, InlineCrcCapacity(bs));
  sums->crcs.resize(from_header);
  if (from_header > 0) {
    std::memcpy(sums->crcs.data(), hbuf.data() + sizeof(HeaderV2),
                from_header * sizeof(uint32_t));
  }
  uint64_t remaining = data_blocks - from_header;
  for (uint64_t t = 0; remaining > 0; ++t) {
    MAXRS_RETURN_IF_ERROR(file.ReadBlock(1 + data_blocks + t, hbuf.data()));
    uint32_t self;
    std::memcpy(&self, hbuf.data() + bs - sizeof(self), sizeof(self));
    if (Crc32c(hbuf.data(), bs - sizeof(self)) != self) {
      return Status::Corruption("checksum trailer mismatch in " + file.name());
    }
    const uint64_t n = std::min<uint64_t>(remaining, TrailerCrcCapacity(bs));
    const size_t at = sums->crcs.size();
    sums->crcs.resize(at + n);
    std::memcpy(sums->crcs.data() + at, hbuf.data(), n * sizeof(uint32_t));
    remaining -= n;
  }
  sums->enabled = true;
  *total = header.record_count;
  return Status::OK();
}

/// Verifies data block `block` (1-based file index) against the table; a
/// no-op when checksums are disabled. RecordReader calls this on every block
/// it makes current.
inline Status VerifyBlockChecksum(const BlockChecksums& sums,
                                  const BlockFile& file, uint64_t block,
                                  const char* data, size_t n) {
  if (!sums.enabled) return Status::OK();
  MAXRS_DCHECK(block >= 1 && block - 1 < sums.crcs.size());
  if (Crc32c(data, n) != sums.crcs[block - 1]) {
    return Status::Corruption("checksum mismatch in " + file.name() +
                              " block " + std::to_string(block));
  }
  return Status::OK();
}

}  // namespace record_internal

/// Appends records of type T to a fresh file. Call Finish() to persist the
/// header; a stream that is not finished is not a valid record file.
template <typename T>
class RecordWriter {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  /// Creates the file `name` in `env` and returns a writer for it.
  static Result<RecordWriter<T>> Make(Env& env, const std::string& name) {
    auto file_or = env.Create(name);
    if (!file_or.ok()) return {file_or.status()};
    return {RecordWriter<T>(std::move(file_or).value())};
  }

  explicit RecordWriter(std::unique_ptr<BlockFile> file)
      : file_(std::move(file)),
        per_block_(file_->block_size() / sizeof(T)),
        buf_(file_->block_size()) {
    MAXRS_CHECK_MSG(per_block_ > 0, "record does not fit in a block");
  }

  RecordWriter(RecordWriter&&) noexcept = default;
  RecordWriter& operator=(RecordWriter&&) noexcept = default;

  Status Append(const T& record) {
    MAXRS_DCHECK(!finished_);
    std::memcpy(buf_.data() + in_buf_ * sizeof(T), &record, sizeof(T));
    ++in_buf_;
    ++count_;
    if (in_buf_ == per_block_) return FlushBlock();
    return Status::OK();
  }

  /// Flushes buffered records, writes any checksum-trailer blocks, and
  /// writes the header. Idempotent. After an OK Finish every block of the
  /// file is persisted.
  Status Finish() {
    if (finished_) return Status::OK();
    if (in_buf_ > 0) MAXRS_RETURN_IF_ERROR(FlushBlock());
    const size_t bs = file_->block_size();
    std::vector<char> hbuf(bs, 0);
    // Overflow CRCs beyond the header's inline table land in trailer blocks
    // appended after the data, each guarding itself with a final self-CRC.
    const uint64_t inline_cap = record_internal::InlineCrcCapacity(bs);
    const uint64_t trailer_cap = record_internal::TrailerCrcCapacity(bs);
    for (uint64_t at = inline_cap; at < crcs_.size(); at += trailer_cap) {
      std::fill(hbuf.begin(), hbuf.end(), 0);
      const uint64_t n = std::min<uint64_t>(crcs_.size() - at, trailer_cap);
      std::memcpy(hbuf.data(), crcs_.data() + at, n * sizeof(uint32_t));
      const uint32_t self = Crc32c(hbuf.data(), bs - sizeof(uint32_t));
      std::memcpy(hbuf.data() + bs - sizeof(self), &self, sizeof(self));
      MAXRS_RETURN_IF_ERROR(file_->WriteBlock(next_block_, hbuf.data()));
      ++next_block_;
    }
    std::fill(hbuf.begin(), hbuf.end(), 0);
    record_internal::HeaderV2 header{record_internal::kMagicV2, sizeof(T),
                                     count_, 0, 0};
    std::memcpy(hbuf.data(), &header, sizeof(header));
    const uint64_t inline_n = std::min<uint64_t>(crcs_.size(), inline_cap);
    if (inline_n > 0) {
      std::memcpy(hbuf.data() + sizeof(header), crcs_.data(),
                  inline_n * sizeof(uint32_t));
    }
    const uint32_t header_crc = Crc32c(hbuf.data(), bs);
    std::memcpy(hbuf.data() + offsetof(record_internal::HeaderV2, header_crc),
                &header_crc, sizeof(header_crc));
    MAXRS_RETURN_IF_ERROR(file_->WriteBlock(0, hbuf.data()));
    finished_ = true;
    return Status::OK();
  }

  uint64_t count() const { return count_; }
  const std::string& name() const { return file_->name(); }

 private:
  Status FlushBlock() {
    // Data blocks start at 1; block 0 is reserved for the header. Reserve it
    // lazily (uncounted zero-fill would be wrong: header write is a real I/O
    // performed in Finish, so here we only ensure the index exists).
    if (file_->NumBlocks() == 0) {
      std::vector<char> zero(file_->block_size(), 0);
      MAXRS_RETURN_IF_ERROR(file_->WriteBlock(0, zero.data()));
    }
    crcs_.push_back(Crc32c(buf_.data(), buf_.size()));
    MAXRS_RETURN_IF_ERROR(file_->WriteBlock(next_block_, buf_.data()));
    ++next_block_;
    in_buf_ = 0;
    return Status::OK();
  }

  std::unique_ptr<BlockFile> file_;
  size_t per_block_;
  std::vector<char> buf_;
  // CRC32C of every data block flushed so far, in block order; persisted by
  // Finish into the header's inline table plus trailer blocks.
  std::vector<uint32_t> crcs_;
  size_t in_buf_ = 0;
  uint64_t count_ = 0;
  uint64_t next_block_ = 1;
  bool finished_ = false;
};

/// Sequentially reads records of type T from a finished record file.
template <typename T>
class RecordReader {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  /// Opens `name` in `env`. Only the header block (plus any checksum
  /// trailer) is read here; the first data block is read lazily by the
  /// first Read(), so a header-only probe costs one block.
  static Result<RecordReader<T>> Make(Env& env, const std::string& name) {
    auto file_or = env.Open(name);
    if (!file_or.ok()) return {file_or.status()};
    RecordReader<T> reader(std::move(file_or).value());
    MAXRS_RETURN_IF_ERROR(reader.ReadHeader());
    return {std::move(reader)};
  }

  explicit RecordReader(std::unique_ptr<BlockFile> file)
      : file_(std::move(file)),
        per_block_(file_->block_size() / sizeof(T)),
        buf_(file_->block_size()) {
    MAXRS_CHECK_MSG(per_block_ > 0, "record does not fit in a block");
  }

  RecordReader(RecordReader&&) noexcept = default;
  RecordReader& operator=(RecordReader&&) noexcept = default;

  /// Reads the next record into *out; returns false at end of stream OR on
  /// an I/O error. In the error case the status is sticky: callers iterating
  /// with Next() must check final_status() when the loop ends (the RocksDB
  /// iterator idiom). Alternatively use the Status-returning Read().
  bool Next(T* out) {
    Status st = Read(out);
    if (st.code() == Status::Code::kNotFound) return false;
    if (!st.ok()) {
      final_status_ = st;
      return false;
    }
    return true;
  }

  /// OK unless a Next() iteration ended early due to an I/O error.
  const Status& final_status() const { return final_status_; }

  /// Status-returning variant: NotFound signals end-of-stream; a block whose
  /// contents do not match its recorded CRC32C surfaces as kCorruption.
  Status Read(T* out) {
    if (consumed_ == total_) return Status::NotFound("end of stream");
    if (in_buf_ == buffered_) {
      MAXRS_RETURN_IF_ERROR(file_->ReadBlock(next_block_, buf_.data()));
      MAXRS_RETURN_IF_ERROR(record_internal::VerifyBlockChecksum(
          sums_, *file_, next_block_, buf_.data(), buf_.size()));
      ++next_block_;
      in_buf_ = 0;
      buffered_ = std::min<uint64_t>(per_block_, total_ - consumed_);
    }
    std::memcpy(out, buf_.data() + in_buf_ * sizeof(T), sizeof(T));
    ++in_buf_;
    ++consumed_;
    return Status::OK();
  }

  uint64_t total() const { return total_; }
  uint64_t remaining() const { return total_ - consumed_; }

 private:
  Status ReadHeader() {
    return record_internal::ReadAndValidateHeader(*file_, sizeof(T), &total_,
                                                  &sums_);
  }

  std::unique_ptr<BlockFile> file_;
  size_t per_block_;
  std::vector<char> buf_;
  record_internal::BlockChecksums sums_;
  uint64_t total_ = 0;
  uint64_t consumed_ = 0;
  size_t in_buf_ = 0;
  uint64_t buffered_ = 0;
  uint64_t next_block_ = 1;
  Status final_status_;
};

/// Convenience: writes `records` as a record file. Returns the count written.
template <typename T>
Status WriteRecordFile(Env& env, const std::string& name,
                       const std::vector<T>& records) {
  MAXRS_ASSIGN_OR_RETURN(RecordWriter<T> writer, RecordWriter<T>::Make(env, name));
  for (const T& r : records) MAXRS_RETURN_IF_ERROR(writer.Append(r));
  return writer.Finish();
}

/// Convenience: reads a whole record file into memory (tests/small inputs).
template <typename T>
Result<std::vector<T>> ReadRecordFile(Env& env, const std::string& name) {
  MAXRS_ASSIGN_OR_RETURN(RecordReader<T> reader, RecordReader<T>::Make(env, name));
  std::vector<T> records;
  records.reserve(reader.total());
  T rec{};
  while (reader.Next(&rec)) records.push_back(rec);
  MAXRS_RETURN_IF_ERROR(reader.final_status());
  return {std::move(records)};
}

}  // namespace maxrs

#endif  // MAXRS_IO_RECORD_IO_H_
