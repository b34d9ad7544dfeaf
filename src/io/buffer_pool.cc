#include "io/buffer_pool.h"

#include <chrono>
#include <cstring>

#include "util/check.h"

namespace maxrs {

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    other.pool_ = nullptr;
  }
  return *this;
}

PageHandle::~PageHandle() { Release(); }

char* PageHandle::data() {
  MAXRS_DCHECK(valid());
  return pool_->frames_[frame_].data.data();
}

const char* PageHandle::data() const {
  MAXRS_DCHECK(valid());
  return pool_->frames_[frame_].data.data();
}

void PageHandle::MarkDirty() {
  MAXRS_DCHECK(valid());
  pool_->MarkDirtyLocked(frame_);
}

void PageHandle::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
  }
}

BufferPool::BufferPool(Env& env, size_t capacity_bytes, uint64_t pin_wait_ms)
    : env_(&env), block_size_(env.block_size()), pin_wait_ms_(pin_wait_ms) {
  size_t n = capacity_bytes / block_size_;
  if (n == 0) n = 1;
  frames_.resize(n);
  free_frames_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    frames_[i].data.resize(block_size_);
    free_frames_.push_back(n - 1 - i);
  }
}

BufferPool::~BufferPool() {
  // Best effort write-back of anything still dirty.
  Status st = FlushAll();
  (void)st;
}

Result<PageHandle> BufferPool::Fetch(BlockFile& file, uint64_t block,
                                     bool zero_fill_new) {
  std::unique_lock<std::mutex> lock(mu_);
  Key key{&file, block};
  auto it = table_.find(key);
  if (it != table_.end()) {
    size_t idx = it->second;
    Frame& f = frames_[idx];
    ++stats_.hits;
    if (f.in_lru) {
      lru_.erase(f.lru_pos);
      f.in_lru = false;
    }
    ++f.pins;
    return {PageHandle(this, idx)};
  }

  ++stats_.misses;
  MAXRS_ASSIGN_OR_RETURN(size_t idx, GetVictim(lock));
  Frame& f = frames_[idx];

  // The lock stays held across the transfer: it serializes access to the
  // shared BlockFile handle (Env's single-handle contract) and keeps the
  // frame ownership transition atomic with the I/O that fills it.
  const bool fresh_append = zero_fill_new && block >= file.NumBlocks();
  if (fresh_append) {
    std::memset(f.data.data(), 0, block_size_);
    // Materialize the block on storage so subsequent reads are in-bounds.
    // This is a real (counted) write: the EM algorithm allocates the block.
    MAXRS_RETURN_IF_ERROR(file.WriteBlock(block, f.data.data()));
  } else {
    Status read = file.ReadBlock(block, f.data.data());
    if (!read.ok()) {
      // The victim frame was already detached from the table; hand it back
      // to the free list so the failed fetch does not leak capacity.
      f.valid = false;
      free_frames_.push_back(idx);
      frame_freed_.notify_one();
      return {read};
    }
  }

  f.file = &file;
  f.block = block;
  f.dirty = false;
  f.valid = true;
  f.pins = 1;
  f.in_lru = false;
  table_[key] = idx;
  return {PageHandle(this, idx)};
}

Status BufferPool::FlushAll(BlockFile* file) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Frame& f : frames_) {
    if (f.valid && f.dirty && f.pins == 0 &&
        (file == nullptr || f.file == file)) {
      MAXRS_RETURN_IF_ERROR(WriteBack(f));
    }
  }
  return Status::OK();
}

Status BufferPool::Evict(BlockFile& file) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < frames_.size(); ++i) {
    Frame& f = frames_[i];
    if (!f.valid || f.file != &file) continue;
    MAXRS_CHECK_MSG(f.pins == 0, "evicting pinned page");
    if (f.dirty) MAXRS_RETURN_IF_ERROR(WriteBack(f));
    table_.erase({f.file, f.block});
    if (f.in_lru) {
      lru_.erase(f.lru_pos);
      f.in_lru = false;
    }
    f.valid = false;
    free_frames_.push_back(i);
    frame_freed_.notify_one();
  }
  return Status::OK();
}

BufferPoolStats BufferPool::pool_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void BufferPool::Unpin(size_t frame) {
  std::lock_guard<std::mutex> lock(mu_);
  Frame& f = frames_[frame];
  MAXRS_DCHECK(f.pins > 0);
  --f.pins;
  if (f.pins == 0 && !f.in_lru) {
    lru_.push_front(frame);
    f.lru_pos = lru_.begin();
    f.in_lru = true;
    frame_freed_.notify_one();
  }
}

void BufferPool::MarkDirtyLocked(size_t frame) {
  std::lock_guard<std::mutex> lock(mu_);
  frames_[frame].dirty = true;
}

Result<size_t> BufferPool::GetVictim(std::unique_lock<std::mutex>& lock) {
  auto take = [&]() -> Result<size_t> {
    if (!free_frames_.empty()) {
      size_t idx = free_frames_.back();
      free_frames_.pop_back();
      return {idx};
    }
    size_t idx = lru_.back();
    lru_.pop_back();
    Frame& f = frames_[idx];
    f.in_lru = false;
    ++stats_.evictions;
    if (f.dirty) MAXRS_RETURN_IF_ERROR(WriteBack(f));
    table_.erase({f.file, f.block});
    f.valid = false;
    return {idx};
  };
  if (!free_frames_.empty() || !lru_.empty()) return take();
  if (pin_wait_ms_ > 0) {
    // Every frame is pinned by a concurrent reader. Wait (bounded) for an
    // unpin rather than failing a transient: the pool is shared across query
    // workers, and all-pinned is a momentary state, not a sizing error.
    const bool freed = frame_freed_.wait_for(
        lock, std::chrono::milliseconds(pin_wait_ms_),
        [&] { return !free_frames_.empty() || !lru_.empty(); });
    if (freed) return take();
  }
  return {Status::ResourceExhausted("buffer pool: all pages pinned")};
}

Status BufferPool::WriteBack(Frame& frame) {
  MAXRS_RETURN_IF_ERROR(frame.file->WriteBlock(frame.block, frame.data.data()));
  frame.dirty = false;
  ++stats_.writebacks;
  return Status::OK();
}

}  // namespace maxrs
