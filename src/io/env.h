// Env: the storage abstraction of the library (in the spirit of RocksDB's
// Env). All files are block-granular; reading or writing one block is one
// I/O and is recorded in the Env's IoStats. Two implementations are
// provided: an in-memory Env (deterministic, fast, default for benchmarks)
// and a POSIX Env backed by real files. The role of each layer in the
// external-memory cost model is documented in docs/IO_MODEL.md.
//
// Concurrency contract of a BlockFile: distinct handles on the same file
// may read concurrently, and a single handle may be used from alternating
// threads provided the caller establishes happens-before between uses (a
// stream opened by one pool task and drained by another, after a join).
// Implementations must not assume a handle is confined to one thread.
// Writes are never concurrent with reads of the same blocks at this layer —
// record files are immutable once Finish()ed.
#ifndef MAXRS_IO_ENV_H_
#define MAXRS_IO_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/io_stats.h"
#include "util/status.h"

namespace maxrs {

/// A block-addressable file. Blocks are `block_size()` bytes; partial blocks
/// do not exist at this layer (record framing is layered on top).
class BlockFile {
 public:
  virtual ~BlockFile() = default;

  /// Reads block `index` into `buf` (block_size() bytes). Counted as 1 I/O.
  virtual Status ReadBlock(uint64_t index, void* buf) = 0;

  /// Writes block `index` from `buf`. Writing at index == NumBlocks()
  /// extends the file. Counted as 1 I/O.
  virtual Status WriteBlock(uint64_t index, const void* buf) = 0;

  /// Number of blocks currently in the file.
  virtual uint64_t NumBlocks() const = 0;

  /// Shrinks the file to `num_blocks` blocks. Not counted as I/O.
  virtual Status Truncate(uint64_t num_blocks) = 0;

  virtual size_t block_size() const = 0;
  virtual const std::string& name() const = 0;
};

/// Factory and namespace for BlockFiles, plus the I/O counters.
class Env {
 public:
  virtual ~Env() = default;

  /// Creates (or truncates) a file.
  virtual Result<std::unique_ptr<BlockFile>> Create(const std::string& name) = 0;

  /// Opens an existing file; NotFound if absent.
  virtual Result<std::unique_ptr<BlockFile>> Open(const std::string& name) = 0;

  virtual Status Delete(const std::string& name) = 0;

  /// Atomically renames `from` to `to`, replacing `to` if it exists. The
  /// atomicity is the crash-consistency primitive of the library: a manifest
  /// is written under a temp name, Finish()ed, then Rename()d into place, so
  /// readers observe either the old state or the complete new file — never a
  /// partial one (docs/ROBUSTNESS.md, "Crash consistency").
  /// NotFound if `from` does not exist.
  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  virtual bool Exists(const std::string& name) const = 0;
  virtual std::vector<std::string> ListFiles() const = 0;

  virtual size_t block_size() const = 0;
  virtual IoStats& stats() = 0;
  const IoStats& stats() const { return const_cast<Env*>(this)->stats(); }
};

/// In-memory Env. Deterministic and fast; blocks live on a simulated disk
/// and are memcpy'd on each counted transfer.
std::unique_ptr<Env> NewMemEnv(size_t block_size = 4096);

/// POSIX filesystem Env rooted at `root_dir` (created if missing).
std::unique_ptr<Env> NewPosixEnv(const std::string& root_dir,
                                 size_t block_size = 4096);

}  // namespace maxrs

#endif  // MAXRS_IO_ENV_H_
