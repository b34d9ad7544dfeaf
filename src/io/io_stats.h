// Block-transfer accounting: the cost metric of the external-memory model.
// Every block moved between backing storage and memory is counted here; the
// benchmark harness reports these counters exactly as the paper reports
// "I/O cost ... the number of transferred blocks during the entire process".
// docs/IO_MODEL.md defines the model end to end: what is counted, what is
// not, and why totals are exact at any thread count.
#ifndef MAXRS_IO_IO_STATS_H_
#define MAXRS_IO_IO_STATS_H_

#include <atomic>
#include <cstdint>

namespace maxrs {

/// A point-in-time copy of the counters.
struct IoStatsSnapshot {
  uint64_t blocks_read = 0;
  uint64_t blocks_written = 0;
  /// Retry attempts recorded by io/retry_env.h. Each retried transfer that
  /// reaches the base Env is *also* counted in blocks_read/blocks_written —
  /// the retry counters say how many of those transfers were repeat
  /// attempts, keeping accounting exact (docs/IO_MODEL.md, "Retried and
  /// checksummed blocks").
  uint64_t reads_retried = 0;
  uint64_t writes_retried = 0;
  /// Work *avoided* by the aggregate shard index (serve/maxrs_server.cc).
  /// `shards_pruned` counts shards never routed or solved because their
  /// weight upper bound could not beat the best candidate found before
  /// routing; `bound_skips` counts shards whose routed input was discarded
  /// unsolved because a better candidate arrived mid-query. Neither is a
  /// block transfer, so neither contributes to total() — they annotate why
  /// blocks_read is *lower* than the un-pruned schedule (docs/IO_MODEL.md,
  /// "Index-pruned serving").
  uint64_t shards_pruned = 0;
  uint64_t bound_skips = 0;
  /// Source-shard scans *not performed* because batched execution
  /// (serve/maxrs_server.cc) shared one scan across several queries: a
  /// batch of k queries records (k - 1) shares per scan it runs. Like
  /// `shards_pruned` this is a decision counter, not a transfer — it is
  /// excluded from total() and annotates why blocks_read is lower than k
  /// serial executions (docs/IO_MODEL.md, "Batched shared scans").
  uint64_t scans_shared = 0;

  uint64_t total() const { return blocks_read + blocks_written; }

  IoStatsSnapshot operator-(const IoStatsSnapshot& other) const {
    return {blocks_read - other.blocks_read,
            blocks_written - other.blocks_written,
            reads_retried - other.reads_retried,
            writes_retried - other.writes_retried,
            shards_pruned - other.shards_pruned,
            bound_skips - other.bound_skips,
            scans_shared - other.scans_shared};
  }
};

/// Mutable counters owned by an Env. Thread-safe: the parallel execution
/// engine issues I/O from pool workers concurrently, so the counters are
/// relaxed atomics — cheap uncontended, and the *total* per run is exact and
/// schedule-independent (every block transfer increments exactly once).
/// Snapshots taken while I/O is in flight see some interleaving of the two
/// counters; the library only snapshots at quiescent points (before/after a
/// run), where the values are exact.
///
/// Every stream transfers its blocks synchronously, on the thread that
/// reads or writes it, so a count is taken exactly when its block moves.
/// Streaming channels (io/record_stream.h) add no counts of their
/// own: only their spill files touch the Env, and whether a channel spills
/// is a pure function of the records produced and the memory cap, keeping
/// per-query totals schedule-independent. docs/IO_MODEL.md, "Streaming
/// routing", has the full accounting.
class IoStats {
 public:
  void RecordRead(uint64_t blocks) {
    blocks_read_.fetch_add(blocks, std::memory_order_relaxed);
  }
  void RecordWrite(uint64_t blocks) {
    blocks_written_.fetch_add(blocks, std::memory_order_relaxed);
  }
  void RecordReadRetry(uint64_t blocks) {
    reads_retried_.fetch_add(blocks, std::memory_order_relaxed);
  }
  void RecordWriteRetry(uint64_t blocks) {
    writes_retried_.fetch_add(blocks, std::memory_order_relaxed);
  }
  void RecordShardsPruned(uint64_t shards) {
    shards_pruned_.fetch_add(shards, std::memory_order_relaxed);
  }
  void RecordBoundSkip(uint64_t shards) {
    bound_skips_.fetch_add(shards, std::memory_order_relaxed);
  }
  void RecordScansShared(uint64_t scans) {
    scans_shared_.fetch_add(scans, std::memory_order_relaxed);
  }

  IoStatsSnapshot Snapshot() const {
    return {blocks_read_.load(std::memory_order_relaxed),
            blocks_written_.load(std::memory_order_relaxed),
            reads_retried_.load(std::memory_order_relaxed),
            writes_retried_.load(std::memory_order_relaxed),
            shards_pruned_.load(std::memory_order_relaxed),
            bound_skips_.load(std::memory_order_relaxed),
            scans_shared_.load(std::memory_order_relaxed)};
  }

  void Reset() {
    blocks_read_.store(0, std::memory_order_relaxed);
    blocks_written_.store(0, std::memory_order_relaxed);
    reads_retried_.store(0, std::memory_order_relaxed);
    writes_retried_.store(0, std::memory_order_relaxed);
    shards_pruned_.store(0, std::memory_order_relaxed);
    bound_skips_.store(0, std::memory_order_relaxed);
    scans_shared_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> blocks_read_{0};
  std::atomic<uint64_t> blocks_written_{0};
  std::atomic<uint64_t> reads_retried_{0};
  std::atomic<uint64_t> writes_retried_{0};
  std::atomic<uint64_t> shards_pruned_{0};
  std::atomic<uint64_t> bound_skips_{0};
  std::atomic<uint64_t> scans_shared_{0};
};

}  // namespace maxrs

#endif  // MAXRS_IO_IO_STATS_H_
