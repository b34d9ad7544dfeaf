// Fault-injecting Env wrappers for failure-path testing.
//
// FaultEnv fails the K-th block read or write (counting from the wrapper's
// construction or last Arm call) with an IOError — deterministic single-shot
// injection for verifying Status propagation through every layer (streams,
// sorts, sweeps, public API).
//
// ChaosEnv is the probabilistic generalization: a seeded schedule of
// transient faults (kUnavailable), permanent faults (kIOError), silent read
// bit-flips, and torn writes, for the chaos battery (tests/chaos_test.cc).
#ifndef MAXRS_IO_FAULT_ENV_H_
#define MAXRS_IO_FAULT_ENV_H_

#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <string>

#include "io/env.h"

namespace maxrs {

class FaultEnv : public Env {
 public:
  explicit FaultEnv(Env& base) : base_(&base) {}

  /// Fails the `k`-th counted operation from now (1-based). Reads and writes
  /// share the countdown.
  void ArmAfter(uint64_t k) { remaining_.store(k, std::memory_order_relaxed); }
  void Disarm() { remaining_.store(kDisarmed, std::memory_order_relaxed); }

  /// Number of faults actually delivered.
  uint64_t faults_delivered() const {
    return faults_delivered_.load(std::memory_order_relaxed);
  }

  Result<std::unique_ptr<BlockFile>> Create(const std::string& name) override;
  Result<std::unique_ptr<BlockFile>> Open(const std::string& name) override;
  Status Delete(const std::string& name) override { return base_->Delete(name); }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  bool Exists(const std::string& name) const override {
    return base_->Exists(name);
  }
  std::vector<std::string> ListFiles() const override {
    return base_->ListFiles();
  }
  size_t block_size() const override { return base_->block_size(); }
  IoStats& stats() override { return base_->stats(); }

  /// Returns true if the current operation must fail (internal use by the
  /// wrapped files). Lock-free CAS countdown: pool workers issue counted
  /// I/O concurrently, and exactly one of the racing operations must take
  /// the armed fault.
  bool ShouldFail() {
    uint64_t current = remaining_.load(std::memory_order_relaxed);
    while (true) {
      if (current == kDisarmed) return false;
      const uint64_t next = current <= 1 ? kDisarmed : current - 1;
      if (remaining_.compare_exchange_weak(current, next,
                                           std::memory_order_relaxed)) {
        if (current <= 1) {
          faults_delivered_.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
        return false;
      }
    }
  }

 private:
  static constexpr uint64_t kDisarmed = std::numeric_limits<uint64_t>::max();

  Env* base_;
  std::atomic<uint64_t> remaining_{kDisarmed};
  std::atomic<uint64_t> faults_delivered_{0};
};

/// Fault mix for a ChaosEnv. Probabilities are per block operation and are
/// drawn in the order listed: at most one fault fires per operation.
struct ChaosOptions {
  uint64_t seed = 1;
  /// P(a read/write fails with kUnavailable before touching storage).
  /// Transient: a retry re-draws and usually succeeds.
  double transient_fault_p = 0.0;
  /// P(a read/write fails with kIOError before touching storage). Permanent
  /// in the retry taxonomy — RetryEnv gives up immediately by default.
  double permanent_fault_p = 0.0;
  /// P(a read completes — and is counted — but one bit of the returned
  /// buffer is silently flipped). Caught by block checksums as kCorruption.
  double bit_flip_read_p = 0.0;
  /// P(a write completes — and is counted — but the stored block is garbled
  /// past its midpoint, as if the write tore). Reported OK to the writer;
  /// caught by block checksums on the next read.
  double torn_write_p = 0.0;
};

/// Seeded probabilistic fault injector. Faults fire *before* the base
/// transfer (transient/permanent) or corrupt an otherwise-counted transfer
/// (bit-flip/torn-write), so a schedule whose transient faults are all
/// retried away performs exactly the block transfers of a fault-free run —
/// the accounting invariant chaos_test pins. The RNG is shared and
/// mutex-guarded: the schedule is a deterministic function of the seed and
/// the sequence of operations, though under concurrency the interleaving
/// (and thus which op draws which fault) is schedule-dependent.
class ChaosEnv : public Env {
 public:
  ChaosEnv(Env& base, const ChaosOptions& options)
      : base_(&base), options_(options), rng_(options.seed) {}

  Result<std::unique_ptr<BlockFile>> Create(const std::string& name) override;
  Result<std::unique_ptr<BlockFile>> Open(const std::string& name) override;
  Status Delete(const std::string& name) override { return base_->Delete(name); }
  Status Rename(const std::string& from, const std::string& to) override {
    // Namespace operations are not faulted: the chaos model targets block
    // transfers; Rename atomicity is the base Env's contract.
    return base_->Rename(from, to);
  }
  bool Exists(const std::string& name) const override {
    return base_->Exists(name);
  }
  std::vector<std::string> ListFiles() const override {
    return base_->ListFiles();
  }
  size_t block_size() const override { return base_->block_size(); }
  IoStats& stats() override { return base_->stats(); }

  uint64_t transient_faults() const {
    return transient_faults_.load(std::memory_order_relaxed);
  }
  uint64_t permanent_faults() const {
    return permanent_faults_.load(std::memory_order_relaxed);
  }
  uint64_t bit_flips() const {
    return bit_flips_.load(std::memory_order_relaxed);
  }
  uint64_t torn_writes() const {
    return torn_writes_.load(std::memory_order_relaxed);
  }

  /// What a ChaosBlockFile operation should do (internal use).
  enum class Fault { kNone, kTransient, kPermanent, kCorrupt };

  /// Draws the fault outcome for one read; on kCorrupt, `*detail` is the bit
  /// index to flip within the block.
  Fault DrawReadFault(uint64_t* detail);
  /// Draws the fault outcome for one write (kCorrupt = torn write).
  Fault DrawWriteFault();

 private:
  Env* base_;
  ChaosOptions options_;
  std::mutex mu_;
  std::mt19937_64 rng_;
  std::atomic<uint64_t> transient_faults_{0};
  std::atomic<uint64_t> permanent_faults_{0};
  std::atomic<uint64_t> bit_flips_{0};
  std::atomic<uint64_t> torn_writes_{0};
};

}  // namespace maxrs

#endif  // MAXRS_IO_FAULT_ENV_H_
