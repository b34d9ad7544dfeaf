// Batched shared-scan equivalence battery: MaxRSServer with batch_max > 1
// must answer every query bit-identically to serial submission across the
// full configuration matrix — shard counts x worker counts x batch sizes x
// pruning modes — because batching only re-plumbs I/O (one shared scan
// feeding per-query channel grids); it never changes the per-query record
// streams. On top of bit-identity the battery pins the
// amortized accounting contract (docs/IO_MODEL.md, "Batched shared scans"):
// a forced full batch reports each query's equal share (counters differ by
// at most one unit, shares sum exactly to the batch total), batch_size = k,
// scans_shared = (k - 1) per shared scan, and two identical runs report
// identical per-query snapshots. A chaos leg checks that faults striking
// mid-batch fail cleanly — affected queries degrade or return a specific
// error; batch-mates and later queries are not poisoned. A deadline leg
// checks that a batch whose members have all expired stops its shared scan.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/exact_maxrs.h"
#include "datagen/dataset_io.h"
#include "gtest/gtest.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "io/io_stats.h"
#include "serve/dataset_handle.h"
#include "serve/maxrs_server.h"
#include "test_util.h"

namespace maxrs {
namespace {

constexpr char kDatasetFile[] = "objects";
constexpr size_t kMemoryBytes = 64 * 1024;

// Delegating Env that fails exactly one operation — the k-th counted
// read/write from arming — with retryable kUnavailable (FaultEnv injects
// terminal kIOError; the degradation leg needs the retryable flavor).
class UnavailableOnceEnv : public Env {
 public:
  UnavailableOnceEnv(Env& base, uint64_t fail_after)
      : base_(&base), remaining_(fail_after) {}

  Result<std::unique_ptr<BlockFile>> Create(const std::string& name) override {
    return Wrap(base_->Create(name));
  }
  Result<std::unique_ptr<BlockFile>> Open(const std::string& name) override {
    return Wrap(base_->Open(name));
  }
  Status Delete(const std::string& name) override {
    return base_->Delete(name);
  }
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

  bool ShouldFail() {
    uint64_t current = remaining_.load(std::memory_order_relaxed);
    while (true) {
      if (current == 0) return false;
      if (remaining_.compare_exchange_weak(current, current - 1,
                                           std::memory_order_relaxed)) {
        return current == 1;
      }
    }
  }

 private:
  class File : public BlockFile {
   public:
    File(std::unique_ptr<BlockFile> base, UnavailableOnceEnv* env)
        : base_(std::move(base)), env_(env) {}
    Status ReadBlock(uint64_t index, void* buf) override {
      if (env_->ShouldFail()) {
        return Status::Unavailable("injected transient fault");
      }
      return base_->ReadBlock(index, buf);
    }
    Status WriteBlock(uint64_t index, const void* buf) override {
      if (env_->ShouldFail()) {
        return Status::Unavailable("injected transient fault");
      }
      return base_->WriteBlock(index, buf);
    }
    uint64_t NumBlocks() const override { return base_->NumBlocks(); }
    Status Truncate(uint64_t num_blocks) override {
      return base_->Truncate(num_blocks);
    }
    size_t block_size() const override { return base_->block_size(); }
    const std::string& name() const override { return base_->name(); }

   private:
    std::unique_ptr<BlockFile> base_;
    UnavailableOnceEnv* env_;
  };

  Result<std::unique_ptr<BlockFile>> Wrap(
      Result<std::unique_ptr<BlockFile>> file) {
    if (!file.ok()) return file;
    return {std::make_unique<File>(std::move(file).value(), this)};
  }

  Env* base_;
  std::atomic<uint64_t> remaining_;
};

// Env wrapper whose ReadBlock parks while the gate is closed, so a test can
// wedge a batch's routing scans on their first read and let every deadline
// lapse before they run on.
class GateEnv : public Env {
 public:
  explicit GateEnv(Env& base) : base_(base) {}

  void CloseGate() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
  }
  void OpenGate() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  /// Spins until some reader is parked on the closed gate.
  void WaitUntilBlocked() const {
    while (blocked_.load() == 0) std::this_thread::yield();
  }

  Result<std::unique_ptr<BlockFile>> Create(const std::string& name) override {
    return base_.Create(name);
  }
  Result<std::unique_ptr<BlockFile>> Open(const std::string& name) override {
    auto file = base_.Open(name);
    if (!file.ok()) return file;
    return {std::make_unique<File>(std::move(file).value(), this)};
  }
  Status Delete(const std::string& name) override { return base_.Delete(name); }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_.Rename(from, to);
  }
  bool Exists(const std::string& name) const override {
    return base_.Exists(name);
  }
  std::vector<std::string> ListFiles() const override {
    return base_.ListFiles();
  }
  size_t block_size() const override { return base_.block_size(); }
  IoStats& stats() override { return base_.stats(); }

 private:
  class File : public BlockFile {
   public:
    File(std::unique_ptr<BlockFile> base, GateEnv* env)
        : base_(std::move(base)), env_(env) {}
    Status ReadBlock(uint64_t index, void* buf) override {
      env_->Block();
      return base_->ReadBlock(index, buf);
    }
    Status WriteBlock(uint64_t index, const void* buf) override {
      return base_->WriteBlock(index, buf);
    }
    uint64_t NumBlocks() const override { return base_->NumBlocks(); }
    Status Truncate(uint64_t num_blocks) override {
      return base_->Truncate(num_blocks);
    }
    size_t block_size() const override { return base_->block_size(); }
    const std::string& name() const override { return base_->name(); }

   private:
    std::unique_ptr<BlockFile> base_;
    GateEnv* env_;
  };

  void Block() {
    std::unique_lock<std::mutex> lock(mu_);
    if (open_) return;
    blocked_.fetch_add(1);
    cv_.wait(lock, [this] { return open_; });
    blocked_.fetch_sub(1);
  }

  Env& base_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = true;
  std::atomic<int> blocked_{0};
};

// Eight distinct rects with deliberately incompatible shapes mixed in
// (width span 35..410 exceeds the formation's 8x band), so batch formation
// must split and re-stage — the answers must not care.
const std::vector<std::pair<double, double>>& MatrixRects() {
  static const std::vector<std::pair<double, double>> kRects = {
      {60.0, 340.0},  {120.0, 90.0}, {200.0, 200.0}, {35.0, 500.0},
      {410.0, 55.0},  {150.0, 260.0}, {90.0, 90.0},  {260.0, 150.0},
  };
  return kRects;
}

// Eight distinct rects inside one 8x shape band: a single formation can
// (and, under a long batch window, must) take all of them.
const std::vector<std::pair<double, double>>& CompatibleRects() {
  static const std::vector<std::pair<double, double>> kRects = {
      {100.0, 100.0}, {120.0, 180.0}, {150.0, 75.0},  {200.0, 200.0},
      {250.0, 130.0}, {300.0, 90.0},  {350.0, 220.0}, {400.0, 160.0},
  };
  return kRects;
}

std::unique_ptr<Env> MakeEnvWithDataset() {
  auto env = NewMemEnv(1024);
  const std::vector<SpatialObject> objects = testing::RandomIntObjects(
      /*n=*/2500, /*extent=*/1000, /*seed=*/41, /*random_weights=*/true);
  EXPECT_TRUE(WriteDataset(*env, kDatasetFile, objects).ok());
  return env;
}

Result<DatasetHandle> IngestShards(Env& env, size_t shards) {
  DatasetHandleOptions options;
  options.shard_count = shards;
  options.memory_bytes = kMemoryBytes;
  return DatasetHandle::Ingest(env, kDatasetFile, options);
}

MaxRSServerOptions BatchServerOptions(size_t workers, size_t batch_max,
                                      ServePruningMode pruning) {
  MaxRSServerOptions options;
  options.num_workers = workers;
  options.memory_bytes = kMemoryBytes;
  options.batch_max = batch_max;
  // Long enough that concurrently submitted queries reliably land in one
  // formation window; the window exits early once batch_max candidates
  // are in hand, so this is latency only on the final, partial batch.
  options.batch_window_ms = batch_max > 1 ? 2000 : 0;
  options.pruning_mode = pruning;
  options.cache_entries = 0;  // every submission must execute
  return options;
}

void ExpectBitIdentical(const MaxRSResult& got, const MaxRSResult& want) {
  EXPECT_EQ(got.total_weight, want.total_weight);
  EXPECT_EQ(got.location, want.location);
  EXPECT_EQ(got.region, want.region);
}

// Submits every rect concurrently (one client thread each) and returns the
// results in rect order.
std::vector<Result<MaxRSResult>> SubmitAll(
    MaxRSServer& server, const std::vector<std::pair<double, double>>& rects) {
  std::vector<Result<MaxRSResult>> results(
      rects.size(), Result<MaxRSResult>(Status::Internal("not run")));
  std::vector<std::thread> clients;
  clients.reserve(rects.size());
  for (size_t i = 0; i < rects.size(); ++i) {
    clients.emplace_back([&, i] {
      results[i] = server.Submit(rects[i].first, rects[i].second);
    });
  }
  for (std::thread& t : clients) t.join();
  return results;
}

TEST(BatchEquivalenceTest, BitIdenticalToOneShotAcrossTheMatrix) {
  // Oracle: the serial one-shot pipeline, once per rect.
  std::vector<MaxRSResult> expected;
  {
    auto env = MakeEnvWithDataset();
    for (const auto& rect : MatrixRects()) {
      MaxRSOptions options;
      options.rect_width = rect.first;
      options.rect_height = rect.second;
      options.memory_bytes = kMemoryBytes;
      auto r = RunExactMaxRS(*env, kDatasetFile, options);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      expected.push_back(*r);
    }
  }

  for (size_t shards : {1u, 2u, 7u, 16u}) {
    auto env = MakeEnvWithDataset();
    auto handle = IngestShards(*env, shards);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    for (size_t workers : {1u, 2u, 8u}) {
      for (size_t batch : {1u, 2u, 8u}) {
        for (ServePruningMode pruning :
             {ServePruningMode::kAuto, ServePruningMode::kOff}) {
          SCOPED_TRACE("shards=" + std::to_string(shards) +
                       " workers=" + std::to_string(workers) +
                       " batch=" + std::to_string(batch) +
                       " pruning=" + std::to_string(static_cast<int>(pruning)));
          MaxRSServer server(
              *env, *handle,
              BatchServerOptions(workers, batch, pruning));
          std::vector<Result<MaxRSResult>> results =
              SubmitAll(server, MatrixRects());
          for (size_t i = 0; i < results.size(); ++i) {
            SCOPED_TRACE("query " + std::to_string(i));
            ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
            ExpectBitIdentical(*results[i], expected[i]);
          }
        }
      }
    }
  }
}

TEST(BatchEquivalenceTest, ForcedFullBatchAmortizesIoDeterministically) {
  constexpr size_t kShards = 4;
  const auto& rects = CompatibleRects();
  const size_t k = rects.size();

  // Serial baseline on an identical fresh environment: per-query answers
  // and the total cold I/O eight separate scans pay.
  std::vector<MaxRSResult> serial(k);
  uint64_t serial_total_io = 0;
  {
    auto env = MakeEnvWithDataset();
    auto handle = IngestShards(*env, kShards);
    ASSERT_TRUE(handle.ok());
    MaxRSServer server(*env, *handle,
                       BatchServerOptions(1, 1, ServePruningMode::kOff));
    for (size_t i = 0; i < k; ++i) {
      auto r = server.Submit(rects[i].first, rects[i].second);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->stats.batch_size, 1u);
      EXPECT_EQ(r->stats.io.scans_shared, 0u);
      serial_total_io += r->stats.io.total();
      serial[i] = *r;
    }
  }

  // Two identical batched runs: one worker + a long window force one
  // 8-query formation, making composition — and thus every per-query
  // amortized snapshot — deterministic.
  std::vector<std::vector<IoStatsSnapshot>> run_snapshots;
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    auto env = MakeEnvWithDataset();
    auto handle = IngestShards(*env, kShards);
    ASSERT_TRUE(handle.ok());
    MaxRSServer server(*env, *handle,
                       BatchServerOptions(1, 8, ServePruningMode::kOff));
    const IoStatsSnapshot before = env->stats().Snapshot();
    std::vector<Result<MaxRSResult>> results = SubmitAll(server, rects);
    const IoStatsSnapshot delta = env->stats().Snapshot() - before;

    std::vector<IoStatsSnapshot> snapshots(k);
    uint64_t sum_read = 0, sum_written = 0, sum_shared = 0, batch_total = 0;
    uint64_t min_read = UINT64_MAX, max_read = 0;
    for (size_t i = 0; i < k; ++i) {
      SCOPED_TRACE("query " + std::to_string(i));
      ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
      ExpectBitIdentical(*results[i], serial[i]);
      // Every query ran in THE one batch and says so.
      EXPECT_EQ(results[i]->stats.batch_size, k);
      EXPECT_EQ(results[i]->stats.wall_seconds, results[0]->stats.wall_seconds);
      const IoStatsSnapshot& io = results[i]->stats.io;
      snapshots[i] = io;
      sum_read += io.blocks_read;
      sum_written += io.blocks_written;
      sum_shared += io.scans_shared;
      batch_total += io.total();
      min_read = std::min(min_read, io.blocks_read);
      max_read = std::max(max_read, io.blocks_read);
    }
    // Equal shares: the per-counter spread is at most one unit, and the
    // shares sum exactly to the batch's environment delta.
    EXPECT_LE(max_read - min_read, 1u);
    EXPECT_EQ(sum_read, delta.blocks_read);
    EXPECT_EQ(sum_written, delta.blocks_written);
    // One shared scan per source shard, k - 1 shares each.
    EXPECT_EQ(sum_shared, (k - 1) * kShards);
    // The whole point: a k-query cold batch costs strictly less than k
    // serial cold queries (the source scans ran once, not k times).
    EXPECT_LT(batch_total, serial_total_io);

    const ServerCounters counters = server.counters();
    EXPECT_EQ(counters.batches, 1u);
    EXPECT_EQ(counters.batched_queries, k);
    EXPECT_EQ(counters.executed, k);
    run_snapshots.push_back(std::move(snapshots));
  }
  // Determinism: identical environments + identical forced composition =>
  // identical per-query amortized snapshots, field by field.
  for (size_t i = 0; i < k; ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    EXPECT_EQ(run_snapshots[0][i].blocks_read, run_snapshots[1][i].blocks_read);
    EXPECT_EQ(run_snapshots[0][i].blocks_written,
              run_snapshots[1][i].blocks_written);
    EXPECT_EQ(run_snapshots[0][i].scans_shared,
              run_snapshots[1][i].scans_shared);
  }
}

TEST(BatchEquivalenceTest, SingleQueryBatchIsTheLegacyPath) {
  // batch_max > 1 with one in-flight query must not change accounting: the
  // formation window closes on a batch of one, which reports batch_size 1,
  // no shared-scan shares, and counts as no batch.
  auto env = MakeEnvWithDataset();
  auto handle = IngestShards(*env, 3);
  ASSERT_TRUE(handle.ok());
  MaxRSServerOptions options = BatchServerOptions(1, 8, ServePruningMode::kOff);
  options.batch_window_ms = 10;  // don't hold the lone query for 2s
  MaxRSServer server(*env, *handle, options);
  auto r = server.Submit(200.0, 140.0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.batch_size, 1u);
  EXPECT_EQ(r->stats.io.scans_shared, 0u);
  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.batches, 0u);
  EXPECT_EQ(counters.batched_queries, 0u);
}

TEST(BatchEquivalenceTest, FaultMidBatchFailsCleanlyAndServerSurvives) {
  // A permanent (non-retryable) fault striking one operation mid-batch
  // must produce, per query, either the bit-identical answer or a clean
  // kIOError — never a hang, a wrong answer, or a poisoned server. Which
  // queries fail depends on where the fault lands (a shared-scan fault
  // legitimately affects every query sharing that scan); cleanliness and
  // post-fault health are the invariants.
  const auto& rects = CompatibleRects();
  std::vector<MaxRSResult> expected(rects.size());
  auto env = MakeEnvWithDataset();
  auto handle = IngestShards(*env, 3);
  ASSERT_TRUE(handle.ok());
  {
    MaxRSServer server(*env, *handle,
                       BatchServerOptions(1, 1, ServePruningMode::kOff));
    for (size_t i = 0; i < rects.size(); ++i) {
      auto r = server.Submit(rects[i].first, rects[i].second);
      ASSERT_TRUE(r.ok());
      expected[i] = *r;
    }
  }

  FaultEnv faulty(*env);
  MaxRSServer faulted(faulty, *handle,
                      BatchServerOptions(1, 8, ServePruningMode::kOff));
  faulty.ArmAfter(40);  // strikes during the batch's routing/solve phase
  std::vector<Result<MaxRSResult>> results = SubmitAll(faulted, rects);
  EXPECT_EQ(faulty.faults_delivered(), 1u);
  size_t failures = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    if (results[i].ok()) {
      ExpectBitIdentical(*results[i], expected[i]);
    } else {
      ++failures;
      EXPECT_EQ(results[i].status().code(), Status::Code::kIOError);
    }
  }
  EXPECT_GE(failures, 1u);

  // Disarmed, the same server serves the failed rects correctly — the
  // fault poisoned results, not state.
  faulty.Disarm();
  for (size_t i = 0; i < rects.size(); ++i) {
    if (results[i].ok()) continue;
    SCOPED_TRACE("retry query " + std::to_string(i));
    auto retry = faulted.Submit(rects[i].first, rects[i].second);
    ASSERT_TRUE(retry.ok()) << retry.status().ToString();
    ExpectBitIdentical(*retry, expected[i]);
  }
}

TEST(BatchEquivalenceTest, RetryableFaultMidBatchDegradesPerQueryNotWrong) {
  // A retryable (kUnavailable) fault mid-batch triggers the per-query
  // degradation rerun: the affected queries re-run SOLO through the same
  // runner (a batch of one) and still answer bit-identically; their stats
  // are the solo rerun's (batch_size back to 1, un-amortized I/O).
  const auto& rects = CompatibleRects();
  std::vector<MaxRSResult> expected(rects.size());
  auto env = MakeEnvWithDataset();
  auto handle = IngestShards(*env, 3);
  ASSERT_TRUE(handle.ok());
  {
    MaxRSServer server(*env, *handle,
                       BatchServerOptions(1, 1, ServePruningMode::kOff));
    for (size_t i = 0; i < rects.size(); ++i) {
      auto r = server.Submit(rects[i].first, rects[i].second);
      ASSERT_TRUE(r.ok());
      expected[i] = *r;
    }
  }

  UnavailableOnceEnv flaky(*env, /*fail_after=*/40);
  MaxRSServer server(flaky, *handle,
                     BatchServerOptions(1, 8, ServePruningMode::kOff));
  std::vector<Result<MaxRSResult>> results = SubmitAll(server, rects);
  for (size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    ExpectBitIdentical(*results[i], expected[i]);
  }
  EXPECT_GE(server.counters().degraded, 1u);
}

TEST(BatchEquivalenceTest, AllMembersExpiredStopsTheSharedScan) {
  // Once every member's deadline has lapsed nobody is left to consume the
  // shared scan: it must stop at its next poll instead of routing (and
  // spilling) every remaining row. The gate wedges the scans on their
  // first read until all deadlines are past. Every member then fails with
  // kDeadlineExceeded, and the batch reads fewer blocks than one clean pass
  // over the shard files. k = 1 is the plain per-row poll.
  constexpr size_t kShards = 2;
  auto base = NewMemEnv(1024);
  ASSERT_TRUE(WriteDataset(*base, kDatasetFile,
                           testing::RandomIntObjects(
                               /*n=*/20000, /*extent=*/1000, /*seed=*/43,
                               /*random_weights=*/true))
                  .ok());
  GateEnv env(*base);
  auto handle = IngestShards(env, kShards);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  uint64_t clean_pass = 0;  // every shard's y-file and x-file, once
  for (const ShardInfo& shard : handle->shards()) {
    for (const std::string& name : {shard.y_file, shard.x_file}) {
      auto file = base->Open(name);
      ASSERT_TRUE(file.ok()) << file.status().ToString();
      clean_pass += (*file)->NumBlocks();
    }
  }

  const auto& rects = CompatibleRects();
  for (size_t k : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    MaxRSServerOptions options =
        BatchServerOptions(1, 8, ServePruningMode::kOff);
    options.batch_window_ms = k > 1 ? 2000 : 0;  // exits once 8 are in hand
    options.deadline_ms = 100;
    MaxRSServer server(env, *handle, options);

    env.CloseGate();
    const IoStatsSnapshot before = env.stats().Snapshot();
    std::vector<std::future<Result<QueryResponse>>> futures;
    for (size_t i = 0; i < k; ++i) {
      futures.push_back(server.SubmitAsync(
          QuerySpec{rects[i].first, rects[i].second, {}, {}}));
    }
    env.WaitUntilBlocked();  // the scan started and is wedged
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    env.OpenGate();
    for (size_t i = 0; i < k; ++i) {
      Result<QueryResponse> r = futures[i].get();
      ASSERT_FALSE(r.ok()) << "query " << i << " outlived its deadline";
      EXPECT_EQ(r.status().code(), Status::Code::kDeadlineExceeded)
          << r.status().ToString();
    }
    const IoStatsSnapshot delta = env.stats().Snapshot() - before;
    EXPECT_LT(delta.blocks_read, clean_pass)
        << "the shared scan ran on after every member expired";

    const ServerCounters counters = server.counters();
    EXPECT_EQ(counters.deadlines, k);
    EXPECT_EQ(counters.degraded, 0u);  // deadline errors are never re-run
    EXPECT_EQ(counters.batches, k > 1 ? 1u : 0u);
  }
}

}  // namespace
}  // namespace maxrs
