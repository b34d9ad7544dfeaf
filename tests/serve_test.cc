// Serve-layer tests: ingest invariants (sharding, manifest roundtrip,
// thread-count determinism), server correctness (bit-identical to one-shot
// ExactMaxRS across rect sizes and worker counts), concurrency (8 in-flight
// queries, deterministic results), and cache semantics (a warm query
// performs zero block transfers — in particular zero sort-phase I/O).
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/exact_maxrs.h"
#include "datagen/dataset_io.h"
#include "gtest/gtest.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "io/record_io.h"
#include "serve/dataset_handle.h"
#include "serve/maxrs_server.h"
#include "test_util.h"

namespace maxrs {
namespace {

constexpr char kDatasetFile[] = "objects";

// Shared setup: a fixed-seed integer dataset staged into a fresh MemEnv.
// 4000 objects with the 64KB budget keep every query on the external
// (division + merge-sweep) code path: base_case_max derives to ~1638.
std::unique_ptr<Env> MakeEnvWithDataset(std::vector<SpatialObject>* out_objects,
                                        size_t n = 4000) {
  auto env = NewMemEnv(4096);
  std::vector<SpatialObject> objects =
      testing::RandomIntObjects(n, /*extent=*/2000, /*seed=*/7,
                                /*random_weights=*/true);
  EXPECT_TRUE(WriteDataset(*env, kDatasetFile, objects).ok());
  if (out_objects != nullptr) *out_objects = objects;
  return env;
}

MaxRSOptions OneShotOptions(double w, double h) {
  MaxRSOptions options;
  options.rect_width = w;
  options.rect_height = h;
  options.memory_bytes = 64 * 1024;
  return options;
}

DatasetHandleOptions IngestOptions(size_t shards, size_t threads = 1) {
  DatasetHandleOptions options;
  options.shard_count = shards;
  options.memory_bytes = 64 * 1024;
  options.num_threads = threads;
  return options;
}

MaxRSServerOptions ServerOptions(size_t workers) {
  MaxRSServerOptions options;
  options.num_workers = workers;
  options.memory_bytes = 64 * 1024;
  return options;
}

void ExpectBitIdentical(const MaxRSResult& a, const MaxRSResult& b) {
  EXPECT_EQ(a.total_weight, b.total_weight);
  EXPECT_EQ(a.location, b.location);
  EXPECT_EQ(a.region, b.region);
}

// Parks every ReadBlock issued while closed, so a test can pin a query
// worker mid-execution and observe queue / dedup state deterministically.
class ReadGate {
 public:
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  size_t arrived() const {
    std::lock_guard<std::mutex> lock(mu_);
    return arrived_;
  }
  void Await() {
    std::unique_lock<std::mutex> lock(mu_);
    ++arrived_;
    cv_.wait(lock, [&] { return open_; });
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = true;
  size_t arrived_ = 0;
};

// Env wrapper routing every read of an Open()ed file through a ReadGate.
// Writes (and Create()d scratch files) pass straight through.
class GatedEnv : public Env {
 public:
  explicit GatedEnv(Env& base) : base_(base) {}
  ReadGate& gate() { return gate_; }

  Result<std::unique_ptr<BlockFile>> Create(const std::string& name) override {
    return base_.Create(name);
  }
  Result<std::unique_ptr<BlockFile>> Open(const std::string& name) override {
    auto file = base_.Open(name);
    if (!file.ok()) return file.status();
    return Result<std::unique_ptr<BlockFile>>(std::unique_ptr<BlockFile>(
        new File(std::move(file).value(), &gate_)));
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
    File(std::unique_ptr<BlockFile> base, ReadGate* gate)
        : base_(std::move(base)), gate_(gate) {}
    Status ReadBlock(uint64_t index, void* buf) override {
      gate_->Await();
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
    ReadGate* gate_;
  };

  Env& base_;
  ReadGate gate_;
};

TEST(DatasetHandleTest, IngestShardsCoverAxisAndStaySorted) {
  std::vector<SpatialObject> objects;
  auto env = MakeEnvWithDataset(&objects);
  auto handle_or = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(4));
  ASSERT_TRUE(handle_or.ok()) << handle_or.status().ToString();
  const DatasetHandle& handle = handle_or.value();

  ASSERT_EQ(handle.shards().size(), 4u);
  EXPECT_EQ(handle.num_objects(), objects.size());
  EXPECT_GT(handle.ingest_stats().io.total(), 0u);

  uint64_t total = 0;
  double prev_hi = -kInf;
  for (const ShardInfo& shard : handle.shards()) {
    // Contiguous slabs: each shard starts where the previous ended.
    EXPECT_EQ(shard.x_range.lo, prev_hi);
    prev_hi = shard.x_range.hi;
    total += shard.num_objects;
    EXPECT_GT(shard.num_objects, 0u);

    auto y_objects = ReadRecordFile<SpatialObject>(*env, shard.y_file);
    auto x_objects = ReadRecordFile<SpatialObject>(*env, shard.x_file);
    ASSERT_TRUE(y_objects.ok());
    ASSERT_TRUE(x_objects.ok());
    EXPECT_EQ(y_objects->size(), shard.num_objects);
    EXPECT_EQ(x_objects->size(), shard.num_objects);
    EXPECT_TRUE(
        std::is_sorted(y_objects->begin(), y_objects->end(), ObjectYLess));
    EXPECT_TRUE(
        std::is_sorted(x_objects->begin(), x_objects->end(), ObjectXLess));
    for (const SpatialObject& o : *x_objects) {
      EXPECT_TRUE(shard.x_range.Contains(o.x));
    }
  }
  EXPECT_EQ(handle.shards().back().x_range.hi, kInf);
  EXPECT_EQ(total, objects.size());
}

TEST(DatasetHandleTest, ManifestRoundtripAndDrop) {
  auto env = MakeEnvWithDataset(nullptr);
  auto ingested = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(3));
  ASSERT_TRUE(ingested.ok());

  auto opened = DatasetHandle::Open(*env, ingested->prefix());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->num_objects(), ingested->num_objects());
  // The dataset extent (cache-admission input) survives the manifest
  // roundtrip bit-for-bit.
  ASSERT_TRUE(ingested->has_bounds());
  ASSERT_TRUE(opened->has_bounds());
  EXPECT_EQ(opened->bounds(), ingested->bounds());
  ASSERT_EQ(opened->shards().size(), ingested->shards().size());
  for (size_t i = 0; i < opened->shards().size(); ++i) {
    EXPECT_EQ(opened->shards()[i].x_range, ingested->shards()[i].x_range);
    EXPECT_EQ(opened->shards()[i].num_objects,
              ingested->shards()[i].num_objects);
    EXPECT_EQ(opened->shards()[i].y_file, ingested->shards()[i].y_file);
  }

  // Ingest under an occupied prefix is refused: datasets are immutable.
  auto again = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(3));
  EXPECT_EQ(again.status().code(), Status::Code::kInvalidArgument);

  EXPECT_TRUE(opened->Drop().ok());
  auto after_drop = DatasetHandle::Open(*env, ingested->prefix());
  EXPECT_FALSE(after_drop.ok());
}

TEST(DatasetHandleTest, IngestIsThreadCountInvariant) {
  auto env1 = MakeEnvWithDataset(nullptr);
  auto env8 = MakeEnvWithDataset(nullptr);
  auto serial = DatasetHandle::Ingest(*env1, kDatasetFile, IngestOptions(4, 1));
  auto parallel =
      DatasetHandle::Ingest(*env8, kDatasetFile, IngestOptions(4, 8));
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(serial->shards().size(), parallel->shards().size());
  for (size_t i = 0; i < serial->shards().size(); ++i) {
    auto a = ReadRecordFile<SpatialObject>(*env1, serial->shards()[i].y_file);
    auto b = ReadRecordFile<SpatialObject>(*env8, parallel->shards()[i].y_file);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->size(), b->size());
    EXPECT_EQ(std::memcmp(a->data(), b->data(),
                          a->size() * sizeof(SpatialObject)),
              0);
  }
}

TEST(DatasetHandleTest, FailedIngestNeverBricksThePrefix) {
  // Inject a fault at every possible transfer of the ingest in turn; after
  // each failure the prefix must be reusable (a leaked half-written
  // manifest would make every retry fail with InvalidArgument).
  auto base = NewMemEnv(4096);
  ASSERT_TRUE(WriteDataset(*base, kDatasetFile,
                           testing::RandomIntObjects(500, 1000, 11))
                  .ok());
  FaultEnv fault(*base);
  for (uint64_t k = 1;; ++k) {
    fault.ArmAfter(k);
    auto result = DatasetHandle::Ingest(fault, kDatasetFile, IngestOptions(2));
    fault.Disarm();
    if (result.ok()) {
      ASSERT_TRUE(result->Drop().ok());
      break;  // k exceeded the ingest's total transfers: sweep complete
    }
    auto retry = DatasetHandle::Ingest(fault, kDatasetFile, IngestOptions(2));
    ASSERT_TRUE(retry.ok()) << "prefix bricked after fault at transfer " << k
                            << ": " << retry.status().ToString();
    ASSERT_TRUE(retry->Drop().ok());
  }
}

TEST(ServeTest, SubUlpCoordinateCollapseStaysBitIdentical) {
  // Two objects whose y values differ by less than one ulp of the shifted
  // y - h/2: both pieces get y_lo == -500 exactly, and the x values are
  // chosen so the derived per-shard piece stream violates the PieceYLess
  // tie-break order. The server must detect this and fall back to a real
  // sort, keeping served answers bit-identical to the one-shot pipeline.
  std::vector<SpatialObject> objects;
  objects.push_back({10.0, 0.0, 1.0});
  objects.push_back({5.0, 1e-18, 1.0});
  for (int i = 0; i < 50; ++i) {
    objects.push_back({static_cast<double>((i * 13) % 97),
                       static_cast<double>((i * 7) % 89), 1.0});
  }
  auto env = NewMemEnv(4096);
  ASSERT_TRUE(WriteDataset(*env, kDatasetFile, objects).ok());

  // Force the external (division) path despite the tiny cardinality.
  MaxRSOptions one_shot_options = OneShotOptions(4.0, 1000.0);
  one_shot_options.base_case_max_pieces = 8;
  auto one_shot = RunExactMaxRS(*env, kDatasetFile, one_shot_options);
  ASSERT_TRUE(one_shot.ok());

  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(1));
  ASSERT_TRUE(handle.ok());
  MaxRSServerOptions server_options = ServerOptions(1);
  server_options.base_case_max_pieces = 8;
  MaxRSServer server(*env, *handle, server_options);
  auto served = server.Submit(4.0, 1000.0);
  ASSERT_TRUE(served.ok());
  ExpectBitIdentical(*served, *one_shot);
}

TEST(ServeTest, BitIdenticalToOneShotAcrossRectSizes) {
  const double kRects[][2] = {
      {50, 50}, {100, 200}, {333, 77}, {1000, 1000}, {5, 5}};

  std::vector<SpatialObject> objects;
  auto env = MakeEnvWithDataset(&objects);
  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(4));
  ASSERT_TRUE(handle.ok());
  MaxRSServer server(*env, *handle, ServerOptions(1));

  for (const auto& rect : kRects) {
    auto one_shot =
        RunExactMaxRS(*env, kDatasetFile, OneShotOptions(rect[0], rect[1]));
    ASSERT_TRUE(one_shot.ok());
    auto served = server.Submit(rect[0], rect[1]);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ExpectBitIdentical(*served, *one_shot);
    // Sanity beyond bit-identity: the answer is a real cover weight.
    EXPECT_EQ(served->total_weight,
              CoveredWeight(objects, Rect::Centered(served->location, rect[0],
                                                    rect[1])));
  }
}

TEST(ServeTest, BitIdenticalAcrossWorkerCountsAndShardCounts) {
  const double kW = 250, kH = 125;
  auto reference_env = MakeEnvWithDataset(nullptr);
  auto reference =
      RunExactMaxRS(*reference_env, kDatasetFile, OneShotOptions(kW, kH));
  ASSERT_TRUE(reference.ok());

  for (size_t shards : {1u, 4u}) {
    for (size_t workers : {1u, 2u, 8u}) {
      auto env = MakeEnvWithDataset(nullptr);
      auto handle =
          DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(shards));
      ASSERT_TRUE(handle.ok());
      MaxRSServer server(*env, *handle, ServerOptions(workers));
      auto served = server.Submit(kW, kH);
      ASSERT_TRUE(served.ok());
      ExpectBitIdentical(*served, *reference);
    }
  }
}

TEST(ServeTest, MultiPassMergeWhenShardsExceedFanIn) {
  // 16KB budget = 4 blocks = fan-in 3, below the 4 shards: the per-query
  // merges must go multi-pass to stay within M/B - 1 blocks, and the
  // result must still be bit-identical to the one-shot run on the same
  // budget — in the global-merge mode (whose k-way piece merge is the
  // multi-pass one) and in the per-shard mode (where the cross-shard span
  // merge sees up to 4 source parts).
  auto env = MakeEnvWithDataset(nullptr);
  MaxRSOptions one_shot_options = OneShotOptions(150, 300);
  one_shot_options.memory_bytes = 16 * 1024;
  auto one_shot = RunExactMaxRS(*env, kDatasetFile, one_shot_options);
  ASSERT_TRUE(one_shot.ok());

  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(4));
  ASSERT_TRUE(handle.ok());
  ASSERT_EQ(handle->shards().size(), 4u);
  for (ServeSolveMode mode :
       {ServeSolveMode::kGlobalMerge, ServeSolveMode::kPerShard}) {
    MaxRSServerOptions server_options = ServerOptions(1);
    server_options.memory_bytes = 16 * 1024;
    server_options.solve_mode = mode;
    MaxRSServer server(*env, *handle, server_options);
    auto served = server.Submit(150, 300);
    ASSERT_TRUE(served.ok());
    ExpectBitIdentical(*served, *one_shot);
  }
}

TEST(ServeTest, CacheKeyCanonicalizesSemanticallyEqualDimensions) {
  // Regression: the LRU key used raw (w, h) bit patterns, so semantically
  // equal dimensions with distinct representations (-0.0 vs +0.0, NaN
  // payloads) would miss each other. The canonicalizer folds them.
  EXPECT_EQ(CanonicalDimensionBits(-0.0), CanonicalDimensionBits(0.0));
  EXPECT_EQ(CanonicalDimensionBits(std::nan("0x123")),
            CanonicalDimensionBits(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(CanonicalDimensionBits(-std::numeric_limits<double>::quiet_NaN()),
            CanonicalDimensionBits(std::numeric_limits<double>::quiet_NaN()));
  // Ordinary values keep their exact bit patterns — 1.0 and the next
  // representable double above it stay distinct keys.
  EXPECT_NE(CanonicalDimensionBits(1.0),
            CanonicalDimensionBits(std::nextafter(1.0, 2.0)));

  // Submit-level behavior: neither -0.0 nor NaN passes validation, so no
  // canonicalized key ever reaches the cache — and the rejection performs
  // zero I/O.
  auto env = MakeEnvWithDataset(nullptr, /*n=*/100);
  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(1));
  ASSERT_TRUE(handle.ok());
  MaxRSServer server(*env, *handle, ServerOptions(1));
  const IoStatsSnapshot before = env->stats().Snapshot();
  EXPECT_EQ(server.Submit(-0.0, 10.0).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(server.Submit(10.0, std::nan("")).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ((env->stats().Snapshot() - before).total(), 0u);
  EXPECT_EQ(server.counters().submitted, 0u);
}

TEST(ServeTest, CacheAdmissionRefusesRectsCoveringMostOfTheExtent) {
  std::vector<SpatialObject> objects;
  auto env = MakeEnvWithDataset(&objects);
  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(2));
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(handle->has_bounds());
  const double extent_w = handle->bounds().width();
  const double extent_h = handle->bounds().height();
  ASSERT_GT(extent_w, 0.0);
  ASSERT_GT(extent_h, 0.0);

  MaxRSServer server(*env, *handle, ServerOptions(1));  // fraction = 0.5

  // 0.9 x 0.9 of the extent covers 81% > 50%: executed on every submit,
  // never cached, counted as an admission reject.
  const double huge_w = extent_w * 0.9, huge_h = extent_h * 0.9;
  ASSERT_TRUE(server.Submit(huge_w, huge_h).ok());
  ASSERT_TRUE(server.Submit(huge_w, huge_h).ok());
  ServerCounters counters = server.counters();
  EXPECT_EQ(counters.executed, 2u);
  EXPECT_EQ(counters.cache_hits, 0u);
  EXPECT_EQ(counters.cache_rejects, 2u);

  // 0.6 x 0.6 covers 36% <= 50%: cached as usual.
  const double ok_w = extent_w * 0.6, ok_h = extent_h * 0.6;
  ASSERT_TRUE(server.Submit(ok_w, ok_h).ok());
  ASSERT_TRUE(server.Submit(ok_w, ok_h).ok());
  counters = server.counters();
  EXPECT_EQ(counters.executed, 3u);
  EXPECT_EQ(counters.cache_hits, 1u);
  EXPECT_EQ(counters.cache_rejects, 2u);

  // Raising the threshold to 1.0 admits the huge rect too.
  MaxRSServerOptions admit_all = ServerOptions(1);
  admit_all.cache_max_extent_fraction = 1.0;
  MaxRSServer permissive(*env, *handle, admit_all);
  ASSERT_TRUE(permissive.Submit(huge_w, huge_h).ok());
  ASSERT_TRUE(permissive.Submit(huge_w, huge_h).ok());
  counters = permissive.counters();
  EXPECT_EQ(counters.executed, 1u);
  EXPECT_EQ(counters.cache_hits, 1u);
  EXPECT_EQ(counters.cache_rejects, 0u);
}

TEST(ServeTest, ColdQuerySkipsTheSortPhase) {
  auto env = MakeEnvWithDataset(nullptr);
  auto one_shot = RunExactMaxRS(*env, kDatasetFile, OneShotOptions(200, 200));
  ASSERT_TRUE(one_shot.ok());

  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(4));
  ASSERT_TRUE(handle.ok());
  MaxRSServer server(*env, *handle, ServerOptions(1));

  const IoStatsSnapshot before = env->stats().Snapshot();
  ASSERT_TRUE(server.Submit(200, 200).ok());
  const uint64_t cold_io = (env->stats().Snapshot() - before).total();
  // The per-query pipeline replaces the transform + two external sorts with
  // linear derivation passes, so a cold query costs strictly less than the
  // one-shot run of the same rect on the same budget.
  EXPECT_LT(cold_io, one_shot->stats.io.total());
  EXPECT_GT(cold_io, 0u);
}

TEST(ServeTest, WarmQueryPerformsZeroBlockTransfers) {
  auto env = MakeEnvWithDataset(nullptr);
  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(4));
  ASSERT_TRUE(handle.ok());
  MaxRSServer server(*env, *handle, ServerOptions(2));

  auto cold = server.Submit(300, 150);
  ASSERT_TRUE(cold.ok());
  const IoStatsSnapshot before = env->stats().Snapshot();
  auto warm = server.Submit(300, 150);
  ASSERT_TRUE(warm.ok());
  const IoStatsSnapshot delta = env->stats().Snapshot() - before;
  // Zero transfers of any kind — a fortiori zero sort-phase I/O.
  EXPECT_EQ(delta.blocks_read, 0u);
  EXPECT_EQ(delta.blocks_written, 0u);
  ExpectBitIdentical(*warm, *cold);

  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.submitted, 2u);
  EXPECT_EQ(counters.cache_hits, 1u);
  EXPECT_EQ(counters.executed, 1u);
}

TEST(ServeTest, BufferPoolCutsBlocksWithoutChangingAnswers) {
  // buffer_pool_bytes routes the dataset's shard-file reads through one
  // shared BufferPool: answers must not move, a re-read shard block is a
  // pool hit instead of a counted transfer, and with 0 bytes there is no
  // pool at all.
  auto env = MakeEnvWithDataset(nullptr);
  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(4));
  ASSERT_TRUE(handle.ok());
  const double kRects[][2] = {{200, 200}, {300, 150}, {90, 400}, {500, 500}};

  auto run = [&](size_t pool_bytes, std::vector<MaxRSResult>* results,
                 BufferPoolStats* pool_stats) {
    MaxRSServerOptions options = ServerOptions(1);
    options.cache_entries = 0;  // every submit executes
    options.buffer_pool_bytes = pool_bytes;
    MaxRSServer server(*env, *handle, options);
    const IoStatsSnapshot before = env->stats().Snapshot();
    for (const auto& rect : kRects) {
      auto r = server.Submit(rect[0], rect[1]);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      results->push_back(r.ok() ? *r : MaxRSResult{});
    }
    *pool_stats = server.pool_stats();
    return (env->stats().Snapshot() - before).total();
  };

  std::vector<MaxRSResult> unpooled, pooled;
  BufferPoolStats unpooled_stats, pooled_stats;
  const uint64_t unpooled_io = run(0, &unpooled, &unpooled_stats);
  const uint64_t pooled_io = run(4 << 20, &pooled, &pooled_stats);

  ASSERT_EQ(pooled.size(), unpooled.size());
  for (size_t q = 0; q < pooled.size(); ++q) {
    ExpectBitIdentical(pooled[q], unpooled[q]);
  }
  EXPECT_LT(pooled_io, unpooled_io);
  EXPECT_GT(pooled_stats.hits, 0u);
  EXPECT_EQ(unpooled_stats.hits, 0u);
  EXPECT_EQ(unpooled_stats.misses, 0u);
  EXPECT_EQ(unpooled_stats.evictions, 0u);
  EXPECT_EQ(unpooled_stats.writebacks, 0u);
}

TEST(ServeTest, LruEvictsLeastRecentlyUsedRect) {
  auto env = MakeEnvWithDataset(nullptr);
  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(2));
  ASSERT_TRUE(handle.ok());
  MaxRSServerOptions options = ServerOptions(1);
  options.cache_entries = 1;
  MaxRSServer server(*env, *handle, options);

  ASSERT_TRUE(server.Submit(100, 100).ok());  // executed, cached
  ASSERT_TRUE(server.Submit(200, 200).ok());  // executed, evicts (100,100)
  ASSERT_TRUE(server.Submit(100, 100).ok());  // executed again (evicted)
  ASSERT_TRUE(server.Submit(100, 100).ok());  // hit
  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.executed, 3u);
  EXPECT_EQ(counters.cache_hits, 1u);
}

TEST(ServeTest, EightInFlightQueriesAreDeterministic) {
  constexpr size_t kClients = 8;
  const double kRects[kClients][2] = {{50, 50},   {100, 100}, {150, 75},
                                      {75, 150},  {200, 200}, {250, 50},
                                      {50, 250},  {333, 333}};

  // Expected answers from the serial one-shot pipeline.
  std::vector<MaxRSResult> expected(kClients);
  {
    auto env = MakeEnvWithDataset(nullptr);
    for (size_t i = 0; i < kClients; ++i) {
      auto r = RunExactMaxRS(*env, kDatasetFile,
                             OneShotOptions(kRects[i][0], kRects[i][1]));
      ASSERT_TRUE(r.ok());
      expected[i] = *r;
    }
  }

  // Two rounds so cache warmth changes, results must not.
  auto env = MakeEnvWithDataset(nullptr);
  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(4));
  ASSERT_TRUE(handle.ok());
  MaxRSServer server(*env, *handle, ServerOptions(8));
  for (int round = 0; round < 2; ++round) {
    std::vector<MaxRSResult> got(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (size_t i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        auto r = server.Submit(kRects[i][0], kRects[i][1]);
        ASSERT_TRUE(r.ok());
        got[i] = *r;
      });
    }
    for (std::thread& t : clients) t.join();
    for (size_t i = 0; i < kClients; ++i) {
      ExpectBitIdentical(got[i], expected[i]);
    }
  }
  EXPECT_EQ(server.counters().submitted, 2 * kClients);
}

TEST(ServeTest, EmptyDatasetAnswersLikeOneShot) {
  auto env = NewMemEnv(4096);
  ASSERT_TRUE(WriteDataset(*env, kDatasetFile, {}).ok());
  auto one_shot = RunExactMaxRS(*env, kDatasetFile, OneShotOptions(100, 100));
  ASSERT_TRUE(one_shot.ok());

  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(0));
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  ASSERT_EQ(handle->shards().size(), 1u);
  MaxRSServer server(*env, *handle, ServerOptions(1));
  auto served = server.Submit(100, 100);
  ASSERT_TRUE(served.ok());
  ExpectBitIdentical(*served, *one_shot);
  EXPECT_EQ(served->total_weight, 0.0);
}

TEST(ServeTest, RejectsInvalidDimensionsAndShutDownServer) {
  auto env = MakeEnvWithDataset(nullptr, /*n=*/100);
  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(1));
  ASSERT_TRUE(handle.ok());
  MaxRSServer server(*env, *handle, ServerOptions(1));

  EXPECT_EQ(server.Submit(0.0, 10.0).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(server.Submit(10.0, -1.0).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(server.Submit(kInf, 10.0).status().code(),
            Status::Code::kInvalidArgument);

  ASSERT_TRUE(server.Submit(10, 10).ok());
  server.Shutdown();
  // Cached results stay servable; fresh rects are refused.
  EXPECT_TRUE(server.Submit(10, 10).ok());
  EXPECT_EQ(server.Submit(20, 20).status().code(),
            Status::Code::kNotSupported);

  // A bad configuration fails fast on every Submit, with zero I/O paid.
  MaxRSServerOptions bad = ServerOptions(1);
  bad.fanout = 1;
  MaxRSServer bad_server(*env, *handle, bad);
  const IoStatsSnapshot before = env->stats().Snapshot();
  EXPECT_EQ(bad_server.Submit(10, 10).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ((env->stats().Snapshot() - before).total(), 0u);
}

TEST(ServeTest, DedupFollowerHonorsItsOwnDeadline) {
  // Regression: a follower attached to an in-flight leader waited on the
  // leader's future unboundedly, inheriting the LEADER's deadline clock —
  // a follower could block far past its own budget behind a slow leader.
  // The follower now bounds its wait by its own deadline (measured from
  // its Submit) and gives up with kDeadlineExceeded, without touching the
  // leader's CancelToken.
  std::vector<SpatialObject> objects;
  auto base = MakeEnvWithDataset(&objects, /*n=*/400);
  auto handle = DatasetHandle::Ingest(*base, kDatasetFile, IngestOptions(2));
  ASSERT_TRUE(handle.ok());

  GatedEnv env(*base);
  MaxRSServerOptions options = ServerOptions(1);
  options.deadline_ms = 300;
  options.cache_entries = 0;
  MaxRSServer server(env, *handle, options);

  env.gate().Close();
  // Watchdog: even if a regression makes the follower wait for the leader
  // instead of its own deadline, the gate eventually opens and the test
  // fails on assertions instead of hanging.
  std::atomic<bool> gate_released{false};
  std::thread watchdog([&] {
    for (int i = 0; i < 100 && !gate_released.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    gate_released.store(true);
    env.gate().Open();
  });

  // Pin the only worker on a query parked at the read gate.
  std::thread blocker([&] { server.Submit(60, 60); });
  while (env.gate().arrived() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The leader for the deduplicated rect sits in the queue behind it.
  Result<MaxRSResult> leader_result = Status::Internal("leader not run");
  std::thread leader([&] { leader_result = server.Submit(150, 90); });
  while (server.queue_depth() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The follower attaches to the leader's pending slot and must give up
  // at ITS deadline — while the leader is still queued, the worker still
  // parked, and the gate still closed.
  Result<MaxRSResult> follower = server.Submit(150, 90);
  EXPECT_FALSE(gate_released.load());  // returned before the watchdog fired
  EXPECT_EQ(follower.status().code(), Status::Code::kDeadlineExceeded);
  ServerCounters counters = server.counters();
  EXPECT_EQ(counters.dedup_hits, 1u);
  EXPECT_GE(counters.deadlines, 1u);

  gate_released.store(true);
  env.gate().Open();
  watchdog.join();
  blocker.join();
  leader.join();

  // The follower's timeout cancelled nothing: the leader ran to its own
  // conclusion (here its own deadline — its clock started even earlier),
  // and the server stays fully serviceable afterwards.
  EXPECT_EQ(leader_result.status().code(), Status::Code::kDeadlineExceeded);
  auto after = server.Submit(70, 70);
  EXPECT_TRUE(after.ok()) << after.status().ToString();
}

TEST(ServeTest, CacheAdmissionDecidesOnTheCanonicalKey) {
  // Regression companion to CacheKeyCanonicalizesSemanticallyEqualDimensions:
  // the admission check used the raw submitted dimensions while the LRU key
  // used canonical bits, so two bit-distinct spellings of one dimension
  // could disagree about cacheability. Admission now evaluates the
  // canonical key itself — every spelling that folds to the same key gets
  // the same verdict.
  std::vector<SpatialObject> objects;
  auto env = MakeEnvWithDataset(&objects);
  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(2));
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(handle->has_bounds());
  const double extent_w = handle->bounds().width();
  const double extent_h = handle->bounds().height();

  MaxRSServer server(*env, *handle, ServerOptions(1));  // fraction = 0.5

  EXPECT_EQ(server.AdmitsToCache(-0.0, 10.0), server.AdmitsToCache(0.0, 10.0));
  EXPECT_EQ(server.AdmitsToCache(10.0, -0.0), server.AdmitsToCache(10.0, 0.0));
  const double canonical_nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(server.AdmitsToCache(std::nan("0x123"), 10.0),
            server.AdmitsToCache(canonical_nan, 10.0));
  EXPECT_EQ(server.AdmitsToCache(-canonical_nan, 10.0),
            server.AdmitsToCache(canonical_nan, 10.0));

  // The policy itself is unchanged: modest rects are admitted, rects
  // covering most of the extent are refused (matches the Submit-level
  // behavior pinned by CacheAdmissionRefusesRectsCoveringMostOfTheExtent).
  EXPECT_TRUE(server.AdmitsToCache(extent_w * 0.6, extent_h * 0.6));
  EXPECT_FALSE(server.AdmitsToCache(extent_w * 0.9, extent_h * 0.9));
}

TEST(ServeTest, QueueDepthStaysConsistentWithCounters) {
  // Regression: queue_depth() read the queue's own size outside the
  // counters mutex, so a sampler could observe a pushed request before
  // the paired submitted++ and report queue_depth > submitted. Both
  // snapshots now move under the counters mutex; depth can only
  // under-report transiently (the safe direction).
  std::vector<SpatialObject> objects;
  auto base = MakeEnvWithDataset(&objects, /*n=*/400);
  auto handle = DatasetHandle::Ingest(*base, kDatasetFile, IngestOptions(2));
  ASSERT_TRUE(handle.ok());

  // Deterministic part: worker parked at the gate, one request queued.
  {
    GatedEnv env(*base);
    MaxRSServerOptions options = ServerOptions(1);
    options.cache_entries = 0;
    MaxRSServer server(env, *handle, options);
    EXPECT_EQ(server.queue_depth(), 0u);

    env.gate().Close();
    std::thread blocker([&] { server.Submit(60, 60); });
    while (env.gate().arrived() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::thread queued([&] { server.Submit(90, 90); });
    while (server.queue_depth() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const size_t depth = server.queue_depth();
    const ServerCounters counters = server.counters();
    EXPECT_EQ(depth, 1u);
    EXPECT_LE(depth, counters.submitted - counters.executed);

    env.gate().Open();
    blocker.join();
    queued.join();
    EXPECT_EQ(server.queue_depth(), 0u);
  }

  // Racy part: hammer Submit from several threads while a sampler checks
  // the invariant. Depth is read FIRST; submitted is monotone, so any
  // post-fix interleaving satisfies depth <= submitted.
  {
    MaxRSServerOptions options = ServerOptions(2);
    options.cache_entries = 0;
    MaxRSServer server(*base, *handle, options);
    std::atomic<bool> done{false};
    std::thread sampler([&] {
      while (!done.load()) {
        const size_t depth = server.queue_depth();
        const ServerCounters counters = server.counters();
        EXPECT_LE(depth, counters.submitted);
      }
    });
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
      clients.emplace_back([&, t] {
        for (int i = 0; i < 25; ++i) {
          ASSERT_TRUE(server.Submit(20 + t * 25 + i, 35 + t * 25 + i).ok());
        }
      });
    }
    for (std::thread& t : clients) t.join();
    done.store(true);
    sampler.join();
    EXPECT_EQ(server.queue_depth(), 0u);
    EXPECT_EQ(server.counters().submitted, 100u);
  }
}

// --- The structured query API: Submit(QuerySpec) / SubmitAsync ---

TEST(ServeTest, QuerySpecSubmitReportsServedFromAndPerQueryIo) {
  std::vector<SpatialObject> objects;
  auto env = MakeEnvWithDataset(&objects);
  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(2));
  ASSERT_TRUE(handle.ok());
  MaxRSServer server(*env, *handle, ServerOptions(2));

  QuerySpec spec;
  spec.width = 150;
  spec.height = 300;
  auto cold = server.Submit(spec);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->served_from, ServedFrom::kExecuted);
  EXPECT_GT(cold->io.total(), 0u);  // an execution really moved blocks
  EXPECT_GE(cold->batch_size, 1u);

  auto warm = server.Submit(spec);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->served_from, ServedFrom::kCache);
  EXPECT_EQ(warm->io.total(), 0u);  // a cache hit owes the Env nothing
  ExpectBitIdentical(cold->result, warm->result);

  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.submitted, 2u);
  EXPECT_EQ(counters.executed, 1u);
  EXPECT_EQ(counters.cache_hits, 1u);
}

TEST(ServeTest, LegacySubmitDelegatesToTheStructuredPath) {
  std::vector<SpatialObject> objects;
  auto env = MakeEnvWithDataset(&objects);
  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(2));
  ASSERT_TRUE(handle.ok());
  MaxRSServer server(*env, *handle, ServerOptions(2));

  QuerySpec spec;
  spec.width = 120;
  spec.height = 260;
  auto structured = server.Submit(spec);
  ASSERT_TRUE(structured.ok());
  auto legacy = server.Submit(120.0, 260.0);
  ASSERT_TRUE(legacy.ok());
  ExpectBitIdentical(structured->result, legacy.value());
  // The wrapper went through the same counters: one executed, one cached.
  EXPECT_EQ(server.counters().submitted, 2u);
  EXPECT_EQ(server.counters().cache_hits, 1u);
}

TEST(ServeTest, SubmitAsyncCompletesAndMatchesBlockingSubmit) {
  std::vector<SpatialObject> objects;
  auto env = MakeEnvWithDataset(&objects);
  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(2));
  ASSERT_TRUE(handle.ok());
  MaxRSServer server(*env, *handle, ServerOptions(2));

  const double rects[][2] = {{100, 100}, {60, 340}, {250, 40}, {100, 100}};
  std::vector<std::future<Result<QueryResponse>>> futures;
  for (const auto& rect : rects) {
    QuerySpec spec;
    spec.width = rect[0];
    spec.height = rect[1];
    futures.push_back(server.SubmitAsync(spec));
  }
  std::vector<MaxRSResult> async_results;
  for (auto& future : futures) {
    Result<QueryResponse> response = future.get();  // every future completes
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    async_results.push_back(response->result);
  }
  for (size_t i = 0; i < 4; ++i) {
    QuerySpec spec;
    spec.width = rects[i][0];
    spec.height = rects[i][1];
    auto blocking = server.Submit(spec);
    ASSERT_TRUE(blocking.ok());
    ExpectBitIdentical(async_results[i], blocking->result);
  }
  // The duplicate rect was deduplicated or cached, never run twice.
  EXPECT_EQ(server.counters().executed, 3u);

  // A spec rejection surfaces on an already-ready future, not a throw.
  QuerySpec bad;
  bad.width = -1;
  bad.height = 10;
  auto rejected = server.SubmitAsync(bad);
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(rejected.get().status().code(), Status::Code::kInvalidArgument);

  // After Shutdown every future still completes — with kNotSupported.
  server.Shutdown();
  QuerySpec late;
  late.width = 77;
  late.height = 77;
  auto refused = server.SubmitAsync(late);
  ASSERT_EQ(refused.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(refused.get().status().code(), Status::Code::kNotSupported);
}

TEST(ServeTest, QuerySpecValidationIsTheSingleGate) {
  std::vector<SpatialObject> objects;
  auto env = MakeEnvWithDataset(&objects);
  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(2));
  ASSERT_TRUE(handle.ok());
  MaxRSServer server(*env, *handle, ServerOptions(1));

  const IoStatsSnapshot before = env->stats().Snapshot();
  QuerySpec bad_dims;
  bad_dims.width = 0.0;
  bad_dims.height = 10.0;
  EXPECT_EQ(server.Submit(bad_dims).status().code(),
            Status::Code::kInvalidArgument);
  QuerySpec bad_deadline;
  bad_deadline.width = 10;
  bad_deadline.height = 10;
  bad_deadline.deadline_ms = -1;
  EXPECT_EQ(server.Submit(bad_deadline).status().code(),
            Status::Code::kInvalidArgument);
  // Rejections never reached the execution path.
  EXPECT_EQ((env->stats().Snapshot() - before).total(), 0u);
  EXPECT_EQ(server.counters().submitted, 0u);
}

TEST(ServeTest, PerQueryModeOverridesAreBitIdenticalToDefaults) {
  // The soundness property behind the (w,h)-only cache key: a pruning
  // override changes the execution strategy, never the answer.
  // Weight-skewed data (the pruning_equivalence_test recipe: every third
  // point in a heavy strip) at 16 shards guarantees the kAuto baseline
  // genuinely prunes, so the pruning=off override has something to turn
  // off.
  auto env = NewMemEnv(4096);
  std::vector<SpatialObject> objects =
      testing::RandomIntObjects(2816, /*extent=*/6000, /*seed=*/19);
  for (size_t i = 0; i < objects.size(); i += 3) {
    objects[i].x = 4000.0 + std::floor(objects[i].x / 3.0);
    objects[i].y = std::floor(objects[i].y / 20.0);
    objects[i].w = 50.0;
  }
  ASSERT_TRUE(WriteDataset(*env, kDatasetFile, objects).ok());
  DatasetHandleOptions ingest;
  ingest.shard_count = 16;
  ingest.memory_bytes = 512 * 1024;
  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, ingest);
  ASSERT_TRUE(handle.ok());
  MaxRSServerOptions options = ServerOptions(2);
  options.cache_entries = 0;  // force a genuine execution per submit
  MaxRSServer server(*env, *handle, options);

  QuerySpec defaults;
  defaults.width = 200;
  defaults.height = 200;
  auto baseline = server.Submit(defaults);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline->served_from, ServedFrom::kExecuted);

  const uint64_t unpruned_before = server.counters().unpruned;
  QuerySpec unpruned = defaults;
  unpruned.pruning = ServePruningMode::kOff;
  auto via_unpruned = server.Submit(unpruned);
  ASSERT_TRUE(via_unpruned.ok());
  ExpectBitIdentical(baseline->result, via_unpruned->result);
  // The override reached the execution layer: the off-run's own I/O
  // attribution shows zero shard-skipping while the kAuto baseline pruned.
  EXPECT_EQ(via_unpruned->io.shards_pruned + via_unpruned->io.bound_skips, 0u);
  EXPECT_GT(baseline->io.shards_pruned + baseline->io.bound_skips, 0u);
  // A deliberate pruning=off is a choice, not a degradation: the kAuto
  // fallback counter must not move.
  EXPECT_EQ(server.counters().unpruned, unpruned_before);
}

TEST(ServeTest, DeadlineOverrideBoundsAFollowerWithUnboundedDefaults) {
  // options.deadline_ms = 0 (no server-wide deadline); the per-query
  // override alone must bound the dedup follower's wait.
  std::vector<SpatialObject> objects;
  auto base = MakeEnvWithDataset(&objects, /*n=*/400);
  auto handle = DatasetHandle::Ingest(*base, kDatasetFile, IngestOptions(2));
  ASSERT_TRUE(handle.ok());

  GatedEnv env(*base);
  MaxRSServerOptions options = ServerOptions(1);
  options.cache_entries = 0;
  MaxRSServer server(env, *handle, options);

  env.gate().Close();
  std::atomic<bool> gate_released{false};
  std::thread watchdog([&] {
    for (int i = 0; i < 100 && !gate_released.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    gate_released.store(true);
    env.gate().Open();
  });

  // Pin the only worker, then park a leader for the deduplicated rect in
  // the queue behind it.
  std::thread blocker([&] { server.Submit(60, 60); });
  while (env.gate().arrived() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Result<MaxRSResult> leader_result = Status::Internal("leader not run");
  std::thread leader([&] { leader_result = server.Submit(150, 90); });
  while (server.queue_depth() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  QuerySpec spec;
  spec.width = 150;
  spec.height = 90;
  spec.deadline_ms = 150;
  auto follower = server.Submit(spec);
  EXPECT_FALSE(gate_released.load());  // returned before the watchdog fired
  EXPECT_EQ(follower.status().code(), Status::Code::kDeadlineExceeded);
  EXPECT_EQ(server.counters().dedup_hits, 1u);
  EXPECT_GE(server.counters().deadlines, 1u);

  gate_released.store(true);
  env.gate().Open();
  watchdog.join();
  blocker.join();
  leader.join();

  // The follower's expiry cancelled nothing: with no deadline of its own
  // the leader ran to completion once the gate opened.
  ASSERT_TRUE(leader_result.ok()) << leader_result.status().ToString();
}

}  // namespace
}  // namespace maxrs
