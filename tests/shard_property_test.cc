// Shard-count invariance property battery for the per-shard solve path
// (serve/maxrs_server.h, ServeSolveMode::kPerShard).
//
// The x-slab shards form the top-level division of the query, so changing
// the shard count changes the whole division tree — yet the answer must
// not move: every slab-file tuple carries the true max of its stratum and
// the leftmost maximal argmax interval, both pure functions of the piece
// multiset whenever weight sums are exact in double arithmetic (integer
// weights here). The battery checks bit-identical best-point/best-sum
// against the one-shot pipeline at shard counts {1, 2, 7, 16, 64} x worker
// counts {1, 2, 8}, and that the per-query I/O stays in the linear
// no-sort/no-global-merge class: a bounded envelope across shard counts,
// strictly below the sort-paying one-shot run, and ordered
// per-shard < global-merge on the same server (the acceptance criterion
// that the global piece merge is absent from the per-shard pipeline's I/O
// profile). The streaming equivalence matrix itself lives in
// streaming_equivalence_test.cc.
#include <algorithm>
#include <vector>

#include "core/exact_maxrs.h"
#include "datagen/dataset_io.h"
#include "gtest/gtest.h"
#include "io/env.h"
#include "serve/dataset_handle.h"
#include "serve/maxrs_server.h"
#include "test_util.h"

namespace maxrs {
namespace {

constexpr char kDatasetFile[] = "objects";
constexpr size_t kShardCounts[] = {1, 2, 7, 16, 64};
constexpr size_t kWorkerCounts[] = {1, 2, 8};
// Ingest budget: 64 shards need 65 in-flight stream blocks at ingest (one
// writer block per shard + the reader), comfortably inside 512KB / 4KB.
constexpr size_t kIngestMemoryBytes = 512 * 1024;
// Query budget: 64KB derives a ~1638-piece base case, so the one-shot
// reference and the global-merge mode actually divide at these
// cardinalities instead of shortcutting into the in-memory sweep.
constexpr size_t kQueryMemoryBytes = 64 * 1024;

std::unique_ptr<Env> MakeEnv(uint64_t seed, size_t n,
                             std::vector<SpatialObject>* out = nullptr) {
  auto env = NewMemEnv(4096);
  // Integer coordinates over a wide extent: enough distinct x values that
  // the equal-count cut realizes all 64 shards, and integer weights so
  // weight sums are exact under any division tree.
  std::vector<SpatialObject> objects = testing::RandomIntObjects(
      n, /*extent=*/6000, seed, /*random_weights=*/true);
  EXPECT_TRUE(WriteDataset(*env, kDatasetFile, objects).ok());
  if (out != nullptr) *out = objects;
  return env;
}

MaxRSOptions OneShotOptions(double w, double h) {
  MaxRSOptions options;
  options.rect_width = w;
  options.rect_height = h;
  options.memory_bytes = kQueryMemoryBytes;
  return options;
}

DatasetHandleOptions IngestOptions(size_t shards) {
  DatasetHandleOptions options;
  options.shard_count = shards;
  options.memory_bytes = kIngestMemoryBytes;
  return options;
}

MaxRSServerOptions ServerOptions(size_t workers, ServeSolveMode mode =
                                                     ServeSolveMode::kPerShard) {
  MaxRSServerOptions options;
  options.num_workers = workers;
  options.memory_bytes = kQueryMemoryBytes;
  options.solve_mode = mode;
  return options;
}

void ExpectBitIdentical(const MaxRSResult& a, const MaxRSResult& b) {
  EXPECT_EQ(a.total_weight, b.total_weight);
  EXPECT_EQ(a.location, b.location);
  EXPECT_EQ(a.region, b.region);
}

TEST(ShardPropertyTest, BitIdenticalAcrossShardAndWorkerCounts) {
  const double kRects[][2] = {{260, 140}, {800, 800}};
  // 2816 objects = 64 shards x ~44: the equal-count cut (which only
  // advances on x-value changes and absorbs the remainder into the last
  // shard) reliably realizes all 64 requested shards.
  constexpr size_t kN = 2816;
  for (uint64_t seed : {3u, 71u}) {
    // One-shot references on a fresh env per seed.
    std::vector<SpatialObject> objects;
    auto reference_env = MakeEnv(seed, kN, &objects);
    std::vector<MaxRSResult> reference;
    for (const auto& rect : kRects) {
      auto r = RunExactMaxRS(*reference_env, kDatasetFile,
                             OneShotOptions(rect[0], rect[1]));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      // The answer is a real cover weight, not just self-consistent.
      EXPECT_EQ(r->total_weight,
                CoveredWeight(objects, Rect::Centered(r->location, rect[0],
                                                      rect[1])));
      reference.push_back(*r);
    }

    for (size_t shards : kShardCounts) {
      auto env = MakeEnv(seed, kN);
      auto handle =
          DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(shards));
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      // The property is vacuous if the cut produced fewer shards.
      ASSERT_EQ(handle->shards().size(), shards);
      for (size_t workers : kWorkerCounts) {
        MaxRSServer server(*env, *handle, ServerOptions(workers));
        for (size_t q = 0; q < 2; ++q) {
          auto served = server.Submit(kRects[q][0], kRects[q][1]);
          ASSERT_TRUE(served.ok())
              << served.status().ToString() << " (seed " << seed << ", "
              << shards << " shards, " << workers << " workers)";
          ExpectBitIdentical(*served, reference[q]);
        }
      }
    }
  }
}

TEST(ShardPropertyTest, PerQueryIoStaysInTheLinearClass) {
  // 12000 objects: large enough that data volume (not per-file block
  // constants) carries the comparison, small enough for a unit test. The
  // 96KB query budget derives a ~2457-piece base case, so shard counts
  // >= 7 put every shard on the one-sweep path (the production shape:
  // shards sized to the memory budget) while the one-shot reference and
  // the 1-2 shard configs still divide.
  constexpr size_t kN = 12000;
  constexpr size_t kQueryMemory = 96 * 1024;
  const double kW = 300, kH = 200;
  auto one_shot_env = MakeEnv(5, kN);
  MaxRSOptions one_shot_options = OneShotOptions(kW, kH);
  one_shot_options.memory_bytes = kQueryMemory;
  auto one_shot = RunExactMaxRS(*one_shot_env, kDatasetFile, one_shot_options);
  ASSERT_TRUE(one_shot.ok());
  // The reference must be on the external path (it pays the sorts the
  // serve layer amortized away), or the comparison below is vacuous.
  ASSERT_GT(one_shot->stats.merges, 0u);

  std::vector<uint64_t> per_query_io;
  for (size_t shards : kShardCounts) {
    auto env = MakeEnv(5, kN);
    auto handle =
        DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(shards));
    ASSERT_TRUE(handle.ok());
    ASSERT_EQ(handle->shards().size(), shards);
    MaxRSServerOptions options = ServerOptions(1);
    options.memory_bytes = kQueryMemory;
    options.cache_entries = 0;  // every submit must pay its full pipeline
    MaxRSServer server(*env, *handle, options);

    const IoStatsSnapshot before = env->stats().Snapshot();
    ASSERT_TRUE(server.Submit(kW, kH).ok());
    const uint64_t io = (env->stats().Snapshot() - before).total();
    per_query_io.push_back(io);
    EXPECT_GT(io, 0u);

    // No sort phase and no global merge: when the shards fit the base
    // case, the per-query cost sits strictly below the one-shot run of
    // the same rect and budget, which pays the two external sorts plus
    // the root division pass. (At 1-2 shards the within-shard division
    // re-runs what sharding would have pre-paid, and at 64 shards the
    // ~190-object shards make per-file block constants dominate — those
    // configs are covered by the envelope below instead.)
    if (shards == 7 || shards == 16) {
      EXPECT_LT(io, one_shot->stats.io.total()) << shards << " shards";
    }
  }

  // Same complexity class at every shard count: a bounded number of
  // linear passes plus a per-shard file constant. The envelope — a small
  // multiple of the 1-shard cost plus a 70-block-per-shard allowance —
  // tolerates a division level shifting into or out of the shards as the
  // shard size crosses the base-case threshold (that moves one ~full-pass
  // term, bounded by the 3x factor) but fails on anything super-linear:
  // an accidental extra pass *per shard* would cost ~N/B = 115+ blocks
  // per shard, well past the allowance.
  const uint64_t base = per_query_io.front();  // shard count 1
  for (size_t i = 0; i < per_query_io.size(); ++i) {
    EXPECT_LE(per_query_io[i], 3 * base + 70 * kShardCounts[i])
        << kShardCounts[i] << " shards";
  }
}

TEST(ShardPropertyTest, PerQueryIoOrdersStreamingBelowGlobal) {
  // Acceptance ladder of the two per-query pipelines over one dataset,
  // handle, and budget — only the execution strategy differs, so the I/O
  // gap IS the work the cheaper pipeline skips:
  //
  //   streaming per-shard  <  global-merge:  the gap is the global k-way
  //     piece merge and the root division pass it feeds (routed records
  //     travel through in-memory channels, never through part files).
  //
  // The rect and budget put the global mode on the dividing path (12000
  // pieces over a ~1638-piece base case) while each of the 8 shards (1500
  // objects) solves in one in-memory sweep.
  constexpr size_t kN = 12000;
  const double kW = 420, kH = 260;
  auto env = MakeEnv(9, kN);
  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(8));
  ASSERT_TRUE(handle.ok());
  ASSERT_EQ(handle->shards().size(), 8u);

  struct Config {
    ServeSolveMode solve;
    const char* name;
  };
  const Config kConfigs[] = {
      {ServeSolveMode::kPerShard, "streaming"},
      {ServeSolveMode::kGlobalMerge, "global"},
  };
  uint64_t io_by_mode[2] = {0, 0};
  MaxRSResult results[2];
  for (int m = 0; m < 2; ++m) {
    MaxRSServerOptions options = ServerOptions(1, kConfigs[m].solve);
    options.cache_entries = 0;
    MaxRSServer server(*env, *handle, options);
    const IoStatsSnapshot before = env->stats().Snapshot();
    auto r = server.Submit(kW, kH);
    ASSERT_TRUE(r.ok()) << kConfigs[m].name << ": " << r.status().ToString();
    io_by_mode[m] = (env->stats().Snapshot() - before).total();
    results[m] = *r;
  }
  ExpectBitIdentical(results[0], results[1]);
  EXPECT_LT(io_by_mode[0], io_by_mode[1])
      << "per-shard must beat the global merge";
}

}  // namespace
}  // namespace maxrs
