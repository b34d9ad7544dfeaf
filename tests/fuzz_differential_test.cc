// Differential fuzzing: many randomized configurations, each checking that
// every implementation of the same problem agrees. Configurations are
// generated deterministically from the fuzz index so failures reproduce.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "baseline/baseline.h"
#include "core/brute_force.h"
#include "core/exact_maxrs.h"
#include "datagen/dataset_io.h"
#include "io/env.h"
#include "serve/dataset_handle.h"
#include "serve/maxrs_server.h"
#include "test_util.h"
#include "util/rng.h"

namespace maxrs {
namespace {

struct FuzzConfig {
  size_t n;
  uint64_t extent;
  double rect_w;
  double rect_h;
  bool weights;
  size_t memory_bytes;
  size_t fanout;
  uint64_t base_max;
  uint64_t data_seed;
};

FuzzConfig MakeConfig(uint64_t index) {
  Rng rng(0xF0220000 + index);
  FuzzConfig c;
  c.n = 20 + rng.UniformU64(280);
  c.extent = 8 + rng.UniformU64(400);
  // Rect sizes: even integers, occasionally huge relative to the domain.
  c.rect_w = 2.0 * static_cast<double>(1 + rng.UniformU64(
                       std::max<uint64_t>(2, c.extent / 3)));
  c.rect_h = 2.0 * static_cast<double>(1 + rng.UniformU64(
                       std::max<uint64_t>(2, c.extent / 3)));
  c.weights = rng.NextDouble() < 0.5;
  c.memory_bytes = (4 + rng.UniformU64(28)) << 10;
  c.fanout = 2 + rng.UniformU64(7);
  c.base_max = 4 + rng.UniformU64(60);
  c.data_seed = rng.NextU64();
  return c;
}

// Runs every implementation on `objects` and asserts they agree with the
// brute-force oracle. `tag` names the failing configuration in diagnostics.
void CheckAllImplementationsAgree(const std::vector<SpatialObject>& objects,
                                  const FuzzConfig& c, const std::string& tag) {
  // Ground truth.
  const BruteForceResult oracle = BruteForceMaxRS(objects, c.rect_w, c.rect_h);

  // In-memory sweep.
  const MaxRSResult mem = ExactMaxRSInMemory(objects, c.rect_w, c.rect_h);
  ASSERT_EQ(mem.total_weight, oracle.total_weight)
      << "in-memory sweep diverged, config " << tag;

  // External pipeline under the fuzzed memory/fan-out knobs.
  auto env = NewMemEnv(512);
  MaxRSOptions options;
  options.rect_width = c.rect_w;
  options.rect_height = c.rect_h;
  options.memory_bytes = c.memory_bytes;
  options.fanout = c.fanout;
  options.base_case_max_pieces = c.base_max;
  auto external = RunExactMaxRS(*env, objects, options);
  ASSERT_TRUE(external.ok()) << external.status().ToString();
  ASSERT_EQ(external->total_weight, oracle.total_weight)
      << "external pipeline diverged, config " << tag
      << " (n=" << c.n << " extent=" << c.extent << " rect=" << c.rect_w << "x"
      << c.rect_h << " fanout=" << c.fanout << " base=" << c.base_max << ")";
  // Witness realizes the optimum.
  ASSERT_EQ(CoveredWeight(objects,
                          Rect::Centered(external->location, c.rect_w, c.rect_h)),
            oracle.total_weight)
      << "external witness wrong, config " << tag;

  // Streaming division: the same recursion fed through channels instead of
  // materialized part files, once with a cap small enough that every
  // division spills mid-stream and once with the pure in-memory hand-off.
  for (size_t cap : {size_t{256}, size_t{1} << 20}) {
    MaxRSOptions streaming = options;
    streaming.streaming_division = true;
    streaming.stream_channel_bytes = cap;
    auto streamed = RunExactMaxRS(*env, objects, streaming);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    ASSERT_EQ(streamed->total_weight, oracle.total_weight)
        << "streaming division diverged, config " << tag << " (cap " << cap
        << ")";
    ASSERT_EQ(streamed->location, external->location)
        << "streaming division witness moved, config " << tag << " (cap "
        << cap << ")";
  }

  // Baselines (cheap enough at fuzz sizes).
  ASSERT_TRUE(WriteDataset(*env, "fuzz_data", objects).ok());
  BaselineOptions baseline_options;
  baseline_options.rect_width = c.rect_w;
  baseline_options.rect_height = c.rect_h;
  baseline_options.memory_bytes = c.memory_bytes;
  auto naive = RunNaivePlaneSweep(*env, "fuzz_data", baseline_options);
  ASSERT_TRUE(naive.ok());
  ASSERT_EQ(naive->total_weight, oracle.total_weight)
      << "naive diverged, config " << tag;
  auto asb = RunASBTreeSweep(*env, "fuzz_data", baseline_options);
  ASSERT_TRUE(asb.ok());
  ASSERT_EQ(asb->total_weight, oracle.total_weight)
      << "aSB-tree diverged, config " << tag;

  // Prepared/sharded serve path: per-shard solve with a cross-shard
  // MergeSweep, under the same fuzzed memory/fan-out/base-case knobs as
  // the external pipeline — a completely different division tree (the
  // shards are the top-level cut), so agreement with the oracle is a
  // genuine differential. The shard count varies with the data seed and
  // is clamped by the ingest budget's stream-block cap.
  {
    DatasetHandleOptions ingest_options;
    ingest_options.shard_count = 1 + c.data_seed % 7;
    ingest_options.memory_bytes = c.memory_bytes;
    ingest_options.prefix = "fuzz_sharded";
    auto handle = DatasetHandle::Ingest(*env, "fuzz_data", ingest_options);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    // Three serve legs of the same per-shard solve: streaming channels
    // (the default) and a cap of zero so every routed record takes the
    // spill path, both with index pruning active (kAuto, the default),
    // plus pruning forced off, so pruned and un-pruned serving are fuzzed
    // against the same oracle on every configuration.
    struct ServeLeg {
      const char* name;
      size_t channel_bytes;
      ServePruningMode pruning;
    };
    const ServeLeg legs[] = {
        {"streaming", 1 << 20, ServePruningMode::kAuto},
        {"streaming/spill", 0, ServePruningMode::kAuto},
        {"streaming/no-prune", 1 << 20, ServePruningMode::kOff},
    };
    for (const ServeLeg& leg : legs) {
      MaxRSServerOptions server_options;
      server_options.memory_bytes = c.memory_bytes;
      server_options.fanout = c.fanout;
      server_options.base_case_max_pieces = c.base_max;
      server_options.solve_mode = ServeSolveMode::kPerShard;
      server_options.stream_channel_bytes = leg.channel_bytes;
      server_options.pruning_mode = leg.pruning;
      MaxRSServer server(*env, *handle, server_options);
      auto served = server.Submit(c.rect_w, c.rect_h);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      ASSERT_EQ(served->total_weight, oracle.total_weight)
          << "sharded serve (" << leg.name << ") diverged, config " << tag
          << " (" << handle->shards().size() << " shards)";
      ASSERT_EQ(CoveredWeight(objects, Rect::Centered(served->location,
                                                      c.rect_w, c.rect_h)),
                oracle.total_weight)
          << "sharded serve (" << leg.name << ") witness wrong, config "
          << tag;
    }
    ASSERT_TRUE(handle->Drop().ok());
  }
}

class MaxRSFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaxRSFuzzTest, AllImplementationsAgree) {
  const FuzzConfig c = MakeConfig(GetParam());
  auto objects = testing::RandomIntObjects(c.n, c.extent, c.data_seed, c.weights);
  CheckAllImplementationsAgree(objects, c,
                               "fuzz index " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Configs, MaxRSFuzzTest, ::testing::Range<uint64_t>(0, 40));

// ---------------------------------------------------------------------------
// Fixed-seed regression corpus.
//
// Each entry pins one configuration forever, so a differential failure found
// by fuzzing (or by hand) reproduces deterministically from its seed alone.
// The corpus deliberately stresses the two classic sweep edge cases:
//   - duplicate coordinates: a tiny extent plus a re-appended prefix forces
//     many objects onto identical points (coincident interval endpoints);
//   - zero-weight objects: every third object contributes w = 0, which must
//     not perturb any implementation's optimum.
// ---------------------------------------------------------------------------

std::vector<SpatialObject> MakeRegressionObjects(uint64_t seed, size_t n,
                                                 uint64_t extent) {
  auto objects = testing::RandomIntObjects(n, extent, seed, /*random_weights=*/true);
  for (size_t i = 2; i < n; i += 3) objects[i].w = 0.0;
  // Duplicate the first quarter verbatim: exact coordinate collisions.
  objects.reserve(n + n / 4);
  for (size_t i = 0; i < n / 4; ++i) objects.push_back(objects[i]);
  return objects;
}

struct RegressionCase {
  uint64_t seed;
  size_t n;
  uint64_t extent;
  double rect_w;
  double rect_h;
  size_t fanout;
  uint64_t base_max;
};

class MaxRSRegressionTest : public ::testing::TestWithParam<RegressionCase> {};

TEST_P(MaxRSRegressionTest, CorpusReproducesDeterministically) {
  const RegressionCase rc = GetParam();
  const auto objects = MakeRegressionObjects(rc.seed, rc.n, rc.extent);

  FuzzConfig c;
  c.n = objects.size();
  c.extent = rc.extent;
  c.rect_w = rc.rect_w;
  c.rect_h = rc.rect_h;
  c.weights = true;
  c.memory_bytes = 8 << 10;
  c.fanout = rc.fanout;
  c.base_max = rc.base_max;
  c.data_seed = rc.seed;
  CheckAllImplementationsAgree(objects, c,
                               "regression seed " + std::to_string(rc.seed));

  // The corpus only has value if it actually exercises the edge cases:
  // assert the generated dataset contains duplicates and zero weights.
  size_t zero_weight = 0;
  std::map<std::pair<double, double>, size_t> at;
  for (const auto& o : objects) {
    if (o.w == 0.0) ++zero_weight;
    ++at[{o.x, o.y}];
  }
  size_t duplicated_points = 0;
  for (const auto& [point, count] : at) {
    (void)point;
    if (count > 1) ++duplicated_points;
  }
  EXPECT_GE(zero_weight, objects.size() / 4) << "seed " << rc.seed;
  EXPECT_GE(duplicated_points, 5u) << "seed " << rc.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, MaxRSRegressionTest,
    ::testing::Values(
        // seed, n, extent, rect_w, rect_h, fanout, base_max
        RegressionCase{0xC0FFEE01, 120, 12, 4, 4, 2, 8},
        RegressionCase{0xC0FFEE02, 200, 16, 6, 2, 3, 16},
        RegressionCase{0xC0FFEE03, 80, 6, 2, 2, 5, 4},     // dense collisions
        RegressionCase{0xC0FFEE04, 256, 24, 10, 10, 2, 32},
        RegressionCase{0xC0FFEE05, 150, 10, 30, 30, 4, 8},  // rect covers all
        RegressionCase{0xC0FFEE06, 60, 4, 3, 5, 7, 6}));    // tiny domain

// ---------------------------------------------------------------------------
// Pruned-serving corpus.
//
// The generic fuzz data is near-uniform, so the aggregate-index bound
// rarely fires there (equal-count shards all look alike). This leg fuzzes
// the configurations pruning exists for: a heavy strip holds most of the
// mass and is wide in x relative to the rect, so slab-local tuples see it
// and whole background shards fall below the incumbent. Pruned (kAuto) and
// un-pruned (kOff) serving must agree bit-for-bit with the brute-force
// oracle on every draw, pruned I/O must never exceed un-pruned, and the
// sweep must actually prune somewhere or the corpus is vacuous.
// ---------------------------------------------------------------------------

TEST(MaxRSPrunedServeFuzzTest, PrunedAndUnprunedAgreeOnSkewedCorpus) {
  uint64_t total_pruned = 0;
  for (uint64_t index = 0; index < 8; ++index) {
    SCOPED_TRACE("pruned-serve index " + std::to_string(index));
    Rng rng(0xF0221000 + index);
    const size_t n = 600 + rng.UniformU64(600);
    const uint64_t extent = 4000 + rng.UniformU64(4000);
    const double rect_w = 2.0 * static_cast<double>(40 + rng.UniformU64(80));
    const double rect_h = 2.0 * static_cast<double>(40 + rng.UniformU64(80));
    const size_t shards = 8 + rng.UniformU64(17);

    // Heavy strip: two thirds of the points, weight 40, in the top third
    // of x and a rect-height band of y.
    auto objects = testing::RandomIntObjects(n, extent, rng.NextU64());
    const double strip_x = std::floor(2.0 * static_cast<double>(extent) / 3.0);
    for (size_t i = 0; i < objects.size(); ++i) {
      if (i % 3 == 0) continue;
      objects[i].x = strip_x + std::floor(objects[i].x / 3.0);
      objects[i].y = std::floor(objects[i].y / 4.0);
      objects[i].w = 40.0;
    }

    const BruteForceResult oracle = BruteForceMaxRS(objects, rect_w, rect_h);

    auto env = NewMemEnv(512);
    ASSERT_TRUE(WriteDataset(*env, "pruned_fuzz", objects).ok());
    DatasetHandleOptions ingest_options;
    ingest_options.shard_count = shards;
    ingest_options.memory_bytes = 32 << 10;
    ingest_options.prefix = "pruned_fuzz_ds";
    auto handle = DatasetHandle::Ingest(*env, "pruned_fuzz", ingest_options);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();

    uint64_t unpruned_io = 0;
    for (const ServePruningMode pruning :
         {ServePruningMode::kOff, ServePruningMode::kAuto}) {
      MaxRSServerOptions server_options;
      server_options.memory_bytes = 32 << 10;
      server_options.pruning_mode = pruning;
      MaxRSServer server(*env, *handle, server_options);
      auto served = server.Submit(rect_w, rect_h);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      ASSERT_EQ(served->total_weight, oracle.total_weight)
          << (pruning == ServePruningMode::kAuto ? "pruned" : "un-pruned")
          << " serving diverged (" << handle->shards().size() << " shards)";
      ASSERT_EQ(
          CoveredWeight(objects,
                        Rect::Centered(served->location, rect_w, rect_h)),
          oracle.total_weight)
          << "serve witness wrong";
      if (pruning == ServePruningMode::kOff) {
        unpruned_io = served->stats.io.total();
      } else {
        EXPECT_LE(served->stats.io.total(), unpruned_io)
            << "pruning must never add block transfers";
        total_pruned += served->stats.io.shards_pruned;
      }
    }
    ASSERT_TRUE(handle->Drop().ok());
  }
  EXPECT_GT(total_pruned, 0u)
      << "the skewed corpus never pruned a shard - the leg is vacuous";
}

}  // namespace
}  // namespace maxrs
