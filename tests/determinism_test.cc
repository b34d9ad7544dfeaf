// The parallel execution engine's contract: for any thread count, ExactMaxRS
// returns a bit-identical MaxRSResult (location, weight, region), and the
// engine only reschedules work — it never changes what is read or written,
// so the block-transfer counts match the serial engine too.
//
// The corpus reuses the fixed-seed regression recipe of
// fuzz_differential_test (duplicate coordinates + zero weights), the two
// classic sweep edge cases where a nondeterministic tie-break would first
// show up.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/exact_maxrs.h"
#include "io/env.h"
#include "test_util.h"

namespace maxrs {
namespace {

struct DeterminismCase {
  uint64_t seed;
  size_t n;
  uint64_t extent;
  double rect;
  size_t fanout;
  uint64_t base_max;
  // Golden serial-engine block transfers, captured at the introduction of
  // the parallel engine (PR 2). A change here means the serial I/O behavior
  // changed — acceptable only as a deliberate, explained decision.
  uint64_t golden_reads;
  uint64_t golden_writes;
};

std::vector<SpatialObject> MakeObjects(const DeterminismCase& c) {
  auto objects =
      testing::RandomIntObjects(c.n, c.extent, c.seed, /*random_weights=*/true);
  for (size_t i = 2; i < objects.size(); i += 3) objects[i].w = 0.0;
  objects.reserve(c.n + c.n / 4);
  for (size_t i = 0; i < c.n / 4; ++i) objects.push_back(objects[i]);
  return objects;
}

MaxRSOptions OptionsFor(const DeterminismCase& c, size_t num_threads) {
  MaxRSOptions options;
  options.rect_width = c.rect;
  options.rect_height = c.rect;
  options.memory_bytes = 8 << 10;
  options.fanout = c.fanout;
  options.base_case_max_pieces = c.base_max;
  options.num_threads = num_threads;
  return options;
}

MaxRSResult RunAt(const std::vector<SpatialObject>& objects,
                  const DeterminismCase& c, size_t num_threads) {
  auto env = NewMemEnv(512);
  auto result = RunExactMaxRS(*env, objects, OptionsFor(c, num_threads));
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *result : MaxRSResult{};
}

class DeterminismTest : public ::testing::TestWithParam<DeterminismCase> {};

TEST_P(DeterminismTest, ResultsBitIdenticalAcrossThreadCounts) {
  const DeterminismCase c = GetParam();
  const auto objects = MakeObjects(c);

  const MaxRSResult serial = RunAt(objects, c, 1);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    const MaxRSResult parallel = RunAt(objects, c, threads);
    const std::string tag =
        "seed " + std::to_string(c.seed) + " threads " + std::to_string(threads);
    // Bit-identical result: exact double comparison is the point.
    EXPECT_EQ(parallel.total_weight, serial.total_weight) << tag;
    EXPECT_EQ(parallel.location.x, serial.location.x) << tag;
    EXPECT_EQ(parallel.location.y, serial.location.y) << tag;
    EXPECT_EQ(parallel.region.x_lo, serial.region.x_lo) << tag;
    EXPECT_EQ(parallel.region.x_hi, serial.region.x_hi) << tag;
    EXPECT_EQ(parallel.region.y_lo, serial.region.y_lo) << tag;
    EXPECT_EQ(parallel.region.y_hi, serial.region.y_hi) << tag;
    // The schedule changes, the work does not: block transfers match.
    EXPECT_EQ(parallel.stats.io.blocks_read, serial.stats.io.blocks_read) << tag;
    EXPECT_EQ(parallel.stats.io.blocks_written, serial.stats.io.blocks_written)
        << tag;
    // Structural stats are schedule-independent too.
    EXPECT_EQ(parallel.stats.base_cases, serial.stats.base_cases) << tag;
    EXPECT_EQ(parallel.stats.merges, serial.stats.merges) << tag;
    EXPECT_EQ(parallel.stats.total_spans, serial.stats.total_spans) << tag;
  }
}

TEST_P(DeterminismTest, SerialEngineMatchesGoldenIoCounts) {
  // Pins the serial engine's block transfers to golden values, so an
  // accidental change to the num_threads=1 code path (which must remain the
  // exact pre-engine serial baseline) fails loudly. The corpus inputs are
  // fixed-seed, so these counts are stable by construction.
  const DeterminismCase c = GetParam();
  const MaxRSResult serial = RunAt(MakeObjects(c), c, 1);
  EXPECT_EQ(serial.stats.io.blocks_read, c.golden_reads)
      << "seed " << c.seed << ": serial read count drifted from baseline";
  EXPECT_EQ(serial.stats.io.blocks_written, c.golden_writes)
      << "seed " << c.seed << ": serial write count drifted from baseline";
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, DeterminismTest,
    ::testing::Values(
        // seed, n, extent, rect, fanout, base_max, golden r/w
        DeterminismCase{0xC0FFEE01, 120, 12, 4, 2, 8, 347, 364},
        DeterminismCase{0xC0FFEE02, 200, 16, 6, 3, 16, 487, 496},
        DeterminismCase{0xC0FFEE03, 80, 6, 2, 5, 4, 152, 168},  // dense collisions
        DeterminismCase{0xC0FFEE04, 256, 24, 10, 2, 32, 727, 715},
        DeterminismCase{0xC0FFEE05, 150, 10, 30, 4, 8, 442, 458},  // rect covers all
        DeterminismCase{0xC0FFEE06, 60, 4, 3, 7, 6, 127, 141}));   // tiny domain

}  // namespace
}  // namespace maxrs
