#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "datagen/generators.h"
#include "util/rng.h"

namespace perfbench {
namespace {

// Rectangle sides are drawn uniformly from this range around the paper's
// default 1000 x 1000 query.
constexpr double kSideLo = 400.0;
constexpr double kSideHi = 1600.0;
// Fresh rectangles a closed-loop connection may use; far more than any
// closed-loop run completes.
constexpr uint64_t kFreshPerConnection = 4096;
// Fresh rectangles start at an index of at least this, past every pool.
constexpr uint64_t kFreshOffsetBase = 1 << 20;

const WorkloadConfig kWorkloads[] = {
    {/*name=*/"uniform_cold", /*clustered=*/false, /*cardinality=*/4000,
     /*shards=*/8, /*batch_max=*/1, LoadKind::kPoisson, /*connections=*/2,
     /*rate_qps=*/60.0, /*window=*/1, /*pool=*/0,
     /*warm_pool=*/false, /*setup_reps=*/31,
     Exercise::kColdPath},
    {/*name=*/"hot_zipf", /*clustered=*/false, /*cardinality=*/4000,
     /*shards=*/8, /*batch_max=*/1, LoadKind::kClosed, /*connections=*/1,
     /*rate_qps=*/0.0, /*window=*/8, /*pool=*/12,
     /*warm_pool=*/true, /*setup_reps=*/9,
     Exercise::kCacheOnly},
    {/*name=*/"clustered_mix", /*clustered=*/true, /*cardinality=*/5000,
     /*shards=*/8, /*batch_max=*/8, LoadKind::kClosed, /*connections=*/2,
     /*rate_qps=*/0.0, /*window=*/2, /*pool=*/64,
     /*warm_pool=*/false, /*setup_reps=*/31,
     Exercise::kReuse},
    {/*name=*/"large_cold", /*clustered=*/false, /*cardinality=*/120000,
     /*shards=*/0, /*batch_max=*/1, LoadKind::kClosed, /*connections=*/2,
     /*rate_qps=*/0.0, /*window=*/1, /*pool=*/0,
     /*warm_pool=*/false, /*setup_reps=*/3,
     Exercise::kDivision},
};

// Independent seeded streams for the dataset, the rectangles and the
// schedule, so changing one input never shifts another.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t state = seed ^ (stream * 0xD1B54A32D192ED03ULL);
  return maxrs::SplitMix64(state);
}

// The r-th size of a workload's rectangle pool: a fixed low-discrepancy
// spread over the side range. The pool is part of the workload, not of
// the seed, so every seed puts the same sizes at the same zipf ranks.
RectSize PoolRect(size_t r) {
  const double i = static_cast<double>(r) + 0.5;
  const auto frac = [](double v) { return v - std::floor(v); };
  return {kSideLo + (kSideHi - kSideLo) * frac(i * 0.6180339887498949),
          kSideLo + (kSideHi - kSideLo) * frac(i * 0.7548776662466927)};
}

}  // namespace

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& config : kWorkloads) {
    if (name == config.name) {
      return &config;
    }
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const WorkloadConfig& config : kWorkloads) {
    if (!names.empty()) names += ", ";
    names += config.name;
  }
  return names;
}

std::vector<maxrs::SpatialObject> MakeObjects(const WorkloadConfig& config,
                                              uint64_t seed) {
  maxrs::SyntheticOptions options;
  options.cardinality = config.cardinality;
  options.domain_size = 1e6;
  options.weights = maxrs::WeightMode::kUnit;
  options.seed = StreamSeed(seed, 1);
  std::vector<maxrs::SpatialObject> objects = maxrs::MakeUniform(options);
  if (config.clustered) {
    // Half the mass in one rect-sized cluster near the far x end, so whole
    // x-slabs weigh less than one well-placed rectangle covers and the
    // aggregate index can prune them.
    for (size_t i = 0; i < objects.size(); i += 2) {
      objects[i].x = 900000.0 + std::fmod(objects[i].x, 800.0);
      objects[i].y = 500000.0 + std::fmod(objects[i].y, 800.0);
    }
  }
  return objects;
}

QueryPlan::QueryPlan(const WorkloadConfig& config, uint64_t seed,
                     double seconds)
    : config_(config), seed_(StreamSeed(seed, 2)) {
  // Fresh rectangles continue the pool's low-discrepancy sequence from a
  // seeded offset: distinct from each other and from every pool size, and
  // spread evenly over the side range however few a run sends.
  uint64_t fresh = kFreshOffsetBase + StreamSeed(seed, 3) % kFreshOffsetBase;
  maxrs::Rng time_rng(StreamSeed(seed, 4));
  if (config.pool > 0) {
    double mass = 0.0;
    for (size_t r = 0; r < config.pool; ++r) {
      rects_.push_back(PoolRect(r));
      mass += 1.0 / static_cast<double>(r + 1);
      zipf_cdf_.push_back(mass);
    }
  }
  if (config.load == LoadKind::kClosed) {
    if (config.pool == 0) {
      for (uint64_t i = 0; i < kFreshPerConnection * config.connections; ++i) {
        rects_.push_back(PoolRect(fresh++));
      }
    }
    return;
  }

  // Poisson arrivals conditioned on their count: a Poisson process with
  // exactly `events` arrivals in the run has them uniform over the run.
  // Fixing the count keeps the offered load identical across seeds.
  const double events_per_conn =
      config.rate_qps * seconds / static_cast<double>(config.connections);
  const size_t events =
      std::max<size_t>(1, static_cast<size_t>(std::lround(events_per_conn)));
  const double span_us = seconds * 1e6;
  open_.resize(config.connections);
  for (std::vector<PlannedQuery>& schedule : open_) {
    std::vector<int64_t> times(events);
    for (int64_t& t : times) {
      t = static_cast<int64_t>(time_rng.NextDouble() * span_us);
    }
    std::sort(times.begin(), times.end());
    for (const int64_t t : times) {
      PlannedQuery query;
      query.due_us = t;
      if (config.pool > 0) {
        query.rect = DrawZipf(time_rng.NextDouble());
      } else {
        query.rect = static_cast<uint32_t>(rects_.size());
        rects_.push_back(PoolRect(fresh++));
      }
      schedule.push_back(query);
    }
  }
}

bool QueryPlan::Pick(size_t conn, uint64_t i, uint32_t* rect) const {
  if (config_.pool == 0) {
    const uint64_t index = i * config_.connections + conn;
    if (i >= kFreshPerConnection) return false;
    *rect = static_cast<uint32_t>(index);
    return true;
  }
  // Counter-based draw: the i-th pick of a connection is a pure function
  // of (seed, conn, i), so a replay sees the same sequence.
  uint64_t state = seed_ ^ (static_cast<uint64_t>(conn) << 56) ^ i;
  const double u =
      static_cast<double>(maxrs::SplitMix64(state) >> 11) * 0x1.0p-53;
  *rect = DrawZipf(u);
  return true;
}

std::vector<uint32_t> QueryPlan::WarmSet() const {
  std::vector<uint32_t> warm;
  if (!config_.warm_pool) return warm;
  for (uint32_t r = 0; r < config_.pool; ++r) warm.push_back(r);
  return warm;
}

uint32_t QueryPlan::DrawZipf(double u) const {
  const double target = u * zipf_cdf_.back();
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), target);
  return static_cast<uint32_t>(
      std::min<size_t>(it - zipf_cdf_.begin(), zipf_cdf_.size() - 1));
}

}  // namespace perfbench
