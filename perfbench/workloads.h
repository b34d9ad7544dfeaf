// The benchmark's four traffic mixes and the seeded inputs they send: the
// dataset, the table of query rectangles, and the per-connection plan of
// which rectangle goes out when. Everything here is a pure function of the
// workload and the seed, so the same seed always yields the same inputs.
#ifndef MAXRS_PERFBENCH_WORKLOADS_H_
#define MAXRS_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "geom/geometry.h"

namespace perfbench {

/// How queries reach the server.
enum class LoadKind {
  /// Open loop: each connection sends at Poisson arrival times.
  kPoisson,
  /// Closed loop: each connection keeps `window` requests outstanding and
  /// sends the next one as each response arrives.
  kClosed,
};

/// What a workload claims to exercise; every run checks the serving
/// counters against it and is invalid when they disagree.
enum class Exercise {
  /// Every query executes: no cache hit, dedup, batch or pruned shard.
  kColdPath,
  /// Every timed query is a cache hit: no execution.
  kCacheOnly,
  /// Cache hits, dedup, shared-scan batches and pruned shards all occur.
  kReuse,
  /// The per-shard solves run the division recursion: more base cases
  /// than shards per query.
  kDivision,
};

/// One traffic mix. Server knobs not named here keep their defaults.
struct WorkloadConfig {
  const char* name = "";
  /// Dataset: uniform over [0, 1e6]^2, or with half the objects folded
  /// into one 800 x 800 cluster (bench_serve's pruning dataset).
  bool clustered = false;
  uint64_t cardinality = 0;
  /// DatasetHandleOptions::shard_count (0 derives ~64K objects a shard).
  size_t shards = 0;
  /// MaxRSServerOptions::batch_max.
  size_t batch_max = 1;
  LoadKind load = LoadKind::kPoisson;
  size_t connections = 1;
  /// Open loop: total offered rate over all connections, queries/second.
  double rate_qps = 0.0;
  /// kClosed: requests kept outstanding per connection.
  size_t window = 1;
  /// 0: every query is a fresh rectangle. Otherwise queries draw
  /// zipf(s=1) ranks over this many rectangle sizes.
  size_t pool = 0;
  /// Answer every pool rectangle once during set-up (fills the cache).
  bool warm_pool = false;
  /// Set-ups made per run; setup_s is their median.
  size_t setup_reps = 1;
  Exercise exercise = Exercise::kColdPath;
};

/// The workload called `name`, or nullptr.
const WorkloadConfig* FindWorkload(const std::string& name);

/// Names of every workload, for usage messages.
std::string WorkloadNames();

/// The workload's dataset with unit weights.
std::vector<maxrs::SpatialObject> MakeObjects(const WorkloadConfig& config,
                                              uint64_t seed);

/// A query rectangle's dimensions.
struct RectSize {
  double width = 0.0;
  double height = 0.0;
};

/// One query of an open-loop plan: when it is due, relative to the start
/// of the timed phase, and which rectangle it asks for.
struct PlannedQuery {
  int64_t due_us = 0;
  uint32_t rect = 0;
};

/// Everything a run sends. Open-loop workloads have their whole schedule
/// in `open`; closed-loop ones draw rectangles with Pick().
class QueryPlan {
 public:
  QueryPlan(const WorkloadConfig& config, uint64_t seed, double seconds);

  const std::vector<RectSize>& rects() const { return rects_; }

  /// Open loop: the schedule of each connection, in send order.
  const std::vector<std::vector<PlannedQuery>>& open() const { return open_; }

  /// Closed loop: the rectangle of connection `conn`'s `i`-th query, or
  /// false when the plan has no more fresh rectangles for it.
  bool Pick(size_t conn, uint64_t i, uint32_t* rect) const;

  /// The pool rectangles a warm-up answers (empty unless warm_pool).
  std::vector<uint32_t> WarmSet() const;

 private:
  uint32_t DrawZipf(double u) const;

  const WorkloadConfig& config_;
  const uint64_t seed_;
  std::vector<RectSize> rects_;
  std::vector<double> zipf_cdf_;  // unnormalized, over pool ranks
  std::vector<std::vector<PlannedQuery>> open_;
};

}  // namespace perfbench

#endif  // MAXRS_PERFBENCH_WORKLOADS_H_
