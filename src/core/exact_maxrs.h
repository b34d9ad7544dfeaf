// ExactMaxRS (Algorithm 2): the paper's primary contribution — the first
// external-memory algorithm for the MaxRS problem, optimal at
// O((N/B) log_{M/B}(N/B)) I/Os under the EM comparison model (Theorem 2).
//
// Pipeline (Sec. 5):
//   1. Transform each object o into the d1 x d2 rectangle centered at o
//      carrying weight w(o); MaxRS becomes finding the max-region of the
//      rectangle set (Sec. 4, Def. 5).
//   2. External-sort the rectangle file by y and the vertical-edge
//      x-coordinates by x (the two up-front sorts of Theorem 2).
//   3. Recursively divide the slab into m = Theta(M/B) sub-slabs of roughly
//      equal edge count, separating spanning parts (division.h); solve each
//      sub-slab (in memory once it fits, plane_sweep.h); merge child
//      slab-files bottom-up (merge_sweep.h).
//   4. Scan the root slab-file for the tuple with the maximum sum: its
//      stratum is the max-region; any interior point is an optimal location.
//
// This header is the public entry point of the library for MaxRS.
#ifndef MAXRS_CORE_EXACT_MAXRS_H_
#define MAXRS_CORE_EXACT_MAXRS_H_

#include <functional>
#include <string>
#include <vector>

#include "core/plane_sweep.h"
#include "core/records.h"
#include "geom/geometry.h"
#include "io/env.h"
#include "io/io_stats.h"
#include "io/record_stream.h"
#include "io/temp_manager.h"
#include "util/cancel.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace maxrs {

/// Tuning knobs of one ExactMaxRS run (paper defaults in bench_common.h).
struct MaxRSOptions {
  /// Query rectangle size (paper: d1 x d2).
  double rect_width = 1000.0;
  double rect_height = 1000.0;

  /// Memory budget M in bytes. Governs the fan-out m = Theta(M/B), the
  /// external-sort fan-in, and the in-memory base-case threshold.
  size_t memory_bytes = 1 << 20;

  /// Fan-out override for tests; 0 derives max(2, M/B - 2).
  size_t fanout = 0;

  /// Base-case threshold override (#pieces) for tests; 0 derives M/|piece|.
  uint64_t base_case_max_pieces = 0;

  /// Namespace prefix for scratch files inside the Env.
  std::string work_prefix = "maxrs_work";

  /// Worker threads for the parallel execution engine. <= 1 runs the exact
  /// serial code path (no pool is created). With T > 1 threads the two
  /// up-front external sorts, the run formation / merge groups inside each
  /// sort, and the independent child sub-slabs of every recursion node
  /// execute concurrently; MergeSweep stays serial per node. Results are
  /// bit-identical for any value, and the reported I/O counts at 1 thread
  /// match the serial engine exactly. Transient memory peaks at ~2 x T x
  /// memory_bytes during the up-front-sort phase (two concurrent sorts,
  /// each buffering a wave of T run chunks of ~memory_bytes).
  size_t num_threads = 1;

  /// kMaximize is the paper's MaxRS. kMinimize runs the MinRS extension's
  /// min-objective sweep with placements restricted to the dataset bounding
  /// box (unrestricted MinRS is trivially 0 in empty space); use RunMinRS
  /// from core/extensions.h rather than setting this directly.
  SweepObjective objective = SweepObjective::kMaximize;

  /// Zero-materialization division (io/record_stream.h): route each
  /// recursion node's pieces into per-child SPSC channels consumed by the
  /// child solves directly — children start solving while the parent is
  /// still routing — instead of materializing per-child piece files. A
  /// channel spills to a scratch file only beyond stream_channel_bytes.
  /// Results, stats counters, and division decisions are bit-identical to
  /// the materialized path; only the I/O schedule (and count) changes.
  /// Off by default: the materialized path remains the reference block
  /// schedule that the determinism goldens pin.
  bool streaming_division = false;

  /// Per-channel in-memory cap (bytes) for streaming_division's child
  /// piece channels. A node's resident routing memory is bounded by
  /// fanout x min(cap, child size); records beyond the cap spill to one
  /// scratch file per channel, deterministically (a pure function of the
  /// routed records and the cap — never of scheduling). 0 spills
  /// everything (the fully-external schedule); SIZE_MAX never spills.
  size_t stream_channel_bytes = 1 << 20;

  /// Optional cooperative cancellation (util/cancel.h), not owned; must
  /// outlive the run. Polled at every recursion-node entry, routing loop,
  /// and MergeSweep record loop: an expired token aborts the run with a
  /// clean kDeadlineExceeded through the ordinary error paths (scratch
  /// files released, channels closed). Null = never cancelled.
  const CancelToken* cancel = nullptr;
};

/// Execution statistics of one ExactMaxRS run.
struct MaxRSStats {
  uint64_t input_objects = 0;
  uint64_t recursion_levels = 0;  ///< Depth of the deepest recursion node.
  uint64_t base_cases = 0;        ///< In-memory PlaneSweep invocations.
  uint64_t merges = 0;            ///< MergeSweep invocations.
  uint64_t total_spans = 0;       ///< Spanning records produced overall.
  IoStatsSnapshot io;             ///< Block transfers attributed to this run.
  /// Number of queries that shared the execution behind `io`: 1 for every
  /// one-shot and serial serve-layer run; k > 1 when the serve layer
  /// executed this query inside a k-query shared-scan batch, in which case
  /// `io` is this query's amortized equal share of the batch total and
  /// `wall_seconds` is the whole batch's wall time (docs/IO_MODEL.md,
  /// "Batched shared scans").
  uint64_t batch_size = 1;
  double wall_seconds = 0.0;
  /// Placement domain used: infinite for MaxRS, the dataset bounding box for
  /// the min objective.
  Rect domain{-kInf, kInf, -kInf, kInf};
};

/// The answer to a MaxRS query.
struct MaxRSResult {
  /// An optimal location (any point of the max-region; we return its center).
  Point location;
  /// The maximum range sum: total weight covered by the rectangle at
  /// `location` (Def. 1).
  double total_weight = 0.0;
  /// The max-region: every point in it is an optimal location (Def. 4).
  Rect region;
  MaxRSStats stats;
};

/// A dataset transformed and sorted for one (rect_width, rect_height): the
/// two inputs of the division phase, i.e. everything that survives the sort
/// phase of Algorithm 2. Produced internally by RunExactMaxRS, or assembled
/// without any sorting by the serve layer (serve/dataset_handle.h), which
/// keeps the dataset pre-sorted per x-slab shard and derives both files per
/// query with linear passes — the basis of per-query sort reuse.
struct PreparedInput {
  /// PieceRecords sorted by PieceYLess (the y pre-sort of Theorem 2).
  std::string piece_file;
  /// EdgeRecords sorted by EdgeXLess (the x pre-sort of Theorem 2).
  std::string edge_file;
  /// Record count of `piece_file`.
  uint64_t num_pieces = 0;
  /// Root slab of the recursion; the whole plane for plain MaxRS.
  Interval x_range{-kInf, kInf};
};

/// Validates `options` against an Env's block size without running
/// anything: the same checks every Run* entry point performs first
/// (positive finite rect, budget of at least 4 blocks, fanout and thread
/// bounds). Lets long-lived callers (the serve layer) reject a bad
/// configuration at construction time instead of paying a full derivation
/// pass per doomed query.
Status ValidateMaxRSOptions(const MaxRSOptions& options, size_t block_size);

/// Runs ExactMaxRS against a dataset stored as a record file of
/// SpatialObject in `env`. This is the scalable external-memory entry point.
Result<MaxRSResult> RunExactMaxRS(Env& env, const std::string& object_file,
                                  const MaxRSOptions& options);

/// Runs the division + merge-sweep phases of ExactMaxRS on an
/// already-prepared input, skipping the transform and the two external
/// sorts. Consumes (deletes) both input files once solving starts,
/// mirroring the scratch-file lifecycle of the internal pipeline; if
/// validation rejects the input (InvalidArgument — bad options or a
/// num_pieces that contradicts the piece file) the files are left intact
/// so the caller can correct and retry. `options.rect_width/rect_height`
/// must match the dimensions `input` was transformed with — they are not
/// re-applied, only validated and reported.
Result<MaxRSResult> RunExactMaxRSPrepared(Env& env, const PreparedInput& input,
                                          const MaxRSOptions& options);

/// Convenience wrapper: stages `objects` into a scratch file in `env`, runs
/// the external algorithm, and cleans up.
Result<MaxRSResult> RunExactMaxRS(Env& env,
                                  const std::vector<SpatialObject>& objects,
                                  const MaxRSOptions& options);

/// Pure in-memory variant (no Env, no I/O): transform + PlaneSweep over the
/// whole plane. Suitable when the dataset fits in memory; used as the
/// recursion base case internally.
MaxRSResult ExactMaxRSInMemory(const std::vector<SpatialObject>& objects,
                               double rect_width, double rect_height);

/// One optimal (or k-th best) placement region; see extensions.h for the
/// MaxkRS / MinRS entry points built on top of these.
struct RankedRegion {
  Point location;
  double total_weight = 0.0;
  Rect region;
};

namespace core_internal {

/// The recursive solver of one slab, exposed for callers that assemble the
/// division tree themselves (the serve layer's per-shard solve, where the
/// x-slab shards form the top-level division): runs division + merge-sweep
/// on `input` confined to `input.x_range` and returns the name of the
/// resulting slab-file — the SlabTuple stream of the slab — registered
/// under `temps` (the caller releases it). Consumes (deletes) both input
/// files. All piece x-extents must lie within `input.x_range` and
/// `input.num_pieces` must match the piece file (trusted, not probed).
/// Maximize objective only.
/// A non-null `best_out` receives the maximum tuple sum of the returned
/// slab-file — the best weight achievable inside the slab — computed while
/// the file is written, never by a counted re-scan. The serve layer's
/// index-pruned execution feeds it back as the branch-and-bound incumbent.
Result<std::string> SolveSlab(Env& env, TempFileManager& temps,
                              const PreparedInput& input,
                              const MaxRSOptions& options, MaxRSStats* stats,
                              ThreadPool* pool, SlabBest* best_out = nullptr);

/// Lazily produces the x-sorted edge file of a slab being stream-solved.
/// Invoked at most once, and only if the slab overflows the in-memory base
/// case (a base-case slab needs no edges at all). The file it names is
/// released by its creator, never by the stream solver.
using EdgeFileProvider = std::function<Result<std::string>()>;

/// Zero-materialization counterpart of SolveSlab: solves the slab
/// `x_range` from a *stream* of its y-sorted pieces instead of a piece
/// file, so the caller's routing pass and this solve overlap. The solver
/// buffers up to the base-case threshold; if the stream ends within it the
/// slab is solved in memory with no division I/O at all, otherwise
/// `edge_provider` supplies the edge file and the node divides, feeding
/// its children through per-child channels in turn (recursively streamed).
/// Returns the slab-file name, registered under `temps` (caller releases).
/// Results and stats counters are bit-identical to SolveSlab over a file
/// holding the same stream. Maximize objective only; `options` is
/// validated. `pool` parallelizes child sub-slabs (null = serial).
/// `best_out` as in SolveSlab.
Result<std::string> SolveSlabStream(Env& env, TempFileManager& temps,
                                    RecordSource<PieceRecord>* pieces,
                                    const EdgeFileProvider& edge_provider,
                                    const Interval& x_range,
                                    const MaxRSOptions& options,
                                    MaxRSStats* stats, ThreadPool* pool,
                                    SlabBest* best_out = nullptr);

/// Streams the tuples of the *root* slab-file (y-ascending) produced by a
/// full ExactMaxRS pipeline run to `visit`. This is the shared engine under
/// RunExactMaxRS, RunTopKMaxRS and RunMinRS: the tuple stream contains, for
/// every y-stratum, the max-interval of the whole plane — enough to answer
/// any "best placements" question without re-running the sweep.
Status VisitRootTuples(Env& env, const std::string& object_file,
                       const MaxRSOptions& options, MaxRSStats* stats,
                       const std::function<void(const SlabTuple&)>& visit);

/// Prepared-input counterpart of VisitRootTuples: streams the root tuples of
/// the division + merge-sweep phases run on `input` (see PreparedInput).
/// Consumes both input files.
Status VisitPreparedTuples(Env& env, const PreparedInput& input,
                           const MaxRSOptions& options, MaxRSStats* stats,
                           const std::function<void(const SlabTuple&)>& visit);

/// Streaming tracker of the k best strata (by sum). Feed tuples in y order
/// via Visit(); Finish() returns regions sorted by descending weight.
class TopTupleTracker {
 public:
  /// Tracks the `k` best strata (k == 0 behaves as 1).
  explicit TopTupleTracker(size_t k) : k_(k == 0 ? 1 : k) {}

  /// Feeds the next tuple; must be called in ascending y order. Consecutive
  /// tuples with identical (sum, x-interval) are one stratum split by sweep
  /// events that did not change the max-interval — they are coalesced into
  /// a single run, so the reported region's y-extent depends only on where
  /// the max-interval actually changes, not on how many events subdivided
  /// it. (This is what keeps index-pruned serving bit-identical: pruned
  /// schedules drop events from shards that never held the optimum, which
  /// can merge such splits but never move a run's boundaries.)
  void Visit(const SlabTuple& t);
  /// Closes the stream and returns the k best regions, best first.
  std::vector<RankedRegion> Finish();

 private:
  struct Entry {
    SlabTuple tuple;
    double y_next;
  };

  void Offer(const SlabTuple& t, double y_next);
  static bool SumGreater(const Entry& a, const Entry& b);

  size_t k_;
  std::vector<Entry> heap_;  // min-heap on sum (k best retained)
  SlabTuple pending_{};
  bool have_pending_ = false;
};

/// Extracts the final answer from an in-memory tuple stream.
MaxRSResult ExtractFromTuples(const std::vector<SlabTuple>& tuples);

}  // namespace core_internal

}  // namespace maxrs

#endif  // MAXRS_CORE_EXACT_MAXRS_H_
