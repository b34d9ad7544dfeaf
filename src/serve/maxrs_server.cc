#include "serve/maxrs_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>
#include <optional>
#include <thread>

#include <condition_variable>

#include "core/division.h"
#include "core/merge_sweep.h"
#include "core/records.h"
#include "io/external_sort.h"
#include "io/record_io.h"
#include "io/record_stream.h"
#include "io/temp_manager.h"
#include "util/stopwatch.h"

namespace maxrs {
namespace {

// ---------------------------------------------------------------------------
// Global-merge mode (ServeSolveMode::kGlobalMerge): derive per-shard sorted
// streams, k-way-merge them into one global prepared input, divide from the
// top. This is the PR-3 path, kept because it reproduces the one-shot
// division tree bit-for-bit even for non-integer weights.
// ---------------------------------------------------------------------------

// Emits the transformed piece stream of one shard: a linear pass over the
// shard's ObjectYLess-sorted objects. The output is PieceYLess-sorted by
// construction on all but pathological inputs — y -> y - h/2 and
// x -> x -/+ w/2 are monotone, so the object order IS the piece order
// (dataset_handle.h, header comment). The one exception: objects whose
// coordinates differ by less than one ulp *of the shifted value* collapse
// onto equal piece keys, which can reorder the PieceYLess tie-break
// fields. `*canonical` reports whether the emitted stream is verifiably
// PieceYLess-sorted; when false the caller restores the canonical order
// with a real sort (correctness over speed on degenerate data).
Status TransformShardPieces(Env& env, const ShardInfo& shard, double width,
                            double height, const std::string& out,
                            bool* canonical, const CancelToken* cancel) {
  MAXRS_ASSIGN_OR_RETURN(RecordReader<SpatialObject> reader,
                         RecordReader<SpatialObject>::Make(env, shard.y_file));
  MAXRS_ASSIGN_OR_RETURN(RecordWriter<PieceRecord> writer,
                         RecordWriter<PieceRecord>::Make(env, out));
  *canonical = true;
  PieceRecord prev{};
  bool have_prev = false;
  SpatialObject o{};
  while (reader.Next(&o)) {
    MAXRS_RETURN_IF_ERROR(CheckCancel(cancel));
    const PieceRecord piece = TransformObject(o, width, height);
    if (have_prev && PieceYLess(piece, prev)) *canonical = false;
    prev = piece;
    have_prev = true;
    MAXRS_RETURN_IF_ERROR(writer.Append(piece));
  }
  MAXRS_RETURN_IF_ERROR(reader.final_status());
  return writer.Finish();
}

// Emits the sorted vertical-edge stream of one shard for rectangle width
// `width`: a 2-way merge of the shard's ObjectXLess-sorted objects shifted
// by -w/2 (left edges) and +w/2 (right edges). Both shifted streams are
// individually sorted (the shift is monotone), so one merge pass replaces
// the per-query edge sort of the one-shot pipeline. Unlike pieces, no
// canonical-order fallback is needed: EdgeRecord has a single field, so
// colliding values are byte-identical and every merge order yields the
// same file.
Status BuildShardEdges(Env& env, const ShardInfo& shard, double width,
                       const std::string& out, const CancelToken* cancel) {
  MAXRS_ASSIGN_OR_RETURN(RecordReader<SpatialObject> left,
                         RecordReader<SpatialObject>::Make(env, shard.x_file));
  MAXRS_ASSIGN_OR_RETURN(RecordReader<SpatialObject> right,
                         RecordReader<SpatialObject>::Make(env, shard.x_file));
  MAXRS_ASSIGN_OR_RETURN(RecordWriter<EdgeRecord> writer,
                         RecordWriter<EdgeRecord>::Make(env, out));
  const double half_w = width / 2.0;
  SpatialObject lo{}, hi{};
  bool have_lo = left.Next(&lo);
  bool have_hi = right.Next(&hi);
  while (have_lo || have_hi) {
    MAXRS_RETURN_IF_ERROR(CheckCancel(cancel));
    bool take_lo = have_lo;
    if (have_lo && have_hi) {
      take_lo = DoubleOrderKey(lo.x - half_w) <= DoubleOrderKey(hi.x + half_w);
    }
    if (take_lo) {
      MAXRS_RETURN_IF_ERROR(writer.Append(EdgeRecord{lo.x - half_w}));
      have_lo = left.Next(&lo);
    } else {
      MAXRS_RETURN_IF_ERROR(writer.Append(EdgeRecord{hi.x + half_w}));
      have_hi = right.Next(&hi);
    }
  }
  MAXRS_RETURN_IF_ERROR(left.final_status());
  MAXRS_RETURN_IF_ERROR(right.final_status());
  return writer.Finish();
}

// Fan-in of the global-merge mode's k-way stream merges: the external
// sort's M/B - 1 input-block budget, floored at 2. Guards the subtraction —
// blocks can be 0 for a sub-block budget (ValidateOptions rejects such
// budgets later, but the fan-in must not wrap to SIZE_MAX meanwhile).
size_t QueryMergeFanIn(size_t memory_bytes, size_t block_size) {
  const size_t blocks = memory_bytes / block_size;
  return std::max<size_t>(2, blocks > 1 ? blocks - 1 : 1);
}

// ---------------------------------------------------------------------------
// Per-shard mode (ServeSolveMode::kPerShard): the x-slab shards are the
// top-level division. One routing pass per source shard scatters clipped
// pieces / edges / spans to target shards; each target shard merges its
// (typically 2-3) incoming streams and solves independently; one
// cross-shard MergeSweep combines the shard slab-files. The global k-way
// piece merge and the root division pass never run.
//
// Every per-shard query runs as a member of a batch of k >= 1 distinct
// queries (a lone query is a batch of one) off ONE routing scan per source
// shard: the y-file scan computes all k transforms per object, the x-file
// scan emits all k queries' left (x - w/2) and right (x + w/2) edges. Each
// routed record travels through a RecordChannel (io/record_stream.h) that
// touches the Env only past its memory cap, and each target solve
// (core_internal::SolveSlabStream) starts the moment the piece channels of
// its column have their first heads — while the routing scans are still
// running.
//
// Per query the record streams a target consumer merges are exactly the
// one-query streams: piece rows are filtered subsequences of the y-sorted
// scan under each query's monotone transform, and the two edge half-rows
// are each monotone shifts of the x-sorted scan — their 2S-way EdgeXLess
// merge is byte-identical to any merge of the same values because
// EdgeRecord is a single double under a total order (cmp-equal =>
// byte-equal, and min-of-heads merging is associative). So every answer is
// independent of its batch-mates; only the scan I/O is paid once and
// reported per query as an amortized equal share (docs/IO_MODEL.md,
// "Batched shared scans").
//
// Liveness protocol (record_stream.h, "Threading"): channel producers never
// block and are submitted to the FIFO pool BEFORE every consumer, so a
// parked consumer always has running producers destined to close its
// channels. Producers are raw pool submissions joined by a latch, NOT
// TaskGroup tasks: a group no-ops queued tasks after its first error, and
// a no-op'd producer would never close its channels, hanging every
// consumer already running.
// ---------------------------------------------------------------------------

// Index of the shard whose half-open x-range contains `v`. `bounds` holds
// the S-1 interior shard boundaries; callers clamp into the last shard for
// values at/above its lower bound (mirroring division.cc's ChildOf —
// clipped extents may end exactly on a slab's upper bound).
size_t ShardOf(const std::vector<double>& bounds, double v) {
  return static_cast<size_t>(
      std::upper_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
}

// One-shot join latch for the raw producer submissions of one routing wave.
class JoinLatch {
 public:
  explicit JoinLatch(size_t count) : remaining_(count) {}

  void CountDown() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--remaining_ == 0) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return remaining_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t remaining_;
};

// Phase B for one target shard of one query: merge the piece channels of
// its column on the fly (MergingSource selects heads in ascending source
// order, the canonical merge order) and solve the shard via the streaming
// recursion. The edge stream is claimed lazily: only a shard that overflows
// its base case ever drains its edge column (into one scratch file, since
// the division's bounds pass reads the edges twice); a base-case shard
// abandons the column untouched — what those channels buffered or spilled
// is a pure function of the routed records, so block counts stay
// deterministic. Callers pass exactly the rows they actually routed (the
// pruned plan drops never-routed rows — their channels never close,
// waiting on them would hang, and by construction they could only have
// carried empty streams, so dropping them leaves the merged stream
// byte-identical). A non-null `best_out` receives the shard slab-file's
// maximum tuple sum (core/records.h SlabBest) — the pruned plan's
// incumbent.
Status SolveTargetColumn(Env& env, TempFileManager& temps,
                         std::vector<RecordSource<PieceRecord>*> piece_column,
                         std::vector<RecordSource<EdgeRecord>*> edge_column,
                         const Interval& slab, const MaxRSOptions& options,
                         MaxRSStats* stats, std::string* slab_file_out,
                         SlabBest* best_out) {
  MergingSource<PieceRecord, decltype(&PieceYLess)> pieces(
      std::move(piece_column), &PieceYLess);

  // Probe the first record: a shard no piece overlaps (fully spanned
  // shards are handled by the cross-shard sweep's upSum) produces an empty
  // slab-file without ever invoking the solver, and its stats block stays
  // untouched.
  PieceRecord first{};
  Status probe = pieces.Read(&first);
  if (probe.code() == Status::Code::kNotFound) {
    std::string out = temps.NewName("q_slab");
    MAXRS_ASSIGN_OR_RETURN(RecordWriter<SlabTuple> writer,
                           RecordWriter<SlabTuple>::Make(env, out));
    MAXRS_RETURN_IF_ERROR(writer.Finish());
    *slab_file_out = std::move(out);
    return Status::OK();
  }
  MAXRS_RETURN_IF_ERROR(probe);
  PrependedSource<PieceRecord> stream(first, &pieces);

  std::string edge_file;  // set iff the provider runs (base-case overflow)
  core_internal::EdgeFileProvider edge_provider =
      [&]() -> Result<std::string> {
    MergingSource<EdgeRecord, decltype(&EdgeXLess)> edges(
        std::move(edge_column), &EdgeXLess);
    edge_file = temps.NewName("q_edges");
    MAXRS_ASSIGN_OR_RETURN(RecordWriter<EdgeRecord> writer,
                           RecordWriter<EdgeRecord>::Make(env, edge_file));
    EdgeRecord e{};
    while (edges.Next(&e)) {
      MAXRS_RETURN_IF_ERROR(CheckCancel(options.cancel));
      MAXRS_RETURN_IF_ERROR(writer.Append(e));
    }
    MAXRS_RETURN_IF_ERROR(edges.final_status());
    MAXRS_RETURN_IF_ERROR(writer.Finish());
    return {edge_file};
  };

  auto slab_or = core_internal::SolveSlabStream(env, temps, &stream,
                                                edge_provider, slab, options,
                                                stats, /*pool=*/nullptr,
                                                best_out);
  // The provider's creator owns the drained edge file (exact_maxrs.h).
  if (!edge_file.empty()) temps.Release(edge_file);
  if (!slab_or.ok()) return slab_or.status();
  *slab_file_out = std::move(slab_or).value();
  return Status::OK();
}

// One query of a batch, in batch order.
struct BatchQuery {
  double width = 0.0;
  double height = 0.0;
  const CancelToken* cancel = nullptr;
};

// The shared scans' deadline poll: a scan stops early only once EVERY
// member's token has expired. The scan is shared property of the batch, so
// one query's deadline must never abort its batch-mates' routing (each
// query's own deadline stays enforced in its consumers and combine phase);
// for a batch of one this is the plain per-row poll.
Status CheckBatchCancel(const std::vector<BatchQuery>& queries) {
  Status expired;
  for (const BatchQuery& query : queries) {
    expired = CheckCancel(query.cancel);
    if (expired.ok()) break;
  }
  return expired;
}

// All channels of one k-query batch: per query an S x S piece grid, TWO
// S x S edge grids — the shared x-file scan emits left and right edges
// into separate channels because their interleaving in scan order is not
// sorted, while each half on its own is — and S span channels. Created
// eagerly on the batch worker so spill names are allocated in one
// deterministic order (query-major, then source-major).
class BatchChannels {
 public:
  BatchChannels(Env& env, TempFileManager& temps, size_t num_queries,
                size_t num_shards, size_t cap_bytes)
      : num_shards_(num_shards) {
    pieces_.reserve(num_queries * num_shards * num_shards);
    edges_left_.reserve(num_queries * num_shards * num_shards);
    edges_right_.reserve(num_queries * num_shards * num_shards);
    spans_.reserve(num_queries * num_shards);
    for (size_t q = 0; q < num_queries; ++q) {
      const std::string qtag = "b" + std::to_string(q) + "_";
      for (size_t s = 0; s < num_shards; ++s) {
        const std::string tag = std::to_string(s);
        for (size_t t = 0; t < num_shards; ++t) {
          const std::string cell = tag + "_" + std::to_string(t);
          pieces_.push_back(std::make_unique<RecordChannel<PieceRecord>>(
              env, temps.NewName(qtag + "chp" + cell), cap_bytes));
          edges_left_.push_back(std::make_unique<RecordChannel<EdgeRecord>>(
              env, temps.NewName(qtag + "chl" + cell), cap_bytes));
          edges_right_.push_back(std::make_unique<RecordChannel<EdgeRecord>>(
              env, temps.NewName(qtag + "chr" + cell), cap_bytes));
        }
        spans_.push_back(std::make_unique<RecordChannel<SpanRecord>>(
            env, temps.NewName(qtag + "chs" + tag), cap_bytes));
      }
    }
  }

  RecordChannel<PieceRecord>* piece(size_t q, size_t s, size_t t) {
    return pieces_[(q * num_shards_ + s) * num_shards_ + t].get();
  }
  RecordChannel<EdgeRecord>* edge_left(size_t q, size_t s, size_t t) {
    return edges_left_[(q * num_shards_ + s) * num_shards_ + t].get();
  }
  RecordChannel<EdgeRecord>* edge_right(size_t q, size_t s, size_t t) {
    return edges_right_[(q * num_shards_ + s) * num_shards_ + t].get();
  }
  RecordChannel<SpanRecord>* span(size_t q, size_t s) {
    return spans_[q * num_shards_ + s].get();
  }

 private:
  size_t num_shards_;
  std::vector<std::unique_ptr<RecordChannel<PieceRecord>>> pieces_;
  std::vector<std::unique_ptr<RecordChannel<EdgeRecord>>> edges_left_;
  std::vector<std::unique_ptr<RecordChannel<EdgeRecord>>> edges_right_;
  std::vector<std::unique_ptr<RecordChannel<SpanRecord>>> spans_;
};

// Phase A for source shard `source`: ONE pass over the shard's y-file
// routes every query's pieces and spans, then ONE pass over its x-file
// emits every query's left and right edges into their half-row channels
// (each a monotone shift of the x-sorted scan, so individually sorted;
// ShardOf routes each value). Pieces follow division.cc pass-3 semantics
// with the shard grid as the cut (division_internal::RoutePiece): a piece
// covering shards [i, j] contributes a clipped part to i and j and one
// SpanRecord for the fully covered shards between. The piece/span pass
// closes its sinks before the edge pass starts, so target solves whose
// piece streams are complete can begin while this source still routes
// edges. Every channel of this source's rows — k * (S piece + 2S edge +
// 1 span) — is closed exactly once on every path, via the multi-sink close
// helper: an unclosed channel would park its consumer forever.
Status RouteSource(Env& env, BatchChannels& channels,
                   const std::vector<ShardInfo>& shards,
                   const std::vector<double>& bounds,
                   const std::vector<Interval>& ranges, size_t source,
                   const std::vector<BatchQuery>& queries) {
  const size_t num_shards = shards.size();
  const size_t k = queries.size();

  auto close_edges = [&](Status st) {
    std::vector<RecordSink<EdgeRecord>*> sinks;
    sinks.reserve(2 * k * num_shards);
    for (size_t q = 0; q < k; ++q) {
      for (size_t t = 0; t < num_shards; ++t) {
        sinks.push_back(channels.edge_left(q, source, t));
        sinks.push_back(channels.edge_right(q, source, t));
      }
    }
    return CloseAllSinks<EdgeRecord>(sinks, std::move(st));
  };

  // Pass 1: the shared y-file scan — all k transforms per object.
  Status piece_status = [&]() -> Status {
    MAXRS_ASSIGN_OR_RETURN(
        RecordReader<SpatialObject> reader,
        RecordReader<SpatialObject>::Make(env, shards[source].y_file));
    SpatialObject o{};
    while (reader.Next(&o)) {
      // Expiry unwinds through the close-on-error protocol below, so every
      // consumer blocked on this row's channels observes kDeadlineExceeded.
      MAXRS_RETURN_IF_ERROR(CheckBatchCancel(queries));
      for (size_t q = 0; q < k; ++q) {
        auto emit_piece = [&](size_t target, const PieceRecord& piece) {
          return channels.piece(q, source, target)->Append(piece);
        };
        auto emit_span = [&](const SpanRecord& span) {
          return channels.span(q, source)->Append(span);
        };
        const PieceRecord p =
            TransformObject(o, queries[q].width, queries[q].height);
        MAXRS_RETURN_IF_ERROR(division_internal::RoutePiece(
            bounds, ranges, p, emit_piece, emit_span));
      }
    }
    return reader.final_status();
  }();
  {
    std::vector<RecordSink<PieceRecord>*> piece_sinks;
    std::vector<RecordSink<SpanRecord>*> span_sinks;
    piece_sinks.reserve(k * num_shards);
    span_sinks.reserve(k);
    for (size_t q = 0; q < k; ++q) {
      for (size_t t = 0; t < num_shards; ++t) {
        piece_sinks.push_back(channels.piece(q, source, t));
      }
      span_sinks.push_back(channels.span(q, source));
    }
    piece_status = CloseAllSinks<PieceRecord>(piece_sinks, piece_status);
    piece_status = CloseAllSinks<SpanRecord>(span_sinks, piece_status);
  }
  if (!piece_status.ok()) {
    (void)close_edges(piece_status);
    return piece_status;
  }

  // Pass 2: the shared x-file scan — every query's two edge shifts per
  // object, routed by value.
  Status edge_status = [&]() -> Status {
    MAXRS_ASSIGN_OR_RETURN(
        RecordReader<SpatialObject> reader,
        RecordReader<SpatialObject>::Make(env, shards[source].x_file));
    SpatialObject o{};
    while (reader.Next(&o)) {
      MAXRS_RETURN_IF_ERROR(CheckBatchCancel(queries));
      for (size_t q = 0; q < k; ++q) {
        const double half_w = queries[q].width / 2.0;
        const double left = o.x - half_w;
        const double right = o.x + half_w;
        MAXRS_RETURN_IF_ERROR(
            channels
                .edge_left(q, source,
                           std::min(ShardOf(bounds, left), num_shards - 1))
                ->Append(EdgeRecord{left}));
        MAXRS_RETURN_IF_ERROR(
            channels
                .edge_right(q, source,
                            std::min(ShardOf(bounds, right), num_shards - 1))
                ->Append(EdgeRecord{right}));
      }
    }
    return reader.final_status();
  }();
  return close_edges(edge_status);
}

// The amortized per-query share of a batch's I/O delta: every counter is
// split into k equal integer shares with the remainder spread one block at
// a time over the first (counter mod k) queries in `rank` order — ranks
// are assigned by ascending canonical cache key, so the split is
// independent of batch formation order and the shares sum exactly to the
// batch total (docs/IO_MODEL.md, "Batched shared scans").
IoStatsSnapshot BatchIoShare(const IoStatsSnapshot& total, uint64_t k,
                             uint64_t rank) {
  auto share = [&](uint64_t v) { return v / k + (rank < v % k ? 1 : 0); };
  IoStatsSnapshot out;
  out.blocks_read = share(total.blocks_read);
  out.blocks_written = share(total.blocks_written);
  out.reads_retried = share(total.reads_retried);
  out.writes_retried = share(total.writes_retried);
  out.shards_pruned = share(total.shards_pruned);
  out.bound_skips = share(total.bound_skips);
  out.scans_shared = share(total.scans_shared);
  return out;
}

// Stamps every successful result of a batch with its amortized stats: the
// BatchIoShare of the batch's I/O delta (ranked by ascending canonical
// dimension bits), the batch wall time, and batch_size = k (a batch of one
// reports its whole delta). Failed slots are left untouched — a retryable
// failure re-runs solo and accounts solo.
void ApplyBatchShares(const std::vector<BatchQuery>& queries,
                      const IoStatsSnapshot& delta, double wall_seconds,
                      std::vector<Result<MaxRSResult>>* results) {
  const size_t k = queries.size();
  std::vector<size_t> order(k);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const uint64_t wa = CanonicalDimensionBits(queries[a].width);
    const uint64_t wb = CanonicalDimensionBits(queries[b].width);
    if (wa != wb) return wa < wb;
    return CanonicalDimensionBits(queries[a].height) <
           CanonicalDimensionBits(queries[b].height);
  });
  std::vector<uint64_t> rank(k, 0);
  for (size_t i = 0; i < k; ++i) rank[order[i]] = i;
  for (size_t q = 0; q < k; ++q) {
    if (!(*results)[q].ok()) continue;
    MaxRSStats& stats = (*results)[q].value().stats;
    stats.io = BatchIoShare(delta, k, rank[q]);
    stats.batch_size = k;
    stats.wall_seconds = wall_seconds;
  }
}

// ---------------------------------------------------------------------------
// Index-pruned per-shard execution (ServePruningMode::kAuto): the aggregate
// shard index (index/shard_agg_index.h) turns the per-shard mode into a
// branch-and-bound. For each target shard t, UB(t) — the total weight of
// all objects a rectangle centered in t's slab could possibly cover — is an
// upper bound on any placement in t, computed from the index with zero I/O.
// The execution is phased: route only the sources the most promising shard
// (the seed) needs, solve the seed to get an achievable incumbent weight,
// discard every shard whose bound cannot beat it, route the remaining
// sources the survivors need, and solve the survivors best-bound-first,
// re-checking each bound against the growing incumbent. The final
// cross-shard MergeSweep runs over ALL shard ranges with "" (known-empty)
// children standing in for skipped shards.
//
// Soundness (why answers are bit-identical to the un-pruned path):
//   - UB(t) counts every object within w/2 of t's slab — a superset of
//     anything a placement in t covers — so with non-negative weights
//     (pruning_safe()) no placement in t can weigh more than UB(t).
//   - The incumbent is a shard slab-file's best tuple sum: a real,
//     achievable placement weight (an UNDER-estimate of the true total,
//     which may add non-negative boundary-span weight on top).
//   - A shard is skipped only when UB(t) < incumbent STRICTLY, so a shard
//     that could tie the winner always survives — tie-breaking (first
//     maximum in root-stream order) is preserved exactly.
//   - A surviving shard's solve sees every source whose expanded x-MBR
//     reaches its slab — all sources that could route anything to it — so
//     its slab-file is byte-identical to the un-pruned one, and every
//     boundary span covering a surviving shard comes from a routed source.
//   - Skipped shards contribute no root tuples, but all of their placements
//     weigh strictly less than the incumbent (≤ final max), so the winning
//     tuple — and, with TopTupleTracker's stratum coalescing, its full
//     winning run — is unchanged.
// I/O never exceeds the un-pruned path: routing a source and solving a
// shard read/write exactly what the un-pruned execution would, and pruning
// only removes whole routes/solves.
// ---------------------------------------------------------------------------

// Weight upper bound of every target shard for rect width `width`: the
// index-aggregated weight of all objects whose x lies within w/2 of the
// shard's slab (closed window — boundary objects count; over-approximating
// is sound, under-approximating would not be).
std::vector<double> ShardUpperBounds(const ShardAggIndex& index,
                                     const std::vector<ShardInfo>& shards,
                                     double width) {
  const double half_w = width / 2.0;
  std::vector<double> ub;
  ub.reserve(shards.size());
  for (const ShardInfo& shard : shards) {
    ub.push_back(index.WindowWeight(shard.x_range.lo - half_w,
                                    shard.x_range.hi + half_w));
  }
  return ub;
}

// Seed choice: the shard with the largest bound, ties to the lowest index
// (deterministic; any choice is sound, the largest bound tends to hold the
// winner and thus prunes the most).
size_t ArgMaxUpperBound(const std::vector<double>& ub) {
  size_t best = 0;
  for (size_t i = 1; i < ub.size(); ++i) {
    if (ub[i] > ub[best]) best = i;
  }
  return best;
}

// Whether source shard `s` can route anything (pieces, edges, or spans) to
// a target with slab `slab`: its object x-MBR expanded by w/2 must reach
// the slab. Closed-interval test — conservatively routes boundary-touching
// sources (an empty routed part costs no blocks).
bool SourceFeedsTarget(const ShardAggIndex& index, size_t s,
                       const Interval& slab, double width) {
  const double half_w = width / 2.0;
  return index.Intersects(s, slab.lo - half_w, slab.hi + half_w);
}

// Phase C of one query: drain the span channels of the routed rows (all
// closed by now — they act as deterministic buffers) into one SpanYLess-
// merged file, run the cross-shard MergeSweep over ALL shard ranges — ""
// children stand in for shards the pruned plan skipped, and MergeSweep
// treats them as known-empty at zero I/O — then scan the root stream for
// the answer and fold the per-shard stats (skipped and empty shards'
// untouched stats blocks fold as zeros). With one shard its slab-file is
// the root stream.
Result<MaxRSResult> CombineQuery(Env& env, TempFileManager& temps,
                                 BatchChannels& channels, size_t q,
                                 const std::vector<size_t>& routed,
                                 const std::vector<Interval>& ranges,
                                 const std::vector<std::string>& slab_files,
                                 const std::vector<MaxRSStats>& stats,
                                 uint64_t input_objects,
                                 const CancelToken* cancel) {
  const size_t num_shards = ranges.size();
  uint64_t num_spans = 0;
  std::string root_file;
  if (num_shards == 1) {
    root_file = slab_files[0];
  } else {
    std::string span_file = temps.NewName("q_spans");
    {
      std::vector<RecordSource<SpanRecord>*> span_sources;
      span_sources.reserve(routed.size());
      for (size_t s : routed) span_sources.push_back(channels.span(q, s));
      MergingSource<SpanRecord, decltype(&SpanYLess)> spans(
          std::move(span_sources), &SpanYLess);
      MAXRS_ASSIGN_OR_RETURN(RecordWriter<SpanRecord> writer,
                             RecordWriter<SpanRecord>::Make(env, span_file));
      SpanRecord span{};
      while (spans.Next(&span)) {
        MAXRS_RETURN_IF_ERROR(CheckCancel(cancel));
        MAXRS_RETURN_IF_ERROR(writer.Append(span));
      }
      MAXRS_RETURN_IF_ERROR(spans.final_status());
      MAXRS_RETURN_IF_ERROR(writer.Finish());
      num_spans = writer.count();
    }
    root_file = temps.NewName("q_root");
    MAXRS_RETURN_IF_ERROR(MergeSweep(env, ranges, slab_files, span_file,
                                     root_file, SweepObjective::kMaximize,
                                     cancel));
    for (const std::string& slab_file : slab_files) {
      if (!slab_file.empty()) temps.Release(slab_file);
    }
    temps.Release(span_file);
  }

  core_internal::TopTupleTracker tracker(1);
  {
    MAXRS_ASSIGN_OR_RETURN(RecordReader<SlabTuple> reader,
                           RecordReader<SlabTuple>::Make(env, root_file));
    SlabTuple t{};
    while (reader.Next(&t)) {
      MAXRS_RETURN_IF_ERROR(CheckCancel(cancel));
      tracker.Visit(t);
    }
    MAXRS_RETURN_IF_ERROR(reader.final_status());
  }
  temps.Release(root_file);

  MaxRSResult result;
  auto best = tracker.Finish();
  if (best.empty()) {
    result.region = Rect{-kInf, kInf, -kInf, kInf};
  } else {
    result.location = best[0].location;
    result.total_weight = best[0].total_weight;
    result.region = best[0].region;
  }
  result.stats.input_objects = input_objects;
  for (const MaxRSStats& s : stats) {
    result.stats.base_cases += s.base_cases;
    result.stats.merges += s.merges;
    result.stats.total_spans += s.total_spans;
    result.stats.recursion_levels =
        std::max(result.stats.recursion_levels,
                 s.recursion_levels + (num_shards > 1 ? 1 : 0));
  }
  if (num_shards > 1) {
    ++result.stats.merges;  // the cross-shard MergeSweep
    result.stats.total_spans += num_spans;
  }
  return {std::move(result)};
}

}  // namespace

MaxRSServer::MaxRSServer(Env& env, const DatasetHandle& dataset,
                         const MaxRSServerOptions& options)
    : env_(env),
      dataset_(dataset),
      options_(options),
      queue_(options.queue_capacity),
      // Clamped to [1, 1024]: constructors have no Status path, and a
      // worker count beyond that is a unit mix-up, not a real machine
      // (same rationale as the core layer's num_threads validation).
      pool_(std::make_unique<ThreadPool>(std::min<size_t>(
          std::max<size_t>(1, options.num_workers), 1024))) {
  // Shared buffer pool over the dataset's immutable files, before the
  // workers start: they read exec_env_ unsynchronized.
  if (options_.buffer_pool_bytes > 0) {
    pooled_env_ = std::make_unique<PooledEnv>(
        env_, options_.buffer_pool_bytes, options_.buffer_pool_pin_wait_ms);
    pooled_env_->AddPooledPrefix(dataset_.prefix());
  }
  exec_env_ = pooled_env_ != nullptr ? static_cast<Env*>(pooled_env_.get())
                                     : &env_;
  // Reject a bad configuration now (stored; every Submit returns it),
  // rather than paying a full per-shard derivation pass per doomed query
  // before the core validation finally fires.
  config_status_ =
      ValidateMaxRSOptions(MakeQueryOptions(1.0, 1.0), env_.block_size());
  worker_threads_.reserve(pool_->num_threads());
  for (size_t i = 0; i < pool_->num_threads(); ++i) {
    worker_threads_.emplace_back([this] { WorkerLoop(); });
  }
}

MaxRSServer::~MaxRSServer() { Shutdown(); }

void MaxRSServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  queue_.Close();
  for (std::thread& t : worker_threads_) t.join();
}

ServerCounters MaxRSServer::counters() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_;
}

MaxRSOptions MaxRSServer::MakeQueryOptions(double width, double height,
                                           const CancelToken* cancel) const {
  MaxRSOptions query_options;
  query_options.rect_width = width;
  query_options.rect_height = height;
  query_options.cancel = cancel;
  query_options.memory_bytes = options_.memory_bytes;
  query_options.fanout = options_.fanout;
  query_options.base_case_max_pieces = options_.base_case_max_pieces;
  query_options.work_prefix = options_.work_prefix;
  // Queries parallelize across workers and across shard subtasks, not
  // inside one slab solve: the serial path is the deterministic one, and
  // it keeps per-query memory at one M.
  query_options.num_threads = 1;
  query_options.stream_channel_bytes = options_.stream_channel_bytes;
  return query_options;
}

MaxRSServer::CacheKey MaxRSServer::MakeKey(double width, double height) {
  return CacheKey{CanonicalDimensionBits(width),
                  CanonicalDimensionBits(height)};
}

std::optional<MaxRSResult> MaxRSServer::CacheLookup(const CacheKey& key) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_index_.find(key);
  if (it == cache_index_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->second;
}

void MaxRSServer::CacheInsert(const CacheKey& key, const MaxRSResult& result) {
  if (options_.cache_entries == 0) return;
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_index_.find(key);
  if (it != cache_index_.end()) {
    // Concurrent duplicate miss: both executions computed the identical
    // (deterministic) result; keep the existing entry, refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, result);
  cache_index_[key] = lru_.begin();
  while (lru_.size() > options_.cache_entries) {
    cache_index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

bool MaxRSServer::AdmitKeyToCache(const CacheKey& key) const {
  if (!dataset_.has_bounds()) return true;
  // Reconstruct the canonical dimension values the key stores. Deciding on
  // these — never on a caller's raw doubles — makes admission a pure
  // function of the cache key: -0.0 has already been folded to +0.0 and
  // NaN payloads collapsed, so two submissions that share a cache entry
  // can never be admitted differently.
  double width = 0.0, height = 0.0;
  std::memcpy(&width, &key.width_bits, sizeof(width));
  std::memcpy(&height, &key.height_bits, sizeof(height));
  const double extent_w = dataset_.bounds().width();
  const double extent_h = dataset_.bounds().height();
  if (!(extent_w > 0.0) || !(extent_h > 0.0)) return true;  // degenerate box
  const double covered = (std::min(width, extent_w) / extent_w) *
                         (std::min(height, extent_h) / extent_h);
  return covered <= options_.cache_max_extent_fraction;
}

bool MaxRSServer::AdmitsToCache(double width, double height) const {
  return AdmitKeyToCache(MakeKey(width, height));
}

Status MaxRSServer::ValidateSpec(const QuerySpec& spec) {
  if (!std::isfinite(spec.width) || !std::isfinite(spec.height) ||
      !(spec.width > 0.0) || !(spec.height > 0.0)) {
    return Status::InvalidArgument(
        "rectangle dimensions must be positive and finite");
  }
  if (spec.deadline_ms.has_value() && *spec.deadline_ms < 0) {
    return Status::InvalidArgument(
        "deadline_ms override must be non-negative (0 disables)");
  }
  return Status::OK();
}

QueryResponse MaxRSServer::MakeResponse(MaxRSResult result, ServedFrom served) {
  QueryResponse response;
  response.batch_size = result.stats.batch_size;
  if (served == ServedFrom::kExecuted) response.io = result.stats.io;
  response.served_from = served;
  response.result = std::move(result);
  return response;
}

namespace {
// An already-completed future — the zero-thread path for validation
// errors, cache hits, and refused admissions.
std::future<Result<QueryResponse>> ReadyFuture(Result<QueryResponse> value) {
  std::promise<Result<QueryResponse>> promise;
  std::future<Result<QueryResponse>> future = promise.get_future();
  promise.set_value(std::move(value));
  return future;
}
}  // namespace

std::future<Result<QueryResponse>> MaxRSServer::SubmitInternal(
    const QuerySpec& spec, bool* dedup, int64_t* deadline_ms) {
  *dedup = false;
  *deadline_ms = spec.deadline_ms.value_or(options_.deadline_ms);
  const Status valid = ValidateSpec(spec);
  if (!valid.ok()) return ReadyFuture(valid);
  if (!config_status_.ok()) return ReadyFuture(config_status_);
  const CacheKey key = MakeKey(spec.width, spec.height);
  if (std::optional<MaxRSResult> hit = CacheLookup(key)) {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.submitted;
    ++counters_.cache_hits;
    return ReadyFuture(MakeResponse(*std::move(hit), ServedFrom::kCache));
  }

  // In-flight dedup: become a follower of an executing leader, or claim
  // the leader slot. The worker publishes to the cache *before* erasing
  // the pending entry, so a missing entry here means a second cache lookup
  // is authoritative — without it, a duplicate arriving in the gap between
  // the leader's cache insert and promise fulfillment would re-execute.
  // Mode overrides are NOT part of the key: they never change the answer,
  // so a leader running under different modes still serves this caller.
  std::future<Result<QueryResponse>> future;
  std::shared_ptr<Request> request;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    auto it = pending_.find(key);
    if (it != pending_.end()) {
      // Attach a waiter promise while the entry exists — CompleteRequest
      // moves the list out under this same lock, so the promise cannot be
      // orphaned. Queue-jump signal for the batch former: this leader now
      // has one more caller waiting on it.
      it->second->waiters.emplace_back();
      future = it->second->waiters.back().get_future();
      it->second->followers.fetch_add(1, std::memory_order_relaxed);
      *dedup = true;
    } else {
      if (std::optional<MaxRSResult> hit = CacheLookup(key)) {
        std::lock_guard<std::mutex> counters_lock(counters_mu_);
        ++counters_.submitted;
        ++counters_.cache_hits;
        return ReadyFuture(MakeResponse(*std::move(hit), ServedFrom::kCache));
      }
      request = std::make_shared<Request>(
          spec.width, spec.height,
          std::chrono::milliseconds(std::max<int64_t>(0, *deadline_ms)),
          spec.pruning.value_or(options_.pruning_mode));
      future = request->promise.get_future();
      pending_.emplace(key, request);
    }
  }
  if (request == nullptr) {  // follower: its future completes with the leader
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.submitted;
    ++counters_.dedup_hits;
    return future;
  }

  // Bounded admission: wait at most the admission budget for queue room.
  // Blocking forever would wedge every submitter behind one slow query;
  // past the budget the request is shed with kUnavailable — a retryable
  // signal the caller may back off on. kClosed stays the distinct
  // shutdown status so clients can tell overload from termination.
  const PushResult pushed = queue_.PushFor(
      request, std::chrono::milliseconds(
                   std::max<int64_t>(0, options_.admission_timeout_ms)));
  if (pushed != PushResult::kAccepted) {
    FailRequest(request,
                pushed == PushResult::kClosed
                    ? Status::NotSupported("MaxRSServer is shut down")
                    : Status::Unavailable(
                          "MaxRSServer overloaded: queue full past the "
                          "admission budget"));
    if (pushed == PushResult::kTimedOut) {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.shed;
    }
    return future;
  }
  {
    // submitted and the queue-depth accounting move under one lock
    // acquisition so counters() and queue_depth() snapshots are mutually
    // consistent (queue_depth() never exceeds submitted - executed). A
    // worker that popped this request before we get here only makes
    // queue_depth() under-report transiently — the safe direction.
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.submitted;
    ++queued_enqueued_;
  }
  return future;
}

std::future<Result<QueryResponse>> MaxRSServer::SubmitAsync(
    const QuerySpec& spec) {
  bool dedup = false;
  int64_t deadline_ms = 0;
  return SubmitInternal(spec, &dedup, &deadline_ms);
}

Result<QueryResponse> MaxRSServer::Submit(const QuerySpec& spec) {
  bool dedup = false;
  int64_t deadline_ms = 0;
  std::future<Result<QueryResponse>> future =
      SubmitInternal(spec, &dedup, &deadline_ms);
  if (dedup && deadline_ms > 0) {
    // The follower's own deadline, measured from ITS Submit — never the
    // leader's token, whose clock started earlier (and which must not be
    // cancelled: other callers may still be waiting on it). A leader stuck
    // in a long queue past this follower's budget fails THIS caller with
    // kDeadlineExceeded while the leader runs on undisturbed.
    if (future.wait_for(std::chrono::milliseconds(deadline_ms)) ==
        std::future_status::timeout) {
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.deadlines;
      }
      return Status::DeadlineExceeded(
          "deduplicated query exceeded its deadline waiting on the "
          "in-flight leader");
    }
  }
  return future.get();
}

Result<MaxRSResult> MaxRSServer::Submit(double rect_width, double rect_height) {
  QuerySpec spec;
  spec.width = rect_width;
  spec.height = rect_height;
  MAXRS_ASSIGN_OR_RETURN(QueryResponse response, Submit(spec));
  return {std::move(response.result)};
}

void MaxRSServer::WorkerLoop() {
  while (true) {
    std::vector<std::shared_ptr<Request>> batch = FormBatch();
    if (batch.empty()) return;  // queue closed and drained
    ExecuteBatch(std::move(batch));
  }
}

bool MaxRSServer::ShapeCompatible(const Request& anchor,
                                  const Request& candidate) {
  // A batch executes under one pruning mode — its plan is computed once —
  // so requests carrying different effective overrides never share a batch.
  if (candidate.pruning != anchor.pruning) return false;
  // Rects within this aspect band share a scan profitably: a batch-mate
  // whose width dwarfs the anchor's would route most of its pieces across
  // many shards while the anchor's stay local, and the shared channels
  // would mostly carry one query's traffic.
  constexpr double kBatchShapeRatio = 8.0;
  return candidate.width <= anchor.width * kBatchShapeRatio &&
         anchor.width <= candidate.width * kBatchShapeRatio &&
         candidate.height <= anchor.height * kBatchShapeRatio &&
         anchor.height <= candidate.height * kBatchShapeRatio;
}

std::vector<std::shared_ptr<MaxRSServer::Request>> MaxRSServer::FormBatch() {
  const size_t batch_max =
      std::min<size_t>(std::max<size_t>(1, options_.batch_max), 64);
  std::vector<std::shared_ptr<Request>> candidates;

  auto take_staged = [&] {
    std::lock_guard<std::mutex> lock(staging_mu_);
    while (!staged_.empty() && candidates.size() < 2 * batch_max) {
      candidates.push_back(std::move(staged_.front()));
      staged_.pop_front();
    }
  };
  auto try_pop = [&]() -> bool {
    std::shared_ptr<Request> request;
    if (!queue_.TryPop(&request)) return false;
    {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++queued_dequeued_;
    }
    candidates.push_back(std::move(request));
    return true;
  };

  take_staged();
  if (candidates.empty()) {
    // Nothing deferred from an earlier formation: block for the next
    // request. Pop returning false means closed AND drained — but a peer
    // worker may have re-staged requests after our check above, so sweep
    // the staging deque once more before declaring shutdown.
    std::shared_ptr<Request> request;
    if (queue_.Pop(&request)) {
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++queued_dequeued_;
      }
      candidates.push_back(std::move(request));
    } else {
      take_staged();
      if (candidates.empty()) return {};
    }
  }

  if (batch_max > 1) {
    // Drain whatever is instantaneously queued (up to twice the batch size
    // so the priority sort below has alternatives), then wait out the
    // batch window for late arrivals. Polling keeps the MPMC queue's
    // simple contract; 500us is far below any real query's runtime.
    const auto window_end =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(
            std::max<int64_t>(0, options_.batch_window_ms));
    while (candidates.size() < 2 * batch_max) {
      if (try_pop()) continue;
      if (candidates.size() >= batch_max) break;
      if (std::chrono::steady_clock::now() >= window_end) break;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
  if (candidates.size() == 1) return candidates;

  // Leaders with followers jump the queue: every follower is a caller
  // blocked on that leader's future, so serving it first unblocks the
  // most work. stable_sort keeps FIFO order among equals.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const std::shared_ptr<Request>& a,
                      const std::shared_ptr<Request>& b) {
                     return a->followers.load(std::memory_order_relaxed) >
                            b->followers.load(std::memory_order_relaxed);
                   });
  std::vector<std::shared_ptr<Request>> batch;
  std::vector<std::shared_ptr<Request>> deferred;
  batch.push_back(candidates[0]);
  for (size_t i = 1; i < candidates.size(); ++i) {
    if (batch.size() < batch_max && ShapeCompatible(*batch[0], *candidates[i])) {
      batch.push_back(std::move(candidates[i]));
    } else {
      deferred.push_back(std::move(candidates[i]));
    }
  }
  if (!deferred.empty()) {
    // Back to the FRONT of the staging deque in their drained order:
    // deferred requests are older than anything still in the MPMC queue,
    // so the next formation must see them first.
    std::lock_guard<std::mutex> lock(staging_mu_);
    for (size_t i = deferred.size(); i-- > 0;) {
      staged_.push_front(std::move(deferred[i]));
    }
  }
  return batch;
}

void MaxRSServer::CompleteRequest(const std::shared_ptr<Request>& request,
                                  Result<MaxRSResult> result) {
  const CacheKey key = MakeKey(request->width, request->height);
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.executed;
    if (!result.ok()) {
      ++counters_.failed;
      if (result.status().code() == Status::Code::kDeadlineExceeded) {
        ++counters_.deadlines;
      } else if (result.status().code() == Status::Code::kCorruption) {
        ++counters_.corruptions;
      }
    }
  }
  if (result.ok()) {
    if (AdmitKeyToCache(key)) {
      CacheInsert(key, result.value());
    } else {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.cache_rejects;
    }
  }
  // Publish-then-erase: see SubmitInternal — a duplicate that misses the
  // pending table after this erase must find the result in the cache. The
  // waiter list moves out under the same lock, so no follower can attach
  // after it is drained.
  std::vector<std::promise<Result<QueryResponse>>> waiters;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    waiters = std::move(request->waiters);
    pending_.erase(key);
  }
  for (std::promise<Result<QueryResponse>>& waiter : waiters) {
    waiter.set_value(result.ok()
                         ? Result<QueryResponse>(MakeResponse(
                               result.value(), ServedFrom::kDedup))
                         : Result<QueryResponse>(result.status()));
  }
  request->promise.set_value(
      result.ok() ? Result<QueryResponse>(MakeResponse(std::move(result).value(),
                                                       ServedFrom::kExecuted))
                  : Result<QueryResponse>(result.status()));
}

void MaxRSServer::FailRequest(const std::shared_ptr<Request>& request,
                              const Status& refused) {
  // Collect-then-fail under one pending_mu_ hold: a follower attaching
  // between a promise failure and the erase would wait forever.
  std::vector<std::promise<Result<QueryResponse>>> waiters;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    waiters = std::move(request->waiters);
    pending_.erase(MakeKey(request->width, request->height));
  }
  for (std::promise<Result<QueryResponse>>& waiter : waiters) {
    waiter.set_value(Result<QueryResponse>(refused));
  }
  request->promise.set_value(Result<QueryResponse>(refused));
}

void MaxRSServer::ExecuteBatch(std::vector<std::shared_ptr<Request>> batch) {
  // A request whose deadline elapsed while it queued fails now, before it
  // can claim a slot in the shared scan.
  std::vector<std::shared_ptr<Request>> live;
  live.reserve(batch.size());
  for (std::shared_ptr<Request>& request : batch) {
    const Status expired = CheckCancel(&request->cancel);
    if (!expired.ok()) {
      CompleteRequest(request, expired);
    } else {
      live.push_back(std::move(request));
    }
  }
  if (live.empty()) return;

  if (options_.solve_mode == ServeSolveMode::kGlobalMerge) {
    // The global merge has no shareable pass: a formed batch executes as a
    // plain sequence.
    for (const std::shared_ptr<Request>& request : live) {
      CompleteRequest(request, ExecuteGlobalMerge(request->width,
                                                  request->height,
                                                  &request->cancel));
    }
    return;
  }

  // ShapeCompatible keeps batches pruning-homogeneous, so live[0]'s
  // effective mode speaks for every member.
  const bool pruned = PruningActiveFor(live[0]->pruning);
  if (!pruned && live[0]->pruning == ServePruningMode::kAuto &&
      dataset_.shards().size() > 1) {
    // Pruning was wanted but the dataset cannot support it (no usable
    // aggregate index, or weights unsafe to bound): count the degradation
    // per query. Only the shard skipping is lost — answers are unchanged.
    std::lock_guard<std::mutex> lock(counters_mu_);
    counters_.unpruned += live.size();
  }

  std::vector<Result<MaxRSResult>> results =
      ExecuteBatchStreaming(live, pruned);
  if (live.size() > 1) {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.batches;
    counters_.batched_queries += live.size();
  }
  for (size_t q = 0; q < live.size(); ++q) {
    if (!results[q].ok() && results[q].status().is_retryable()) {
      // Graceful degradation, one shot: a query that failed with a
      // retryable (transient) error — Env retries already exhausted —
      // re-runs ALONE through the same runner before the failure reaches
      // the client; its batch-mates' results are unaffected, and its stats
      // are the solo rerun's (batch_size 1, un-amortized I/O). Terminal
      // errors (kCorruption, kDeadlineExceeded) are never re-run: the rerun
      // would read the same bad bytes or re-exceed the same deadline.
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.degraded;
      }
      results[q] = std::move(ExecuteBatchStreaming({live[q]}, pruned)[0]);
    }
    CompleteRequest(live[q], std::move(results[q]));
  }
}

std::vector<Result<MaxRSResult>> MaxRSServer::ExecuteBatchStreaming(
    const std::vector<std::shared_ptr<Request>>& batch, bool pruned) {
  Env& env = *exec_env_;
  TempFileManager temps(env, options_.work_prefix);
  const IoStatsSnapshot io_before = env.stats().Snapshot();
  Stopwatch timer;

  const std::vector<ShardInfo>& shards = dataset_.shards();
  const size_t num_shards = shards.size();
  const std::vector<double>& bounds = dataset_.interior_bounds();
  const std::vector<Interval>& ranges = dataset_.slab_ranges();
  const size_t k = batch.size();
  std::vector<BatchQuery> queries(k);
  std::vector<MaxRSOptions> query_options(k);
  for (size_t q = 0; q < k; ++q) {
    queries[q] =
        BatchQuery{batch[q]->width, batch[q]->height, &batch[q]->cancel};
    query_options[q] =
        MakeQueryOptions(batch[q]->width, batch[q]->height, &batch[q]->cancel);
  }

  // The plan (zero I/O): each query's first-wave targets. Un-pruned, that
  // is every target and there is no second wave. Pruned, it is the seed —
  // the shard with the largest index bound — whose solve yields the
  // incumbent the second wave is pruned against.
  const ShardAggIndex* index = pruned ? dataset_.agg_index() : nullptr;
  std::vector<std::vector<double>> ub(k);
  std::vector<std::vector<size_t>> wave_targets(k);
  for (size_t q = 0; q < k; ++q) {
    if (pruned) {
      ub[q] = ShardUpperBounds(*index, shards, queries[q].width);
      wave_targets[q] = {ArgMaxUpperBound(ub[q])};
    } else {
      wave_targets[q].resize(num_shards);
      std::iota(wave_targets[q].begin(), wave_targets[q].end(), size_t{0});
    }
  }

  std::vector<Status> per_query(k, Status::OK());
  std::vector<std::vector<std::string>> slab_files(
      k, std::vector<std::string>(num_shards));
  std::vector<std::vector<MaxRSStats>> shard_stats(
      k, std::vector<MaxRSStats>(num_shards));
  std::vector<SlabBest> incumbents(k);
  std::vector<Result<MaxRSResult>> results;
  results.reserve(k);
  {
    // Channels, then producers, then consumers — the liveness order. Every
    // latch is waited on before `channels` leaves scope: producers hold
    // raw pointers into it. Rows of sources never routed never close;
    // consumers only ever merge routed rows, so nobody waits on them.
    BatchChannels channels(env, temps, k, num_shards,
                           options_.stream_channel_bytes);
    std::vector<Status> producer_status(num_shards);
    std::vector<char> is_routed(num_shards, 0);
    std::vector<size_t> routed;  // ascending — the canonical merge order

    // One routing wave: every not-yet-routed source that can feed one of
    // some still-OK query's `wave_targets`, scanned once for the whole
    // batch. Soundness of the union: a source routed on behalf of other
    // members routes nothing to any target of q it could not feed
    // (SourceFeedsTarget is exactly the can-route-anything test), so q's
    // merged streams are the same as if it ran alone; the extra sources'
    // boundary spans can only cover q's pruned (known-empty) children,
    // adding no root tuples (only the total_spans stat may grow).
    auto plan_wave = [&] {
      std::vector<size_t> wave;
      for (size_t s = 0; s < num_shards; ++s) {
        bool needed = false;
        for (size_t q = 0; q < k && !needed && !is_routed[s]; ++q) {
          if (!per_query[q].ok()) continue;
          for (size_t t : wave_targets[q]) {
            if (index == nullptr ||
                SourceFeedsTarget(*index, s, shards[t].x_range,
                                  queries[q].width)) {
              needed = true;
              break;
            }
          }
        }
        if (needed) {
          wave.push_back(s);
          is_routed[s] = 1;
        }
      }
      routed.clear();
      for (size_t s = 0; s < num_shards; ++s) {
        if (is_routed[s]) routed.push_back(s);
      }
      return wave;
    };
    auto submit_wave = [&](const std::vector<size_t>& wave, JoinLatch* latch) {
      for (size_t s : wave) {
        pool_->Submit([&, s, latch] {
          producer_status[s] = RouteSource(env, channels, shards, bounds,
                                           ranges, s, queries);
          latch->CountDown();
        });
      }
      // Each source scan runs once instead of k times.
      if (k > 1 && !wave.empty()) {
        env.stats().RecordScansShared((k - 1) * wave.size());
      }
    };
    // Joins a wave's producers (consumers done does not imply producers
    // done: a base-case consumer abandons its edge column) and poisons
    // every still-OK query with its routing failure — the scan was shared,
    // so all of them read from the failed pass.
    auto join_wave = [&](const std::vector<size_t>& wave, JoinLatch* latch) {
      latch->Wait();
      for (size_t s : wave) {
        if (producer_status[s].ok()) continue;
        for (Status& st : per_query) {
          if (st.ok()) st = producer_status[s];
        }
        break;
      }
    };
    auto solve = [&](size_t q, size_t t, SlabBest* best) -> Status {
      std::vector<RecordSource<PieceRecord>*> piece_column;
      std::vector<RecordSource<EdgeRecord>*> edge_column;
      piece_column.reserve(routed.size());
      edge_column.reserve(2 * routed.size());
      for (size_t s : routed) {
        piece_column.push_back(channels.piece(q, s, t));
        edge_column.push_back(channels.edge_left(q, s, t));
        edge_column.push_back(channels.edge_right(q, s, t));
      }
      return SolveTargetColumn(env, temps, std::move(piece_column),
                               std::move(edge_column), shards[t].x_range,
                               query_options[q], &shard_stats[q][t],
                               &slab_files[q][t], best);
    };
    // Lets `body(q, group)` schedule the solves of every still-OK query,
    // concurrent across queries, then joins them: ONE TaskGroup PER QUERY — a group no-ops its queued tasks
    // after its first error, and one query's failure or deadline must only
    // stop ITS solves, never a batch-mate's.
    auto per_query_tasks = [&](auto body) {
      std::vector<std::unique_ptr<TaskGroup>> groups;
      groups.reserve(k);
      for (size_t q = 0; q < k; ++q) {
        groups.push_back(std::make_unique<TaskGroup>(pool_.get()));
        if (per_query[q].ok()) body(q, groups[q].get());
      }
      for (size_t q = 0; q < k; ++q) {
        const Status st = groups[q]->Wait();
        if (per_query[q].ok()) per_query[q] = st;
      }
    };

    // Wave 1: the first-wave targets, solved in parallel (the pruned seed
    // reports its incumbent).
    std::vector<size_t> wave = plan_wave();
    JoinLatch wave1_done(wave.size());
    submit_wave(wave, &wave1_done);
    per_query_tasks([&](size_t q, TaskGroup* group) {
      for (size_t t : wave_targets[q]) {
        group->Run([&, q, t] {
          return solve(q, t, pruned ? &incumbents[q] : nullptr);
        });
      }
    });
    join_wave(wave, &wave1_done);

    if (pruned) {
      // Per-query prune against the seed incumbent. Strictly-less — a shard
      // that could TIE the winner must survive, or the first-maximum
      // tie-break would shift.
      uint64_t pruned_count = 0;
      for (size_t q = 0; q < k; ++q) {
        const size_t seed = wave_targets[q][0];
        wave_targets[q].clear();
        if (!per_query[q].ok()) continue;
        for (size_t t = 0; t < num_shards; ++t) {
          if (t == seed) continue;
          if (incumbents[q].has_value && ub[q][t] < incumbents[q].sum) {
            ++pruned_count;
          } else {
            wave_targets[q].push_back(t);
          }
        }
        // Best bound first, ties to the lowest index.
        std::sort(wave_targets[q].begin(), wave_targets[q].end(),
                  [&](size_t a, size_t b) {
                    if (ub[q][a] != ub[q][b]) return ub[q][a] > ub[q][b];
                    return a < b;
                  });
      }
      if (pruned_count > 0) env.stats().RecordShardsPruned(pruned_count);

      // Wave 2: the survivors, sequentially per query, each bound
      // re-checked against the incumbent the previous solves grew.
      // Sequential on purpose: parallel solves would race the incumbent
      // and make the skipped set — and the block count — schedule-
      // dependent. A skipped shard keeps its "" slab-file name.
      std::vector<uint64_t> bound_skips(k, 0);
      wave = plan_wave();
      JoinLatch wave2_done(wave.size());
      submit_wave(wave, &wave2_done);
      per_query_tasks([&](size_t q, TaskGroup* group) {
        group->Run([&, q]() -> Status {
          for (size_t t : wave_targets[q]) {
            if (incumbents[q].has_value && ub[q][t] < incumbents[q].sum) {
              ++bound_skips[q];
              continue;
            }
            MAXRS_RETURN_IF_ERROR(solve(q, t, &incumbents[q]));
          }
          return Status::OK();
        });
      });
      join_wave(wave, &wave2_done);
      const uint64_t total_skips =
          std::accumulate(bound_skips.begin(), bound_skips.end(), uint64_t{0});
      if (total_skips > 0) env.stats().RecordBoundSkip(total_skips);
    }

    // Phase C per query, sequential on the batch worker.
    for (size_t q = 0; q < k; ++q) {
      results.push_back(
          per_query[q].ok()
              ? CombineQuery(env, temps, channels, q, routed, ranges,
                             slab_files[q], shard_stats[q],
                             dataset_.num_objects(), &batch[q]->cancel)
              : Result<MaxRSResult>(per_query[q]));
    }
  }  // destroys the channels

  const IoStatsSnapshot delta = env.stats().Snapshot() - io_before;
  ApplyBatchShares(queries, delta, timer.ElapsedSeconds(), &results);
  bool any_failed = false;
  for (const Result<MaxRSResult>& r : results) any_failed |= !r.ok();
  if (any_failed) {
    // Failed queries abandoned scratch mid-pipeline; sweep everything this
    // batch's manager named (successful queries already released theirs).
    temps.ReleaseAll();
  }
  return results;
}

bool MaxRSServer::PruningActiveFor(ServePruningMode mode) const {
  if (mode == ServePruningMode::kOff) return false;
  if (options_.solve_mode != ServeSolveMode::kPerShard) return false;
  if (dataset_.shards().size() < 2) return false;
  const ShardAggIndex* index = dataset_.agg_index();
  return index != nullptr && index->pruning_safe();
}

Result<MaxRSResult> MaxRSServer::ExecuteGlobalMerge(
    double width, double height, const CancelToken* cancel) {
  Env& env = *exec_env_;
  TempFileManager temps(env, options_.work_prefix);

  auto body = [&]() -> Result<MaxRSResult> {
    const std::vector<ShardInfo>& shards = dataset_.shards();
    const size_t num_shards = shards.size();
    const MaxRSOptions query_options =
        MakeQueryOptions(width, height, cancel);

    // Per-shard rect-dependent derivation: linear passes over the
    // pre-sorted shard files, no sorting.
    std::vector<std::string> piece_parts(num_shards);
    std::vector<std::string> edge_parts(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      piece_parts[i] = temps.NewName("q_pieces");
      edge_parts[i] = temps.NewName("q_edges");
      bool canonical = true;
      MAXRS_RETURN_IF_ERROR(TransformShardPieces(
          env, shards[i], width, height, piece_parts[i], &canonical, cancel));
      if (!canonical) {
        // Sub-ulp coordinate collapse (see TransformShardPieces) broke the
        // derived order; fall back to a real sort for this shard so the
        // stream is canonical and bit-identity with one-shot runs holds
        // even on degenerate data. Never taken for ordinarily-spaced input.
        const std::string resorted = temps.NewName("q_pieces_resort");
        ExternalSortOptions sort_options{options_.memory_bytes, nullptr};
        MAXRS_RETURN_IF_ERROR(ExternalSort<PieceRecord>(
            env, piece_parts[i], resorted, PieceYLess, sort_options));
        temps.Release(piece_parts[i]);
        piece_parts[i] = resorted;
      }
      MAXRS_RETURN_IF_ERROR(
          BuildShardEdges(env, shards[i], width, edge_parts[i], cancel));
    }

    // Assemble the two global division-phase inputs. Shards partition the
    // objects, every per-shard stream is sorted, and both comparators are
    // total orders — so the (possibly multi-pass) MergeSortedParts run
    // reproduces byte-for-byte the files the one-shot pipeline's external
    // sorts would have produced, within the query's M/B - 1 fan-in budget.
    std::string piece_file, edge_file;
    if (num_shards == 1) {
      piece_file = piece_parts[0];
      edge_file = edge_parts[0];
    } else {
      const size_t fan_in = QueryMergeFanIn(options_.memory_bytes,
                                            env.block_size());
      piece_file = temps.NewName("q_pieces_sorted");
      edge_file = temps.NewName("q_edges_sorted");
      MAXRS_RETURN_IF_ERROR(MergeSortedParts<PieceRecord>(
          env, temps, piece_parts, piece_file, PieceYLess, fan_in));
      MAXRS_RETURN_IF_ERROR(MergeSortedParts<EdgeRecord>(
          env, temps, edge_parts, edge_file, EdgeXLess, fan_in));
    }

    PreparedInput input;
    input.piece_file = piece_file;
    input.edge_file = edge_file;
    input.num_pieces = dataset_.num_objects();
    input.x_range = Interval{-kInf, kInf};
    return RunExactMaxRSPrepared(env, input, query_options);
  };

  Result<MaxRSResult> result = body();
  if (!result.ok()) {
    // Sweep every scratch file this query's manager named — including
    // multi-pass merge intermediates — so repeated failing queries cannot
    // grow the Env without bound. (Scratch the Driver recursion allocates
    // under its own manager can still leak on a mid-recursion error; that
    // matches the one-shot pipeline's behavior.)
    temps.ReleaseAll();
  }
  return result;
}

}  // namespace maxrs
