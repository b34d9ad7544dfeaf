#include "core/exact_maxrs.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>

#include "core/division.h"
#include "core/merge_sweep.h"
#include "core/plane_sweep.h"
#include "io/external_sort.h"
#include "io/record_io.h"
#include "io/temp_manager.h"
#include "util/check.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace maxrs {
namespace {

// Upper bound on num_threads: a request beyond this is a unit mix-up (e.g.
// bytes passed as threads), not a real machine.
constexpr size_t kMaxThreads = 1024;

Status ValidateOptions(const MaxRSOptions& options, size_t block_size) {
  if (!std::isfinite(options.rect_width) ||
      !std::isfinite(options.rect_height) || !(options.rect_width > 0.0) ||
      !(options.rect_height > 0.0)) {
    return Status::InvalidArgument(
        "rectangle dimensions must be positive and finite");
  }
  if (options.memory_bytes < 4 * block_size) {
    return Status::InvalidArgument("memory budget must be at least 4 blocks");
  }
  if (options.fanout == 1) {
    return Status::InvalidArgument("fanout must be 0 (derive) or at least 2");
  }
  // Each division child needs one block of output buffer, so a fan-out
  // beyond M/B can never run within the memory budget.
  if (options.fanout > options.memory_bytes / block_size) {
    return Status::InvalidArgument(
        "fanout exceeds the block budget M/B; lower it or raise memory_bytes");
  }
  if (options.num_threads > kMaxThreads) {
    return Status::InvalidArgument("num_threads must be at most 1024");
  }
  return Status::OK();
}

// Base-case threshold (#pieces) shared by the recursion driver and the
// top-level small-input fast path.
uint64_t DeriveBaseCaseMax(const MaxRSOptions& options) {
  return options.base_case_max_pieces != 0
             ? options.base_case_max_pieces
             : std::max<uint64_t>(2, options.memory_bytes / sizeof(PieceRecord));
}

double FiniteMid(double lo, double hi) {
  const bool lo_f = std::isfinite(lo);
  const bool hi_f = std::isfinite(hi);
  if (lo_f && hi_f) return (lo + hi) / 2.0;
  if (lo_f) return lo;
  if (hi_f) return hi;
  return 0.0;
}

/// Recursive solver: owns the per-run knobs and statistics. With a pool,
/// Solve runs concurrently on sibling sub-slabs — every recursion child owns
/// its own scratch files, so the only shared mutable state is the stats
/// block (guarded by stats_mu_) and the thread-safe temp manager.
class Driver {
 public:
  Driver(Env& env, TempFileManager& temps, const MaxRSOptions& options,
         MaxRSStats* stats, ThreadPool* pool)
      : env_(env), temps_(temps), options_(options),
        stats_(stats), pool_(pool) {
    const size_t blocks = options.memory_bytes / env.block_size();
    fanout_ = options.fanout != 0
                  ? options.fanout
                  : std::max<size_t>(2, blocks > 2 ? blocks - 2 : 2);
    base_max_ = DeriveBaseCaseMax(options);
  }

  uint64_t base_max() const { return base_max_; }
  TempFileManager& temps() { return temps_; }

  /// Streaming counterpart of Solve: consumes a *stream* of the slab's
  /// y-sorted pieces instead of a piece file, so the caller's routing and
  /// this node's solve overlap. Stats counters (levels, base cases, merges,
  /// spans) are identical to Solve over a file of the same stream — the
  /// division decisions depend only on the record sequence, which is the
  /// same — while per-child piece files are replaced by SPSC channels
  /// (io/record_stream.h) that spill deterministically beyond the cap.
  /// `best_out`, when non-null, receives the maximum tuple sum of the
  /// returned slab-file as a by-product of writing it (base case and
  /// MergeSweep alike). Only the root invocation threads it; recursive
  /// children pass null — the root file's maximum is what callers need.
  Result<std::string> StreamSolve(
      RecordSource<PieceRecord>* source,
      const core_internal::EdgeFileProvider& edge_provider,
      const Interval& slab, uint64_t depth, SlabBest* best_out = nullptr) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_->recursion_levels = std::max(stats_->recursion_levels, depth);
    }
    // Node-entry deadline poll: a cancelled query unwinds through the
    // ordinary error paths, so channels close and scratch files release.
    MAXRS_RETURN_IF_ERROR(CheckCancel(options_.cancel));
    // Buffer up to the base-case threshold: a stream that ends within it
    // is solved in memory with no division (or edge) I/O at all.
    std::vector<PieceRecord> buffer;
    bool overflow = false;
    {
      PieceRecord p{};
      while (true) {
        Status st = source->Read(&p);
        if (st.code() == Status::Code::kNotFound) break;
        MAXRS_RETURN_IF_ERROR(st);
        buffer.push_back(p);
        if (buffer.size() > base_max_) {
          overflow = true;
          break;
        }
      }
    }
    if (!overflow) return StreamBaseCase(std::move(buffer), slab, best_out);

    // Overflow: the node divides. Only now is the edge file needed.
    MAXRS_ASSIGN_OR_RETURN(std::string edge_file, edge_provider());
    uint64_t num_edges = 0;
    MAXRS_ASSIGN_OR_RETURN(std::vector<double> bounds,
                           division_internal::ComputeEdgeBounds(
                               env_, edge_file, fanout_, &num_edges));
    if (bounds.empty()) {
      // Degenerate (all edges share one x): the slab cannot be split —
      // drain the stream and fall through to the in-memory base case,
      // exactly like the materialized division's InvalidArgument fallback.
      PieceRecord p{};
      while (true) {
        Status st = source->Read(&p);
        if (st.code() == Status::Code::kNotFound) break;
        MAXRS_RETURN_IF_ERROR(st);
        buffer.push_back(p);
      }
      return StreamBaseCase(std::move(buffer), slab, best_out);
    }

    const size_t num_children = bounds.size() + 1;
    std::vector<Interval> ranges(num_children);
    for (size_t k = 0; k < num_children; ++k) {
      ranges[k].lo = (k == 0) ? slab.lo : bounds[k - 1];
      ranges[k].hi = (k + 1 == num_children) ? slab.hi : bounds[k];
    }

    // Pass 2 (eager, as in DividePieces): route edges into per-child files
    // — the lazily-claimed inputs of whichever children overflow in turn.
    std::vector<std::string> child_edge_files(num_children);
    {
      MAXRS_ASSIGN_OR_RETURN(RecordReader<EdgeRecord> reader,
                             RecordReader<EdgeRecord>::Make(env_, edge_file));
      std::vector<RecordWriter<EdgeRecord>> writers;
      writers.reserve(num_children);
      for (size_t k = 0; k < num_children; ++k) {
        child_edge_files[k] = temps_.NewName("edges");
        MAXRS_ASSIGN_OR_RETURN(
            RecordWriter<EdgeRecord> w,
            RecordWriter<EdgeRecord>::Make(env_, child_edge_files[k]));
        writers.push_back(std::move(w));
      }
      EdgeRecord e{};
      while (reader.Next(&e)) {
        MAXRS_RETURN_IF_ERROR(CheckCancel(options_.cancel));
        size_t k = std::min(division_internal::IndexOf(bounds, e.x),
                            num_children - 1);
        MAXRS_RETURN_IF_ERROR(writers[k].Append(e));
      }
      MAXRS_RETURN_IF_ERROR(reader.final_status());
      for (size_t k = 0; k < num_children; ++k) {
        MAXRS_RETURN_IF_ERROR(writers[k].Finish());
      }
    }

    // Pass 3: the streamed division. Per-child piece channels consumed by
    // the recursive child solves while this thread routes into them.
    std::vector<std::unique_ptr<RecordChannel<PieceRecord>>> channels;
    channels.reserve(num_children);
    for (size_t k = 0; k < num_children; ++k) {
      channels.push_back(std::make_unique<RecordChannel<PieceRecord>>(
          env_, temps_.NewName("spill"), options_.stream_channel_bytes));
    }
    std::string span_file = temps_.NewName("spans");
    uint64_t num_spans = 0;

    // Routes the buffered prefix, then the rest of the stream, closing
    // every channel with the final status no matter what — an unclosed
    // channel would hang its consumer forever.
    auto route_and_close = [&]() -> Status {
      Status st = [&]() -> Status {
        MAXRS_ASSIGN_OR_RETURN(
            RecordWriter<SpanRecord> span_writer,
            RecordWriter<SpanRecord>::Make(env_, span_file));
        auto emit_piece = [&](size_t k, const PieceRecord& piece) {
          return channels[k]->Append(piece);
        };
        auto emit_span = [&](const SpanRecord& s) {
          return span_writer.Append(s);
        };
        for (const PieceRecord& buffered : buffer) {
          MAXRS_RETURN_IF_ERROR(division_internal::RoutePiece(
              bounds, ranges, buffered, emit_piece, emit_span));
        }
        std::vector<PieceRecord>().swap(buffer);
        PieceRecord p{};
        while (true) {
          MAXRS_RETURN_IF_ERROR(CheckCancel(options_.cancel));
          Status read_st = source->Read(&p);
          if (read_st.code() == Status::Code::kNotFound) break;
          MAXRS_RETURN_IF_ERROR(read_st);
          MAXRS_RETURN_IF_ERROR(division_internal::RoutePiece(
              bounds, ranges, p, emit_piece, emit_span));
        }
        MAXRS_RETURN_IF_ERROR(span_writer.Finish());
        num_spans = span_writer.count();
        return Status::OK();
      }();
      for (auto& channel : channels) {
        Status close_st = channel->Close(st);
        if (st.ok() && !close_st.ok()) st = close_st;
      }
      return st;
    };

    std::vector<std::string> child_slab_files(num_children);
    Status route_status;
    Status child_status;
    {
      TaskGroup group(pool_);
      auto submit_children = [&] {
        for (size_t k = 0; k < num_children; ++k) {
          group.Run([this, k, &channels, &child_slab_files, &child_edge_files,
                     &ranges, depth]() -> Status {
            core_internal::EdgeFileProvider provider =
                [&child_edge_files, k]() -> Result<std::string> {
              return {child_edge_files[k]};
            };
            auto slab_or =
                StreamSolve(channels[k].get(), provider, ranges[k], depth + 1);
            if (!slab_or.ok()) return slab_or.status();
            child_slab_files[k] = std::move(slab_or).value();
            return Status::OK();
          });
        }
      };
      if (pool_ == nullptr) {
        // Serial: a Run() executes inline and would park forever on an
        // open channel, so route first (the closed channels then act as
        // deterministic buffers) and solve the children afterwards.
        route_status = route_and_close();
        if (route_status.ok()) submit_children();
      } else {
        // Parallel: children first — they start solving the moment their
        // first records arrive — then feed them from this thread. The
        // producer (this thread) is running and never blocks, so parked
        // consumers always make progress (record_stream.h, "Threading").
        submit_children();
        route_status = route_and_close();
      }
      child_status = group.Wait();
    }
    for (const std::string& f : child_edge_files) temps_.Release(f);
    MAXRS_RETURN_IF_ERROR(route_status);
    MAXRS_RETURN_IF_ERROR(child_status);

    std::string out = temps_.NewName("slab");
    MAXRS_RETURN_IF_ERROR(MergeSweep(env_, ranges, child_slab_files, span_file,
                                     out, options_.objective, options_.cancel,
                                     best_out));
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_->merges;
      stats_->total_spans += num_spans;
    }
    for (const std::string& f : child_slab_files) temps_.Release(f);
    temps_.Release(span_file);
    return {std::move(out)};
  }

  /// Solves the sub-problem of `slab`, consuming (and deleting) the two
  /// input files; returns the name of the slab-file produced.
  Result<std::string> Solve(const std::string& piece_file,
                            const std::string& edge_file, const Interval& slab,
                            uint64_t num_pieces, uint64_t depth,
                            SlabBest* best_out = nullptr) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_->recursion_levels = std::max(stats_->recursion_levels, depth);
    }
    MAXRS_RETURN_IF_ERROR(CheckCancel(options_.cancel));

    if (num_pieces > base_max_) {
      auto division_or =
          DividePieces(temps_, piece_file, edge_file, slab, fanout_);
      if (division_or.ok()) {
        return Merge(piece_file, edge_file, std::move(division_or).value(),
                     depth, best_out);
      }
      if (division_or.status().code() != Status::Code::kInvalidArgument) {
        return {division_or.status()};
      }
      // Degenerate input (all edges share one x): the slab cannot be split,
      // so fall through to the in-memory base case regardless of size.
    }
    return BaseCase(piece_file, edge_file, slab, best_out);
  }

 private:
  /// In-memory base case over an already-buffered piece vector: the stream
  /// ended (or could not be split) within the memory budget, so no piece or
  /// edge file is ever materialized for this node.
  Result<std::string> StreamBaseCase(std::vector<PieceRecord> pieces,
                                     const Interval& slab,
                                     SlabBest* best_out = nullptr) {
    const std::vector<SlabTuple> tuples =
        PlaneSweep(pieces, slab, options_.objective);
    if (best_out != nullptr) {
      for (const SlabTuple& t : tuples) best_out->Offer(t.sum);
    }
    std::string out = temps_.NewName("slab");
    MAXRS_RETURN_IF_ERROR(WriteRecordFile(env_, out, tuples));
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_->base_cases;
    }
    return {std::move(out)};
  }

  Result<std::string> BaseCase(const std::string& piece_file,
                               const std::string& edge_file,
                               const Interval& slab,
                               SlabBest* best_out = nullptr) {
    MAXRS_ASSIGN_OR_RETURN(std::vector<PieceRecord> pieces,
                           ReadRecordFile<PieceRecord>(env_, piece_file));
    temps_.Release(piece_file);
    temps_.Release(edge_file);
    const std::vector<SlabTuple> tuples =
        PlaneSweep(pieces, slab, options_.objective);
    if (best_out != nullptr) {
      for (const SlabTuple& t : tuples) best_out->Offer(t.sum);
    }
    std::string out = temps_.NewName("slab");
    MAXRS_RETURN_IF_ERROR(WriteRecordFile(env_, out, tuples));
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_->base_cases;
    }
    return {std::move(out)};
  }

  Result<std::string> Merge(const std::string& piece_file,
                            const std::string& edge_file,
                            DivisionResult division, uint64_t depth,
                            SlabBest* best_out = nullptr) {
    temps_.Release(piece_file);
    temps_.Release(edge_file);

    // The m child sub-slabs are independent until MergeSweep combines their
    // slab-files: each owns its own input files and writes its slab-file
    // into a distinct pre-sized slot, so solving them concurrently changes
    // nothing about the result. MergeSweep itself stays serial per node (it
    // is one ordered sweep over all children).
    std::vector<std::string> child_slab_files(division.children.size());
    MAXRS_RETURN_IF_ERROR(ParallelFor(
        pool_, 0, division.children.size(), [&](size_t k) -> Status {
          const ChildSlab& child = division.children[k];
          auto slab_file_or = Solve(child.piece_file, child.edge_file,
                                    child.x_range, child.num_pieces, depth + 1);
          if (!slab_file_or.ok()) return slab_file_or.status();
          child_slab_files[k] = std::move(slab_file_or).value();
          return Status::OK();
        }));

    std::string out = temps_.NewName("slab");
    MAXRS_RETURN_IF_ERROR(MergeSweep(env_, division.children, child_slab_files,
                                     division.span_file, out,
                                     options_.objective, options_.cancel,
                                     best_out));
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_->merges;
      stats_->total_spans += division.num_spans;
    }
    for (const std::string& f : child_slab_files) temps_.Release(f);
    temps_.Release(division.span_file);
    return {std::move(out)};
  }

  Env& env_;
  TempFileManager& temps_;
  MaxRSOptions options_;
  MaxRSStats* stats_;
  ThreadPool* pool_;
  std::mutex stats_mu_;
  size_t fanout_ = 2;
  uint64_t base_max_ = 2;
};

// The back half of the pipeline, shared by VisitRootTuples and
// VisitPreparedTuples: division + merge-sweep from sorted inputs on `pool`,
// then one streaming scan of the root slab-file. Consumes (deletes) the two
// input files of `input`.
Status SolvePreparedOnPool(Env& env, const PreparedInput& input,
                           const MaxRSOptions& options, MaxRSStats* stats,
                           ThreadPool* pool,
                           const std::function<void(const SlabTuple&)>& visit) {
  TempFileManager temps(env, options.work_prefix);
  MAXRS_ASSIGN_OR_RETURN(
      std::string root_slab_file,
      core_internal::SolveSlab(env, temps, input, options, stats, pool));
  {
    MAXRS_ASSIGN_OR_RETURN(RecordReader<SlabTuple> reader,
                           RecordReader<SlabTuple>::Make(env, root_slab_file));
    SlabTuple t{};
    while (reader.Next(&t)) visit(t);
    MAXRS_RETURN_IF_ERROR(reader.final_status());
  }
  temps.Release(root_slab_file);
  return Status::OK();
}

}  // namespace

Status ValidateMaxRSOptions(const MaxRSOptions& options, size_t block_size) {
  return ValidateOptions(options, block_size);
}

namespace core_internal {

Result<std::string> SolveSlab(Env& env, TempFileManager& temps,
                              const PreparedInput& input,
                              const MaxRSOptions& options, MaxRSStats* stats,
                              ThreadPool* pool, SlabBest* best_out) {
  MAXRS_RETURN_IF_ERROR(ValidateOptions(options, env.block_size()));
  Driver driver(env, temps, options, stats, pool);
  if (options.streaming_division) {
    // Stream the piece file through the channel-based division instead of
    // materializing per-child piece files. Results, stats, and division
    // decisions are bit-identical to the materialized path below.
    Result<std::string> out = [&]() -> Result<std::string> {
      MAXRS_ASSIGN_OR_RETURN(
          FileRecordSource<PieceRecord> source,
          FileRecordSource<PieceRecord>::Make(env, input.piece_file));
      core_internal::EdgeFileProvider provider =
          [&input]() -> Result<std::string> { return {input.edge_file}; };
      return driver.StreamSolve(&source, provider, input.x_range, /*depth=*/0,
                                best_out);
    }();
    // The source is closed before the inputs are released; the edge file is
    // owned by the caller's temp manager, so release both here as Solve does.
    if (out.ok()) {
      temps.Release(input.piece_file);
      temps.Release(input.edge_file);
    }
    return out;
  }
  return driver.Solve(input.piece_file, input.edge_file, input.x_range,
                      input.num_pieces, /*depth=*/0, best_out);
}

Result<std::string> SolveSlabStream(Env& env, TempFileManager& temps,
                                    RecordSource<PieceRecord>* pieces,
                                    const EdgeFileProvider& edge_provider,
                                    const Interval& x_range,
                                    const MaxRSOptions& options,
                                    MaxRSStats* stats, ThreadPool* pool,
                                    SlabBest* best_out) {
  MAXRS_RETURN_IF_ERROR(ValidateOptions(options, env.block_size()));
  Driver driver(env, temps, options, stats, pool);
  return driver.StreamSolve(pieces, edge_provider, x_range, /*depth=*/0,
                            best_out);
}

void TopTupleTracker::Visit(const SlabTuple& t) {
  if (have_pending_ && t.sum == pending_.sum && t.x_lo == pending_.x_lo &&
      t.x_hi == pending_.x_hi) {
    // Same stratum continues: the event at t.y changed something elsewhere
    // in the slab but not the max-interval. Keep the pending run open so
    // its y-extent ends where the max-interval next *changes*.
    return;
  }
  if (have_pending_) Offer(pending_, t.y);
  pending_ = t;
  have_pending_ = true;
}

void TopTupleTracker::Offer(const SlabTuple& t, double y_next) {
  if (heap_.size() < k_) {
    heap_.push_back({t, y_next});
    std::push_heap(heap_.begin(), heap_.end(), &TopTupleTracker::SumGreater);
    return;
  }
  if (!heap_.empty() && t.sum > heap_.front().tuple.sum) {
    std::pop_heap(heap_.begin(), heap_.end(), &TopTupleTracker::SumGreater);
    heap_.back() = {t, y_next};
    std::push_heap(heap_.begin(), heap_.end(), &TopTupleTracker::SumGreater);
  }
}

std::vector<RankedRegion> TopTupleTracker::Finish() {
  if (have_pending_) {
    Offer(pending_, kInf);
    have_pending_ = false;
  }
  std::sort(heap_.begin(), heap_.end(),
            [](const Entry& a, const Entry& b) { return a.tuple.sum > b.tuple.sum; });
  std::vector<RankedRegion> out;
  out.reserve(heap_.size());
  for (const Entry& e : heap_) {
    RankedRegion region;
    region.total_weight = e.tuple.sum;
    region.region = Rect{e.tuple.x_lo, e.tuple.x_hi, e.tuple.y, e.y_next};
    region.location = {FiniteMid(e.tuple.x_lo, e.tuple.x_hi),
                       FiniteMid(e.tuple.y, e.y_next)};
    out.push_back(region);
  }
  heap_.clear();
  return out;
}

bool TopTupleTracker::SumGreater(const Entry& a, const Entry& b) {
  return a.tuple.sum > b.tuple.sum;
}

MaxRSResult ExtractFromTuples(const std::vector<SlabTuple>& tuples) {
  TopTupleTracker tracker(1);
  for (const SlabTuple& t : tuples) tracker.Visit(t);
  auto best = tracker.Finish();
  MaxRSResult result;
  if (best.empty()) {
    result.region = Rect{-kInf, kInf, -kInf, kInf};
    return result;
  }
  result.location = best[0].location;
  result.total_weight = best[0].total_weight;
  result.region = best[0].region;
  return result;
}

Status VisitRootTuples(Env& env, const std::string& object_file,
                       const MaxRSOptions& options, MaxRSStats* stats,
                       const std::function<void(const SlabTuple&)>& visit) {
  MAXRS_RETURN_IF_ERROR(ValidateOptions(options, env.block_size()));
  // The pool (if any) lives for the whole run and is threaded through the
  // sorts and the recursion; num_threads <= 1 keeps the serial code path.
  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.num_threads);
  }
  const bool minimize = options.objective == SweepObjective::kMinimize;

  MAXRS_ASSIGN_OR_RETURN(RecordReader<SpatialObject> objects,
                         RecordReader<SpatialObject>::Make(env, object_file));
  const uint64_t n = objects.total();
  stats->input_objects = n;

  // The min objective restricts placements to the dataset bounding box
  // (unrestricted, the minimum is trivially 0 anywhere in empty space).
  // This needs one extra counted scan to find the box.
  Interval root_slab{-kInf, kInf};
  if (minimize) {
    MAXRS_ASSIGN_OR_RETURN(RecordReader<SpatialObject> scan,
                           RecordReader<SpatialObject>::Make(env, object_file));
    Rect box{kInf, -kInf, kInf, -kInf};
    SpatialObject o{};
    bool any = false;
    while (scan.Next(&o)) {
      any = true;
      box.x_lo = std::min(box.x_lo, o.x);
      box.x_hi = std::max(box.x_hi, o.x);
      box.y_lo = std::min(box.y_lo, o.y);
      box.y_hi = std::max(box.y_hi, o.y);
    }
    MAXRS_RETURN_IF_ERROR(scan.final_status());
    if (!any) return Status::OK();  // empty dataset: no tuples
    // Guard degenerate (zero-extent) boxes; the domain is half-open.
    if (box.x_lo == box.x_hi) box.x_hi = box.x_lo + 1.0;
    if (box.y_lo == box.y_hi) box.y_hi = box.y_lo + 1.0;
    stats->domain = box;
    root_slab = Interval{box.x_lo, box.x_hi};
  }

  // Clips a transformed rectangle to the root slab; returns false if it
  // falls entirely outside the placement domain in x.
  auto clip = [&root_slab, minimize](PieceRecord* piece) {
    if (!minimize) return true;
    piece->x_lo = std::max(piece->x_lo, root_slab.lo);
    piece->x_hi = std::min(piece->x_hi, root_slab.hi);
    return piece->x_lo < piece->x_hi;
  };

  if (n <= DeriveBaseCaseMax(options)) {
    // Whole dataset fits in memory: one linear scan + in-memory PlaneSweep
    // (Algorithm 2 line 9 at the top level; no recursion, no extra I/O).
    std::vector<PieceRecord> pieces;
    pieces.reserve(n);
    SpatialObject o{};
    while (objects.Next(&o)) {
      PieceRecord piece =
          TransformObject(o, options.rect_width, options.rect_height);
      if (clip(&piece)) pieces.push_back(piece);
    }
    MAXRS_RETURN_IF_ERROR(objects.final_status());
    for (const SlabTuple& t : PlaneSweep(pieces, root_slab, options.objective)) {
      visit(t);
    }
    stats->base_cases += 1;
    return Status::OK();
  }

  TempFileManager temps(env, options.work_prefix);
  // Transform pass: emit the rectangle (piece) file and the vertical-edge
  // x-coordinate file, both unsorted.
  std::string raw_pieces = temps.NewName("raw_pieces");
  std::string raw_edges = temps.NewName("raw_edges");
  uint64_t num_pieces = 0;
  {
    MAXRS_ASSIGN_OR_RETURN(RecordWriter<PieceRecord> piece_writer,
                           RecordWriter<PieceRecord>::Make(env, raw_pieces));
    MAXRS_ASSIGN_OR_RETURN(RecordWriter<EdgeRecord> edge_writer,
                           RecordWriter<EdgeRecord>::Make(env, raw_edges));
    SpatialObject o{};
    while (objects.Next(&o)) {
      PieceRecord piece =
          TransformObject(o, options.rect_width, options.rect_height);
      if (!clip(&piece)) continue;
      MAXRS_RETURN_IF_ERROR(piece_writer.Append(piece));
      MAXRS_RETURN_IF_ERROR(edge_writer.Append(EdgeRecord{piece.x_lo}));
      MAXRS_RETURN_IF_ERROR(edge_writer.Append(EdgeRecord{piece.x_hi}));
    }
    MAXRS_RETURN_IF_ERROR(objects.final_status());
    MAXRS_RETURN_IF_ERROR(piece_writer.Finish());
    MAXRS_RETURN_IF_ERROR(edge_writer.Finish());
    num_pieces = piece_writer.count();
  }

  // The two up-front external sorts of Theorem 2. They touch disjoint files,
  // so with a pool they run concurrently (and each parallelizes internally);
  // both comparators are total orders, making the sorted files — and hence
  // everything downstream — canonical for any thread count.
  ExternalSortOptions sort_options{options.memory_bytes, pool.get()};
  std::string sorted_pieces = temps.NewName("pieces");
  std::string sorted_edges = temps.NewName("edges");
  {
    TaskGroup sorts(pool.get());
    sorts.Run([&env, &raw_pieces, &sorted_pieces, &sort_options] {
      return ExternalSort<PieceRecord>(env, raw_pieces, sorted_pieces,
                                       PieceYLess, sort_options);
    });
    sorts.Run([&env, &raw_edges, &sorted_edges, &sort_options] {
      return ExternalSort<EdgeRecord>(env, raw_edges, sorted_edges, EdgeXLess,
                                      sort_options);
    });
    MAXRS_RETURN_IF_ERROR(sorts.Wait());
  }
  temps.Release(raw_pieces);
  temps.Release(raw_edges);

  const PreparedInput prepared{sorted_pieces, sorted_edges, num_pieces,
                               root_slab};
  return SolvePreparedOnPool(env, prepared, options, stats, pool.get(), visit);
}

Status VisitPreparedTuples(Env& env, const PreparedInput& input,
                           const MaxRSOptions& options, MaxRSStats* stats,
                           const std::function<void(const SlabTuple&)>& visit) {
  MAXRS_RETURN_IF_ERROR(ValidateOptions(options, env.block_size()));
  if (options.objective == SweepObjective::kMinimize) {
    // The min objective needs the bounding-box restriction and piece
    // clipping that only the object-level pipeline performs (see
    // VisitRootTuples); an unbounded prepared run would return the
    // trivial minimum 0 in empty space.
    return Status::NotSupported(
        "prepared inputs support the maximize objective only; use "
        "RunMinRS / RunExactMaxRS for the min objective");
  }
  {
    // One header read closes a silent footgun: num_pieces defaults to 0,
    // and a wrong count would route any dataset into the in-memory base
    // case (reading the whole file into RAM) without complaint.
    MAXRS_ASSIGN_OR_RETURN(
        RecordReader<PieceRecord> probe,
        RecordReader<PieceRecord>::Make(env, input.piece_file));
    if (probe.total() != input.num_pieces) {
      return Status::InvalidArgument(
          "PreparedInput::num_pieces (" + std::to_string(input.num_pieces) +
          ") does not match the piece file's record count (" +
          std::to_string(probe.total()) + ")");
    }
  }
  stats->input_objects = input.num_pieces;
  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.num_threads);
  }
  return SolvePreparedOnPool(env, input, options, stats, pool.get(), visit);
}

}  // namespace core_internal

namespace {

// Shared tail of the two external entry points: run `produce` (one of the
// Visit*Tuples pipelines), extract the best region from its tuple stream,
// and stamp I/O and wall-clock statistics.
Result<MaxRSResult> ExtractTimedResult(
    Env& env,
    const std::function<Status(
        MaxRSStats*, const std::function<void(const SlabTuple&)>&)>& produce) {
  Stopwatch timer;
  const IoStatsSnapshot io_before = env.stats().Snapshot();
  MaxRSStats stats;
  core_internal::TopTupleTracker tracker(1);
  MAXRS_RETURN_IF_ERROR(produce(
      &stats, [&tracker](const SlabTuple& t) { tracker.Visit(t); }));

  MaxRSResult result;
  auto best = tracker.Finish();
  if (best.empty()) {
    result.region = Rect{-kInf, kInf, -kInf, kInf};
  } else {
    result.location = best[0].location;
    result.total_weight = best[0].total_weight;
    result.region = best[0].region;
  }
  stats.io = env.stats().Snapshot() - io_before;
  stats.wall_seconds = timer.ElapsedSeconds();
  result.stats = stats;
  return {std::move(result)};
}

}  // namespace

MaxRSResult ExactMaxRSInMemory(const std::vector<SpatialObject>& objects,
                               double rect_width, double rect_height) {
  std::vector<PieceRecord> pieces;
  pieces.reserve(objects.size());
  for (const SpatialObject& o : objects) {
    pieces.push_back(TransformObject(o, rect_width, rect_height));
  }
  const Interval everything{-kInf, kInf};
  MaxRSResult result =
      core_internal::ExtractFromTuples(PlaneSweep(pieces, everything));
  result.stats.input_objects = objects.size();
  result.stats.base_cases = 1;
  return result;
}

Result<MaxRSResult> RunExactMaxRS(Env& env, const std::string& object_file,
                                  const MaxRSOptions& options) {
  return ExtractTimedResult(
      env, [&](MaxRSStats* stats,
               const std::function<void(const SlabTuple&)>& visit) {
        return core_internal::VisitRootTuples(env, object_file, options, stats,
                                              visit);
      });
}

Result<MaxRSResult> RunExactMaxRSPrepared(Env& env, const PreparedInput& input,
                                          const MaxRSOptions& options) {
  return ExtractTimedResult(
      env, [&](MaxRSStats* stats,
               const std::function<void(const SlabTuple&)>& visit) {
        return core_internal::VisitPreparedTuples(env, input, options, stats,
                                                  visit);
      });
}

Result<MaxRSResult> RunExactMaxRS(Env& env,
                                  const std::vector<SpatialObject>& objects,
                                  const MaxRSOptions& options) {
  const std::string staging = options.work_prefix + "/dataset_staging";
  MAXRS_RETURN_IF_ERROR(WriteRecordFile(env, staging, objects));
  auto result = RunExactMaxRS(env, staging, options);
  Status st = env.Delete(staging);
  (void)st;
  return result;
}

}  // namespace maxrs
