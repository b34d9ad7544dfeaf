// DatasetHandle: the ingest-once half of the serve layer.
//
// ExactMaxRS pays its dominant cost in the two up-front external sorts
// (Theorem 2), yet both sort orders are *rectangle-independent* at the
// object level:
//
//   - every transformed piece has y_lo = o.y - h/2 with one h for all
//     objects, so the PieceYLess order of the pieces IS the (y, x, w) order
//     of the objects;
//   - every vertical edge is o.x -/+ w/2, so the EdgeXLess-sorted edge
//     stream is a 2-way merge of the (x, y, w)-sorted objects shifted by
//     -w/2 and +w/2.
//
// Ingest therefore external-sorts the *objects* twice (by y, by x), cuts
// the x-sorted stream into equal-count x-slab shards, routes the y-sorted
// stream into the same shards (order-preserving), and persists a shard
// manifest via the Env. Afterwards any query rectangle can derive both
// division-phase inputs with linear passes — no external sort ever runs
// again for this dataset. MaxRSServer (maxrs_server.h) is the query half.
//
// See docs/ARCHITECTURE.md ("The serve layer") for the full design.
#ifndef MAXRS_SERVE_DATASET_HANDLE_H_
#define MAXRS_SERVE_DATASET_HANDLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/records.h"
#include "geom/geometry.h"
#include "index/shard_agg_index.h"
#include "io/env.h"
#include "io/io_stats.h"
#include "util/status.h"

namespace maxrs {

/// Total order on objects that mirrors PieceYLess on their transformed
/// pieces: for any fixed (w, h), sorting objects this way yields a stream
/// whose pieces are PieceYLess-sorted (the map y -> y - h/2 is monotone).
inline bool ObjectYLess(const SpatialObject& a, const SpatialObject& b) {
  uint64_t ka = DoubleOrderKey(a.y), kb = DoubleOrderKey(b.y);
  if (ka != kb) return ka < kb;
  ka = DoubleOrderKey(a.x), kb = DoubleOrderKey(b.x);
  if (ka != kb) return ka < kb;
  return DoubleOrderKey(a.w) < DoubleOrderKey(b.w);
}

/// Total order on objects by x (then y, w for canonicality): the source
/// order of the per-query edge streams and of the x-slab shard cut.
inline bool ObjectXLess(const SpatialObject& a, const SpatialObject& b) {
  uint64_t ka = DoubleOrderKey(a.x), kb = DoubleOrderKey(b.x);
  if (ka != kb) return ka < kb;
  ka = DoubleOrderKey(a.y), kb = DoubleOrderKey(b.y);
  if (ka != kb) return ka < kb;
  return DoubleOrderKey(a.w) < DoubleOrderKey(b.w);
}

/// Knobs for DatasetHandle::Ingest.
struct DatasetHandleOptions {
  /// Number of x-slab shards; 0 derives one shard per ~64K objects.
  /// Clamped to [1, 64] and to the ingest budget's M/B - 1 stream blocks
  /// (the routing pass holds one writer block per shard). Fewer shards
  /// than requested may also result when the dataset has few distinct x
  /// values (shards never split equal x).
  size_t shard_count = 0;

  /// Memory budget M in bytes for the two ingest external sorts.
  size_t memory_bytes = 1 << 20;

  /// Worker threads for the ingest sorts (the two sorts run concurrently
  /// and parallelize internally, exactly as in RunExactMaxRS).
  size_t num_threads = 1;

  /// Env namespace the shard files and manifest live under. Also the
  /// dataset's identity for DatasetHandle::Open.
  std::string prefix = "maxrs_dataset";
};

/// One x-slab shard: the objects whose x lies in `x_range`, stored twice —
/// once in ObjectYLess order (piece-stream source) and once in ObjectXLess
/// order (edge-stream source).
struct ShardInfo {
  /// Half-open slab [lo, hi); the first shard's lo is -inf and the last
  /// shard's hi is +inf, so every finite x routes to exactly one shard.
  Interval x_range{-kInf, kInf};
  /// Record file of the shard's objects in ObjectYLess order.
  std::string y_file;
  /// Record file of the shard's objects in ObjectXLess order.
  std::string x_file;
  /// Object count of the shard (identical in both files).
  uint64_t num_objects = 0;
};

/// Cost accounting of one Ingest call (all zeros on an Open()ed handle).
struct IngestStats {
  /// Block transfers of the ingest (two sorts + shard routing + manifest).
  IoStatsSnapshot io;
  /// Wall-clock duration of the ingest.
  double wall_seconds = 0.0;
};

/// On-disk manifest entry. The manifest record file holds one header entry
/// (kind 0: format version in `index`, total objects in `count`), since
/// format version 2 two extent entries (kind 2: dataset x-extent, kind 3:
/// dataset y-extent, both in `x_lo`/`x_hi`; omitted for an empty dataset),
/// since format version 3 one aggregate-index descriptor (kind 4: index
/// format version in `index`, indexed shard count in `count`; the index
/// data itself lives in a separate file next to the manifest, so a damaged
/// index can be detected and bypassed without condemning the manifest),
/// and one entry per shard (kind 1: shard index, object count, slab
/// bounds). Shard file names are derived from the prefix, not stored.
/// Version-1 manifests (no extent entries) still Open; their handles just
/// report has_bounds() == false. Version-2 manifests (no index descriptor)
/// still Open and serve; their handles report agg_index() == nullptr.
struct ShardManifestRecord {
  uint64_t kind;   ///< 0 = header, 1 = shard, 2/3 = x/y extent, 4 = index.
  uint64_t index;  ///< Header: format version. Shard: shard index.
  uint64_t count;  ///< Header: total objects. Shard: shard object count.
  double x_lo;     ///< Shard slab / extent lower bound.
  double x_hi;     ///< Shard slab / extent upper bound.
};

/// An immutable ingested dataset: sorted, sharded, and manifest-backed.
/// Create with Ingest (runs the sorts) or Open (re-attaches to a manifest
/// persisted by an earlier Ingest in the same Env). The handle itself is a
/// lightweight description; the data lives in the Env. Movable, not
/// copyable-by-design-needed (copies would alias the same files, which is
/// harmless but pointless).
class DatasetHandle {
 public:
  /// Sorts and shards the SpatialObject record file `object_file`, writes
  /// the shard files and manifest under `options.prefix`, and returns the
  /// handle. The input file is left untouched. Fails with InvalidArgument
  /// if a manifest already exists under the prefix (datasets are
  /// immutable; use a fresh prefix or Drop() the old one).
  static Result<DatasetHandle> Ingest(Env& env, const std::string& object_file,
                                      const DatasetHandleOptions& options);

  /// Re-attaches to a dataset ingested earlier under `prefix` in `env` by
  /// reading its manifest. Verifies the shard files exist.
  static Result<DatasetHandle> Open(Env& env, const std::string& prefix);

  /// Deletes the shard files and the manifest. The handle is dead after.
  Status Drop();

  /// The x-slab shards, in ascending x order.
  const std::vector<ShardInfo>& shards() const { return shards_; }

  /// The S-1 interior shard boundaries (shards()[k].x_range.lo for k >= 1),
  /// precomputed once at Ingest/Open: every per-query routing pass needs
  /// them, and batched execution hands one copy to many queries at once.
  const std::vector<double>& interior_bounds() const {
    return interior_bounds_;
  }

  /// The S shard slabs (shards()[k].x_range), precomputed once — the
  /// `ranges` argument of routing and the cross-shard MergeSweep.
  const std::vector<Interval>& slab_ranges() const { return slab_ranges_; }

  /// Total object count across all shards.
  uint64_t num_objects() const { return num_objects_; }

  /// The Env namespace / identity of this dataset.
  const std::string& prefix() const { return prefix_; }

  /// Cost of the Ingest that produced this handle (zeros after Open).
  const IngestStats& ingest_stats() const { return ingest_stats_; }

  /// Whether the dataset's bounding box is known: false for an empty
  /// dataset and for handles Open()ed from a version-1 manifest (written
  /// before the extent entries existed).
  bool has_bounds() const { return has_bounds_; }

  /// The dataset's bounding box (min/max object coordinates, a degenerate
  /// zero-extent box for a single point). Meaningful only while
  /// has_bounds(); the basis of the server's cache admission policy.
  const Rect& bounds() const { return bounds_; }

  /// The aggregate shard index (per-shard MBR + weight aggregates), or
  /// nullptr when the dataset has none: pre-v3 manifests, and v3 datasets
  /// whose index file failed to open or validate. A null index only costs
  /// pruning — MaxRSServer degrades to un-pruned serving and the answers
  /// are unchanged.
  const ShardAggIndex* agg_index() const { return agg_index_.get(); }

  /// Why agg_index() is null when the manifest promised one: kCorruption /
  /// kNotFound / kNotSupported from opening the index file. OK when the
  /// index is present, and OK for pre-v3 manifests (nothing was promised).
  const Status& index_status() const { return index_status_; }

 private:
  DatasetHandle() = default;

  /// Fills interior_bounds_ / slab_ranges_ from shards_; called once at the
  /// end of Ingest and Open (the handle is immutable afterwards).
  void ComputeShardGeometry();

  Env* env_ = nullptr;
  std::string prefix_;
  uint64_t num_objects_ = 0;
  std::vector<ShardInfo> shards_;
  std::vector<double> interior_bounds_;
  std::vector<Interval> slab_ranges_;
  IngestStats ingest_stats_;
  bool has_bounds_ = false;
  Rect bounds_;
  std::shared_ptr<ShardAggIndex> agg_index_;
  Status index_status_;
};

}  // namespace maxrs

#endif  // MAXRS_SERVE_DATASET_HANDLE_H_
