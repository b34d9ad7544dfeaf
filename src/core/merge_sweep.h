// MergeSweep (Algorithm 1): merges the slab-files of m child slabs and the
// spanning-rectangle file of the parent into the parent's slab-file, in one
// synchronized bottom-to-top sweep costing O(K/B) I/Os (Lemma 3).
//
// State per child i: the base sum and max-interval from its latest tuple,
// plus upSum[i] — the total weight of spanning rectangles currently covering
// child i. A tuple is emitted at *every* event y (child tuples and spanning
// bottoms/tops), carrying the best eff[i] = base[i] + upSum[i]; tied
// max-intervals of adjacent children that touch at the boundary are merged
// into one extended interval (GetMaxInterval).
//
// Spanning tops need no separate sort: pieces are never clipped in y, so all
// spans share the original rectangle height d2 and the y_lo-sorted span file
// is also y_hi-sorted — a second sequential reader delivers top events.
#ifndef MAXRS_CORE_MERGE_SWEEP_H_
#define MAXRS_CORE_MERGE_SWEEP_H_

#include <string>
#include <vector>

#include "core/division.h"
#include "core/plane_sweep.h"
#include "core/records.h"
#include "io/env.h"
#include "util/cancel.h"
#include "util/status.h"

namespace maxrs {

/// Merges `child_slab_files[i]` (the slab-file of children[i]) plus the
/// spanning file into the slab-file `output_file` for the union slab.
/// The objective must match the one the child slab-files were built with.
/// A non-null `cancel` token is polled once per sweep event; an expired
/// token aborts the merge with kDeadlineExceeded.
/// A non-null `best_out` receives the running maximum of the emitted tuple
/// sums (maximize objective) as a free by-product of the sweep — no
/// re-scan, no extra I/O.
Status MergeSweep(Env& env, const std::vector<ChildSlab>& children,
                  const std::vector<std::string>& child_slab_files,
                  const std::string& span_file, const std::string& output_file,
                  SweepObjective objective = SweepObjective::kMaximize,
                  const CancelToken* cancel = nullptr,
                  SlabBest* best_out = nullptr);

/// MergeSweep over externally-produced sub-slab solutions: identical sweep,
/// but the children are given as bare x-ranges instead of DivisionResult
/// children — the entry point for callers that solved adjacent sub-slabs
/// outside the recursion (the serve layer's per-shard solve, where the
/// x-slab shards are the top-level division). `child_ranges[i]` must be
/// adjacent ascending half-open slabs, `child_slab_files[i]` the slab-file
/// solved for exactly that range, and `span_file` the y_lo-sorted records
/// of rectangles spanning whole sub-slabs (child indices into
/// `child_ranges`). An empty span file is valid.
///
/// A child whose slab-file name is the empty string "" is a *known-empty*
/// child: no reader is opened for it (zero I/O — not even the empty file's
/// framing read) and it sweeps exactly like an existing empty slab-file
/// (base 0, interval = its range). The serve layer's index-pruned execution
/// passes "" for shards it proved cannot contain the optimum, keeping the
/// adjacent-ascending-ranges contract (and span child indices) intact
/// without materializing anything for skipped shards.
Status MergeSweep(Env& env, const std::vector<Interval>& child_ranges,
                  const std::vector<std::string>& child_slab_files,
                  const std::string& span_file, const std::string& output_file,
                  SweepObjective objective = SweepObjective::kMaximize,
                  const CancelToken* cancel = nullptr,
                  SlabBest* best_out = nullptr);

}  // namespace maxrs

#endif  // MAXRS_CORE_MERGE_SWEEP_H_
