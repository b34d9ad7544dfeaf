#include "core/merge_sweep.h"

#include <limits>
#include <memory>

#include "io/record_io.h"
#include "util/check.h"

namespace maxrs {
namespace {

/// Sequential reader with one-record lookahead.
template <typename T>
class PeekedReader {
 public:
  static Result<PeekedReader<T>> Make(Env& env, const std::string& name) {
    MAXRS_ASSIGN_OR_RETURN(RecordReader<T> reader,
                           RecordReader<T>::Make(env, name));
    PeekedReader<T> peeked(std::move(reader));
    MAXRS_RETURN_IF_ERROR(peeked.Advance());
    return {std::move(peeked)};
  }

  explicit PeekedReader(RecordReader<T> reader)
      : reader_(std::move(reader)) {}

  bool has_value() const { return has_value_; }
  const T& head() const { return head_; }

  Status Advance() {
    Status st = reader_.Read(&head_);
    if (st.code() == Status::Code::kNotFound) {
      has_value_ = false;
      return Status::OK();
    }
    MAXRS_RETURN_IF_ERROR(st);
    has_value_ = true;
    return Status::OK();
  }

 private:
  RecordReader<T> reader_;
  T head_{};
  bool has_value_ = false;
};

}  // namespace

Status MergeSweep(Env& env, const std::vector<ChildSlab>& children,
                  const std::vector<std::string>& child_slab_files,
                  const std::string& span_file, const std::string& output_file,
                  SweepObjective objective, const CancelToken* cancel,
                  SlabBest* best_out) {
  std::vector<Interval> ranges;
  ranges.reserve(children.size());
  for (const ChildSlab& child : children) ranges.push_back(child.x_range);
  return MergeSweep(env, ranges, child_slab_files, span_file, output_file,
                    objective, cancel, best_out);
}

Status MergeSweep(Env& env, const std::vector<Interval>& child_ranges,
                  const std::vector<std::string>& child_slab_files,
                  const std::string& span_file, const std::string& output_file,
                  SweepObjective objective, const CancelToken* cancel,
                  SlabBest* best_out) {
  const size_t m = child_ranges.size();
  MAXRS_CHECK(m >= 1 && child_slab_files.size() == m);

  // A "" name marks a known-empty child: it participates in the sweep state
  // (base 0, interval = its range) but gets no reader and costs no I/O.
  std::vector<std::unique_ptr<PeekedReader<SlabTuple>>> slabs(m);
  for (size_t i = 0; i < m; ++i) {
    if (child_slab_files[i].empty()) continue;
    MAXRS_ASSIGN_OR_RETURN(
        PeekedReader<SlabTuple> reader,
        PeekedReader<SlabTuple>::Make(env, child_slab_files[i]));
    slabs[i] = std::make_unique<PeekedReader<SlabTuple>>(std::move(reader));
  }
  // Two independent sequential scans over the span file: one delivering
  // bottom events (y_lo order), one delivering top events (y_hi order; equal
  // to y_lo order because all spans have the original height d2).
  MAXRS_ASSIGN_OR_RETURN(PeekedReader<SpanRecord> bottoms,
                         PeekedReader<SpanRecord>::Make(env, span_file));
  MAXRS_ASSIGN_OR_RETURN(PeekedReader<SpanRecord> tops,
                         PeekedReader<SpanRecord>::Make(env, span_file));

  MAXRS_ASSIGN_OR_RETURN(RecordWriter<SlabTuple> writer,
                         RecordWriter<SlabTuple>::Make(env, output_file));

  // Sweep state (Algorithm 1 lines 1-4): per-child latest max-interval and
  // the spanning weight currently over it.
  std::vector<double> base(m, 0.0);
  std::vector<double> up_sum(m, 0.0);
  std::vector<Interval> interval(m);
  for (size_t i = 0; i < m; ++i) interval[i] = child_ranges[i];

  const double inf = std::numeric_limits<double>::infinity();
  while (true) {
    MAXRS_RETURN_IF_ERROR(CheckCancel(cancel));
    // Next event y across all inputs.
    double y = inf;
    for (const auto& s : slabs) {
      if (s && s->has_value()) y = std::min(y, s->head().y);
    }
    if (bottoms.has_value()) y = std::min(y, bottoms.head().y_lo);
    if (tops.has_value()) y = std::min(y, tops.head().y_hi);
    if (y == inf) break;

    // Apply all events at this h-line (lines 6-16). With half-open y-extents
    // additions and removals at equal y commute.
    while (tops.has_value() && tops.head().y_hi == y) {
      const SpanRecord& s = tops.head();
      for (int32_t k = s.child_lo; k <= s.child_hi; ++k) up_sum[k] -= s.w;
      MAXRS_RETURN_IF_ERROR(tops.Advance());
    }
    while (bottoms.has_value() && bottoms.head().y_lo == y) {
      const SpanRecord& s = bottoms.head();
      MAXRS_CHECK(s.child_lo >= 0 && s.child_hi < static_cast<int32_t>(m));
      for (int32_t k = s.child_lo; k <= s.child_hi; ++k) up_sum[k] += s.w;
      MAXRS_RETURN_IF_ERROR(bottoms.Advance());
    }
    for (size_t i = 0; i < m; ++i) {
      while (slabs[i] && slabs[i]->has_value() && slabs[i]->head().y == y) {
        base[i] = slabs[i]->head().sum;
        interval[i] = {slabs[i]->head().x_lo, slabs[i]->head().x_hi};
        MAXRS_RETURN_IF_ERROR(slabs[i]->Advance());
      }
    }

    // GetMaxInterval (lines 17-18): pick the best eff[i]; extend across
    // adjacent children whose tied max-intervals touch at the boundary.
    // For the min objective "best" means smallest.
    const bool maximize = objective == SweepObjective::kMaximize;
    double best = maximize ? -inf : inf;
    size_t best_i = 0;
    for (size_t i = 0; i < m; ++i) {
      const double eff = base[i] + up_sum[i];
      if (maximize ? eff > best : eff < best) {
        best = eff;
        best_i = i;
      }
    }
    Interval merged = interval[best_i];
    for (size_t i = best_i + 1; i < m; ++i) {
      if (base[i] + up_sum[i] == best && interval[i].lo == merged.hi) {
        merged.hi = interval[i].hi;
      } else {
        break;
      }
    }
    if (best_out != nullptr) best_out->Offer(best);
    MAXRS_RETURN_IF_ERROR(writer.Append(SlabTuple{y, merged.lo, merged.hi, best}));
  }

  return writer.Finish();
}

}  // namespace maxrs
