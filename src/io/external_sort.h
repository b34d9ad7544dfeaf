// External k-way merge sort: the textbook O((N/B) log_{M/B}(N/B)) algorithm.
// Run formation sorts M-byte chunks in memory; merging proceeds with fan-in
// M/B - 1 (one block of buffer per input run plus one output block) until a
// single sorted file remains. Both ExactMaxRS pre-sorts (by y for the piece
// file, by x for the edge file) and the baselines' event sorts use this.
//
// Parallelism: with ExternalSortOptions::pool set, the in-memory sorts and
// run writes of up to num_threads chunks overlap, and the independent merge
// groups of one pass run concurrently. Chunk boundaries depend only on the
// memory budget and runs are merged with a fixed tie-break, so the output
// file, the run/pass counts, and the total I/O are identical for any thread
// count. Transient memory grows to ~num_threads x M during a parallel phase.
//
// Determinism: run formation uses std::sort (not stable_sort). Supply a
// comparator that is a *total* order (break ties on every field) and the
// output is one canonical sequence; with a partial order the output is still
// deterministic for a given build, but records with equal keys may not keep
// their input order.
#ifndef MAXRS_IO_EXTERNAL_SORT_H_
#define MAXRS_IO_EXTERNAL_SORT_H_

#include <algorithm>
#include <queue>
#include <string>
#include <vector>

#include "io/record_io.h"
#include "io/temp_manager.h"
#include "util/check.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace maxrs {

struct ExternalSortOptions {
  /// Memory budget M in bytes: bounds both the in-memory run size and the
  /// merge fan-in (M/B - 1 input buffers).
  size_t memory_bytes = 1 << 20;

  /// Optional worker pool; null runs fully serial. See the header comment
  /// for the parallel execution contract.
  ThreadPool* pool = nullptr;
};

namespace sort_internal {

/// Statistics of one sort execution, exposed for the complexity tests.
struct SortRunInfo {
  uint64_t initial_runs = 0;
  uint64_t merge_passes = 0;
};

}  // namespace sort_internal

template <typename T, typename Less>
Status MergeRuns(Env& env, const std::vector<std::string>& run_names,
                 const std::string& output_name, Less less);

template <typename T>
Status CopyRecordFile(Env& env, const std::string& from,
                      const std::string& to);

template <typename T, typename Less>
Status MergeSortedParts(Env& env, TempFileManager& temps,
                        std::vector<std::string> parts,
                        const std::string& output_name, Less less,
                        size_t fan_in, ThreadPool* pool = nullptr,
                        uint64_t* passes_out = nullptr);

/// Sorts the record file `input_name` into `output_name` using Less.
/// The input file is left untouched. `info`, if non-null, receives run/pass
/// counts for complexity verification.
template <typename T, typename Less>
Status ExternalSort(Env& env, const std::string& input_name,
                    const std::string& output_name, Less less,
                    const ExternalSortOptions& options = {},
                    sort_internal::SortRunInfo* info = nullptr) {
  TempFileManager temps(env, "sort_tmp");
  const size_t block_size = env.block_size();
  // Keep at least two records' worth of run memory so progress is guaranteed.
  const size_t run_records =
      std::max<size_t>(2, options.memory_bytes / sizeof(T));
  const size_t fan_in = std::max<size_t>(2, options.memory_bytes / block_size - 1);
  ThreadPool* pool = options.pool;
  // Chunks read ahead per wave: bounds transient memory at wave * M.
  const size_t wave = pool != nullptr ? pool->num_threads() : 1;

  // --- Run formation ---
  // The reader is one serial stream; chunks are cut every `run_records`
  // records regardless of thread count, then each chunk of a wave is sorted
  // and written to its (pre-allocated) run file on the pool.
  std::vector<std::string> runs;
  {
    MAXRS_ASSIGN_OR_RETURN(RecordReader<T> reader,
                           RecordReader<T>::Make(env, input_name));
    // Slots are pre-sized so a chunk's sort/write task can start the moment
    // the chunk is cut — reading chunk i+1 overlaps sorting chunk i —
    // without later fills invalidating references held by tasks. The
    // buffers live across waves (clear() keeps capacity, so the hot loop
    // does not reallocate M bytes per run), and each wave's group is
    // declared after them: on an early error return the group joins
    // (TaskGroup destructor) before the slots are destroyed.
    std::vector<std::vector<T>> chunks(wave);
    std::vector<std::string> names(wave);
    bool more = true;
    while (more) {
      size_t filled = 0;
      TaskGroup group(pool);
      for (size_t i = 0; i < wave && more; ++i) {
        std::vector<T>& chunk = chunks[i];
        chunk.clear();
        chunk.reserve(std::min<uint64_t>(run_records, reader.remaining()));
        T rec{};
        while (chunk.size() < run_records) {
          Status st = reader.Read(&rec);
          if (st.code() == Status::Code::kNotFound) {
            more = false;
            break;
          }
          MAXRS_RETURN_IF_ERROR(st);
          chunk.push_back(rec);
        }
        if (chunk.empty()) break;
        names[i] = temps.NewName("run");
        ++filled;
        group.Run([&env, &chunk, &name = names[i], &less]() -> Status {
          std::sort(chunk.begin(), chunk.end(), less);
          return WriteRecordFile(env, name, chunk);
        });
      }
      MAXRS_RETURN_IF_ERROR(group.Wait());
      for (size_t i = 0; i < filled; ++i) runs.push_back(std::move(names[i]));
    }
  }
  if (info != nullptr) info->initial_runs = runs.size();

  if (runs.empty()) {
    // Empty input: emit an empty (but valid) output file.
    MAXRS_ASSIGN_OR_RETURN(RecordWriter<T> writer,
                           RecordWriter<T>::Make(env, output_name));
    return writer.Finish();
  }

  // --- Merge passes --- (the shared fan-in-bounded multi-pass merge; the
  // serve layer's per-query shard merge reuses the same primitive)
  uint64_t passes = 0;
  MAXRS_RETURN_IF_ERROR(MergeSortedParts<T>(env, temps, std::move(runs),
                                            output_name, less, fan_in, pool,
                                            &passes));
  if (info != nullptr) info->merge_passes = passes;
  return Status::OK();
}

/// Merges already-sorted part files into `output_name` holding at most
/// `fan_in` input blocks (+1 output block) at once: one k-way merge when
/// the parts fit the fan-in, multiple passes otherwise — the merge phase
/// of ExternalSort, exposed for any caller with pre-sorted parts (e.g. the
/// serve layer's per-shard streams). The groups of one pass have disjoint
/// inputs and distinct outputs, so with a pool they merge concurrently;
/// passes themselves are sequential. Consumes (releases) the part files;
/// a single part degenerates to one copy pass. With a total-order
/// comparator the output is canonical for any fan_in/grouping.
/// `passes_out`, if non-null, receives the number of merge passes.
template <typename T, typename Less>
Status MergeSortedParts(Env& env, TempFileManager& temps,
                        std::vector<std::string> parts,
                        const std::string& output_name, Less less,
                        size_t fan_in, ThreadPool* pool,
                        uint64_t* passes_out) {
  MAXRS_CHECK_MSG(!parts.empty(), "MergeSortedParts needs at least one part");
  if (fan_in < 2) fan_in = 2;
  uint64_t passes = 0;
  while (parts.size() > 1) {
    ++passes;
    const bool is_final = parts.size() <= fan_in;
    std::vector<std::vector<std::string>> groups;
    std::vector<std::string> outs;
    for (size_t start = 0; start < parts.size(); start += fan_in) {
      const size_t end = std::min(parts.size(), start + fan_in);
      groups.emplace_back(parts.begin() + start, parts.begin() + end);
      outs.push_back(is_final ? output_name : temps.NewName("merge"));
    }
    TaskGroup group(pool);
    for (size_t g = 0; g < groups.size(); ++g) {
      group.Run([&env, &groups, &outs, &less, g] {
        return MergeRuns<T>(env, groups[g], outs[g], less);
      });
    }
    MAXRS_RETURN_IF_ERROR(group.Wait());
    for (const std::vector<std::string>& grp : groups) {
      for (const std::string& r : grp) temps.Release(r);
    }
    parts = std::move(outs);
  }

  // Single part and no merge happened: rename by copy (one linear pass).
  if (passes == 0) {
    MAXRS_RETURN_IF_ERROR(CopyRecordFile<T>(env, parts[0], output_name));
    temps.Release(parts[0]);
  }
  if (passes_out != nullptr) *passes_out = passes;
  return Status::OK();
}

/// Merges already-sorted record files into `output_name` (k-way, one block
/// of memory per input).
template <typename T, typename Less>
Status MergeRuns(Env& env, const std::vector<std::string>& run_names,
                 const std::string& output_name, Less less) {
  struct Source {
    RecordReader<T> reader;
    T head;
  };
  std::vector<Source> sources;
  sources.reserve(run_names.size());
  for (const std::string& name : run_names) {
    MAXRS_ASSIGN_OR_RETURN(RecordReader<T> reader,
                           RecordReader<T>::Make(env, name));
    Source src{std::move(reader), T{}};
    Status st = src.reader.Read(&src.head);
    if (st.code() == Status::Code::kNotFound) continue;  // empty run
    MAXRS_RETURN_IF_ERROR(st);
    sources.push_back(std::move(src));
  }

  // Index-based heap over sources; ties broken by source index, so the merge
  // order is a pure function of the run contents (with a total-order
  // comparator, tied records are byte-identical and the point is moot).
  auto cmp = [&](size_t a, size_t b) {
    if (less(sources[b].head, sources[a].head)) return true;
    if (less(sources[a].head, sources[b].head)) return false;
    return a > b;
  };
  std::priority_queue<size_t, std::vector<size_t>, decltype(cmp)> heap(cmp);
  for (size_t i = 0; i < sources.size(); ++i) heap.push(i);

  MAXRS_ASSIGN_OR_RETURN(RecordWriter<T> writer,
                         RecordWriter<T>::Make(env, output_name));
  while (!heap.empty()) {
    size_t i = heap.top();
    heap.pop();
    MAXRS_RETURN_IF_ERROR(writer.Append(sources[i].head));
    Status st = sources[i].reader.Read(&sources[i].head);
    if (st.code() == Status::Code::kNotFound) continue;
    MAXRS_RETURN_IF_ERROR(st);
    heap.push(i);
  }
  return writer.Finish();
}

/// Copies a record file (one linear pass).
template <typename T>
Status CopyRecordFile(Env& env, const std::string& from,
                      const std::string& to) {
  MAXRS_ASSIGN_OR_RETURN(RecordReader<T> reader,
                         RecordReader<T>::Make(env, from));
  MAXRS_ASSIGN_OR_RETURN(RecordWriter<T> writer, RecordWriter<T>::Make(env, to));
  T rec{};
  while (true) {
    Status st = reader.Read(&rec);
    if (st.code() == Status::Code::kNotFound) break;
    MAXRS_RETURN_IF_ERROR(st);
    MAXRS_RETURN_IF_ERROR(writer.Append(rec));
  }
  return writer.Finish();
}

}  // namespace maxrs

#endif  // MAXRS_IO_EXTERNAL_SORT_H_
