// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own files around calls into each layer (Ingest, the socket
// round trip, SubmitAsync, ParseCommand/FormatResponse, RunExactMaxRS,
// Crc32c); nothing inside the program is instrumented. Spans stay in
// memory while the run measures and are written out once at the end, as
// JSON lines.
#ifndef MAXRS_PERFBENCH_TRACE_H_
#define MAXRS_PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "measure.h"

namespace perfbench {

/// One timed interval. Spans of one request share `request`; `parent` is
/// the id of the span that caused this one (0 = none).
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  Clock::time_point start;
  Clock::time_point end;
};

/// Thread-safe span sink. A disabled tracer records nothing and costs one
/// branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span and returns its id (0 when disabled). `name`
  /// must be a string literal: spans keep the pointer.
  uint64_t Record(const char* name, uint64_t request, Clock::time_point start,
                  Clock::time_point end, uint64_t parent = 0);

  /// Number of spans recorded so far.
  size_t size() const;

  /// Writes every span as one JSON object per line (times in microseconds
  /// since the tracer was made). Returns false when the file cannot be
  /// written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // MAXRS_PERFBENCH_TRACE_H_
