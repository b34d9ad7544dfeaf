// The load generators: one timed pass of a workload's plan over the wire
// (NetServer on loopback sockets), and a replay of the same plan straight
// into MaxRSServer::SubmitAsync. Both record every answer so the caller
// can verify it; the replay also keeps the serving metadata the wire
// frames do not carry (execution stats, per-query block counts).
#ifndef MAXRS_PERFBENCH_LOAD_H_
#define MAXRS_PERFBENCH_LOAD_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/socket.h"
#include "serve/maxrs_server.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// The answers one rectangle received: the first answer's "x y weight"
/// tokens (%.17g, exact) and how many later answers disagreed with it.
struct RectAnswers {
  std::string tokens;
  uint64_t count = 0;
  uint64_t inconsistent = 0;
};

using AnswerMap = std::map<uint32_t, RectAnswers>;

/// Adds one answer for `rect`.
void NoteAnswer(AnswerMap* answers, uint32_t rect, const std::string& tokens);

/// Folds `from` into `into`; answers that disagree with `into`'s first
/// answer for the same rectangle count as inconsistent.
void MergeAnswers(AnswerMap* into, const AnswerMap& from);

/// The windows a wire pass measures its CPU cost per query over. At the
/// start of each, the pass also runs the reference loop, so the cost can be
/// scaled by how fast the machine ran in that stretch of the pass.
inline constexpr std::chrono::seconds kCpuWindow{2};

/// One wire pass.
struct WirePass {
  uint64_t attempted = 0;   ///< Requests the plan sent.
  uint64_t ok = 0;          ///< OK frames received.
  uint64_t err_frames = 0;  ///< ERR frames received.
  uint64_t missing = 0;     ///< Requests never answered (connection lost).
  /// Per OK frame: response arrival minus the due time (open loop) or the
  /// actual send (closed loop).
  std::vector<double> latency_ms;
  /// Open loop: actual send minus due time, per request.
  std::vector<double> send_lag_ms;
  /// Requests sent per connection, in plan order.
  std::vector<uint64_t> sent_per_conn;
  double elapsed_s = 0.0;  ///< Start of the timed phase to the last frame.
  /// Per window of the timed phase (kCpuWindow long; the last one ends with
  /// the pass): process CPU per OK frame in ms, the reference loop's CPU
  /// not counted. Windows without an OK frame are left out.
  std::vector<double> window_cpu_ms_per_query;
  /// The reference loop's CPU time (RefLoopCpuMillis) at the start of each
  /// window.
  std::vector<double> ref_loop_ms;
  AnswerMap answers;
  /// The first 4096 request lines each connection sent (only when asked
  /// for), for protocol timing.
  std::vector<std::string> request_lines;
};

/// Drives `conns` (one connected socket per workload connection) with the
/// plan for `seconds`. Records a "net.round_trip" span per request into
/// `tracer` when it is enabled.
WirePass RunWirePass(const WorkloadConfig& config, const QueryPlan& plan,
                     double seconds, const std::vector<maxrs::Socket>& conns,
                     Tracer& tracer, bool keep_request_lines);

/// The same plan submitted in-process.
struct InProcessPass {
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< Responses with a non-OK status.
  /// Per answered query: completion minus due time (open loop) or submit
  /// time (closed loop), observed by polling every 100 us.
  std::vector<double> latency_ms;
  /// Executed queries only: latency minus result.stats.wall_seconds.
  std::vector<double> queue_wait_ms;
  /// Executed queries only: result.stats.wall_seconds.
  std::vector<double> exec_ms;
  uint64_t executed = 0;
  /// Sums over executed queries of result.stats.
  uint64_t base_cases = 0, merges = 0, recursion_levels = 0, spans = 0;
  AnswerMap answers;
  /// Up to 4096 responses, for protocol timing.
  std::vector<maxrs::QueryResponse> sample;
};

/// Replays the plan into `server.SubmitAsync`. Open loop follows the same
/// schedule; closed loop sends exactly `sent_per_conn[c]` requests on
/// connection c, keeping the same window. Records "serve.submit_async"
/// and "serve.response" spans when `tracer` is enabled.
InProcessPass RunInProcessPass(const WorkloadConfig& config,
                               const QueryPlan& plan,
                               const std::vector<uint64_t>& sent_per_conn,
                               maxrs::MaxRSServer& server, Tracer& tracer);

/// The request line for one rectangle (%.17g, so the server sees exactly
/// the planned doubles).
std::string RequestLine(const RectSize& rect);

/// "x y weight" of an in-process answer, formatted as the wire does.
std::string AnswerTokens(const maxrs::MaxRSResult& result);

}  // namespace perfbench

#endif  // MAXRS_PERFBENCH_LOAD_H_
