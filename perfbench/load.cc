#include "load.h"

#include <poll.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <ctime>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <utility>

namespace perfbench {
namespace {

using maxrs::QueryResponse;
using maxrs::Result;
using maxrs::Socket;

// A connection silent for this long is treated as lost.
constexpr int kFrameTimeoutMs = 30000;
// How long the load threads wait before the timed phase starts, so every
// thread is running when the first query is due.
constexpr auto kLeadIn = std::chrono::milliseconds(10);
// Poll period of the in-process replay's completion check.
constexpr auto kPollPeriod = std::chrono::microseconds(100);
constexpr size_t kSampleResponses = 4096;

// Reads one '\n'-terminated frame; `carry` keeps bytes read past it.
// False on EOF, error, or a silent connection.
bool ReadFrame(const Socket& sock, std::string* carry, std::string* line) {
  while (true) {
    const std::string::size_type nl = carry->find('\n');
    if (nl != std::string::npos) {
      line->assign(*carry, 0, nl);
      carry->erase(0, nl + 1);
      return true;
    }
    const Result<bool> readable = maxrs::PollReadable(sock, kFrameTimeoutMs);
    if (!readable.ok() || !readable.value()) return false;
    char chunk[4096];
    const Result<size_t> n = maxrs::RecvSome(sock, chunk, sizeof(chunk));
    if (!n.ok() || n.value() == 0) return false;
    carry->append(chunk, n.value());
  }
}

// What one connection saw; merged into the WirePass after the join.
struct ConnTally {
  uint64_t attempted = 0;
  std::atomic<uint64_t> ok{0};  // read by the CPU window sampler
  uint64_t err = 0;
  uint64_t sent = 0;
  std::vector<double> latency_ms;
  std::vector<double> send_lag_ms;
  AnswerMap answers;
  std::vector<std::string> lines;
  Clock::time_point last_frame;
};

// Splits "OK x y weight served_from batch_size" and notes the answer; any
// other frame, malformed OK frames included, counts as an ERR frame.
void HandleFrame(const std::string& frame, uint32_t rect, double latency_ms,
                 ConnTally* tally) {
  if (frame.compare(0, 3, "OK ") == 0) {
    size_t fields = 1, third_space = std::string::npos;
    for (size_t i = 3; i < frame.size(); ++i) {
      if (frame[i] != ' ') continue;
      if (++fields == 4) third_space = i;
    }
    if (fields == 5) {
      NoteAnswer(&tally->answers, rect, frame.substr(3, third_space - 3));
      tally->latency_ms.push_back(latency_ms);
      ++tally->ok;
      return;
    }
  }
  ++tally->err;
}

uint64_t RequestId(size_t conn, uint64_t i) {
  return (static_cast<uint64_t>(conn + 1) << 40) | i;
}

// Waits until `sock` is readable or `deadline` passes, with microsecond
// precision (PollReadable counts whole milliseconds, which would make the
// sender late). True when readable.
bool WaitReadable(const Socket& sock, Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
      deadline - Clock::now());
  timespec timeout{};
  if (left.count() > 0) {
    timeout.tv_sec = static_cast<time_t>(left.count() / 1000000000);
    timeout.tv_nsec = static_cast<long>(left.count() % 1000000000);
  }
  pollfd fd{sock.fd(), POLLIN, 0};
  return ::ppoll(&fd, 1, &timeout, nullptr) > 0;
}

// One thread per connection: sends each planned query when it is due and
// reads responses in between, so one thread both drives and observes.
void RunOpenConnection(const QueryPlan& plan, size_t conn, const Socket& sock,
                       Clock::time_point t0, Tracer& tracer, bool keep_lines,
                       ConnTally* tally) {
  const std::vector<PlannedQuery>& schedule = plan.open()[conn];
  const auto due = [&](size_t i) {
    return t0 + std::chrono::microseconds(schedule[i].due_us);
  };
  tally->attempted = schedule.size();
  tally->send_lag_ms.reserve(schedule.size());
  std::vector<Clock::time_point> sent_at;
  sent_at.reserve(schedule.size());
  std::string carry, frame;
  size_t received = 0;
  bool broken = false;
  while (!broken && received < schedule.size()) {
    const size_t next = sent_at.size();
    if (next < schedule.size() && Clock::now() >= due(next)) {
      const std::string line = RequestLine(plan.rects()[schedule[next].rect]);
      const Clock::time_point now = Clock::now();
      tally->send_lag_ms.push_back(Millis(due(next), now));
      if (!maxrs::SendAll(sock, line).ok()) break;
      if (keep_lines && tally->lines.size() < kSampleResponses) {
        tally->lines.push_back(line);
      }
      sent_at.push_back(now);
      continue;
    }
    // Nothing due: wait for a response until the next send is due.
    const Clock::time_point until =
        next < schedule.size()
            ? due(next)
            : Clock::now() + std::chrono::milliseconds(kFrameTimeoutMs);
    if (!WaitReadable(sock, until)) {
      broken = next >= schedule.size();  // silent with nothing left to send
      continue;
    }
    char chunk[4096];
    const Result<size_t> n = maxrs::RecvSome(sock, chunk, sizeof(chunk));
    if (!n.ok() || n.value() == 0) break;
    const Clock::time_point now = Clock::now();
    carry.append(chunk, n.value());
    std::string::size_type nl;
    while (received < sent_at.size() &&
           (nl = carry.find('\n')) != std::string::npos) {
      frame.assign(carry, 0, nl);
      carry.erase(0, nl + 1);
      HandleFrame(frame, schedule[received].rect,
                  Millis(due(received), now), tally);
      tracer.Record("net.round_trip", RequestId(conn, received),
                    sent_at[received], now);
      tally->last_frame = now;
      ++received;
    }
  }
  tally->sent = sent_at.size();
}

void RunClosedConnection(const WorkloadConfig& config, const QueryPlan& plan,
                         size_t conn, const Socket& sock, Clock::time_point t0,
                         Clock::time_point end, Tracer& tracer,
                         bool keep_lines, ConnTally* tally) {
  struct InFlight {
    uint32_t rect;
    uint64_t index;
    Clock::time_point sent;
  };
  std::deque<InFlight> in_flight;
  uint64_t next = 0;
  const auto send_next = [&]() {
    uint32_t rect = 0;
    if (!plan.Pick(conn, next, &rect)) return false;
    const std::string line = RequestLine(plan.rects()[rect]);
    const Clock::time_point now = Clock::now();
    if (!maxrs::SendAll(sock, line).ok()) return false;
    if (keep_lines && tally->lines.size() < kSampleResponses) {
      tally->lines.push_back(line);
    }
    in_flight.push_back({rect, next++, now});
    return true;
  };
  std::this_thread::sleep_until(t0);
  while (in_flight.size() < config.window && Clock::now() < end &&
         send_next()) {
  }
  std::string carry, frame;
  while (!in_flight.empty()) {
    if (!ReadFrame(sock, &carry, &frame)) break;
    const Clock::time_point now = Clock::now();
    const InFlight query = in_flight.front();
    in_flight.pop_front();
    HandleFrame(frame, query.rect, Millis(query.sent, now), tally);
    tally->last_frame = now;
    tracer.Record("net.round_trip", RequestId(conn, query.index), query.sent,
                  now);
    if (now < end) send_next();
  }
  tally->sent = next;
  tally->attempted = next;
}

}  // namespace

void NoteAnswer(AnswerMap* answers, uint32_t rect, const std::string& tokens) {
  RectAnswers& entry = (*answers)[rect];
  if (entry.count++ == 0) {
    entry.tokens = tokens;
  } else if (entry.tokens != tokens) {
    ++entry.inconsistent;
  }
}

void MergeAnswers(AnswerMap* into, const AnswerMap& from) {
  for (const auto& [rect, answers] : from) {
    auto [it, inserted] = into->emplace(rect, answers);
    if (inserted) continue;
    RectAnswers& entry = it->second;
    entry.count += answers.count;
    entry.inconsistent += entry.tokens == answers.tokens
                              ? answers.inconsistent
                              : answers.count - answers.inconsistent;
  }
}

std::string RequestLine(const RectSize& rect) {
  char line[96];
  std::snprintf(line, sizeof(line), "MAXRS %.17g %.17g\n", rect.width,
                rect.height);
  return line;
}

std::string AnswerTokens(const maxrs::MaxRSResult& result) {
  char tokens[96];
  std::snprintf(tokens, sizeof(tokens), "%.17g %.17g %.17g",
                result.location.x, result.location.y, result.total_weight);
  return tokens;
}

WirePass RunWirePass(const WorkloadConfig& config, const QueryPlan& plan,
                     double seconds, const std::vector<Socket>& conns,
                     Tracer& tracer, bool keep_request_lines) {
  std::vector<ConnTally> tallies(conns.size());
  const Clock::time_point t0 = Clock::now() + kLeadIn;
  const Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  const auto ok_frames = [&tallies] {
    uint64_t ok = 0;
    for (const ConnTally& tally : tallies) ok += tally.ok.load();
    return ok;
  };
  // At t0 and every kCpuWindow after it until the load threads are done:
  // process CPU, OK frames, then one reference loop.
  struct Mark {
    double cpu_s;
    uint64_t ok;
    double ref_ms;
  };
  std::mutex sampler_mu;
  std::condition_variable sampler_cv;
  bool load_done = false;
  std::vector<Mark> marks;
  std::thread sampler([&] {
    std::unique_lock<std::mutex> lock(sampler_mu);
    for (Clock::time_point at = t0;; at += kCpuWindow) {
      if (sampler_cv.wait_until(lock, at, [&] { return load_done; })) return;
      Mark mark{ProcessCpuSeconds(), ok_frames(), 0.0};
      mark.ref_ms = RefLoopCpuMillis();
      marks.push_back(mark);
    }
  });
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c] {
      if (config.load == LoadKind::kClosed) {
        RunClosedConnection(config, plan, c, conns[c], t0, end, tracer,
                            keep_request_lines, &tallies[c]);
      } else {
        RunOpenConnection(plan, c, conns[c], t0, tracer, keep_request_lines,
                          &tallies[c]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  {
    std::lock_guard<std::mutex> lock(sampler_mu);
    load_done = true;
  }
  sampler_cv.notify_all();
  sampler.join();

  WirePass pass;
  marks.push_back({ProcessCpuSeconds(), ok_frames(), 0.0});
  for (size_t i = 0; i + 1 < marks.size(); ++i) {
    const uint64_t ok = marks[i + 1].ok - marks[i].ok;
    pass.ref_loop_ms.push_back(marks[i].ref_ms);
    if (ok == 0) continue;
    const double cpu_ms =
        (marks[i + 1].cpu_s - marks[i].cpu_s) * 1e3 - marks[i].ref_ms;
    pass.window_cpu_ms_per_query.push_back(cpu_ms / static_cast<double>(ok));
  }
  Clock::time_point last = t0;
  for (ConnTally& tally : tallies) {
    pass.attempted += tally.attempted;
    pass.ok += tally.ok;
    pass.err_frames += tally.err;
    pass.latency_ms.insert(pass.latency_ms.end(), tally.latency_ms.begin(),
                           tally.latency_ms.end());
    pass.send_lag_ms.insert(pass.send_lag_ms.end(), tally.send_lag_ms.begin(),
                            tally.send_lag_ms.end());
    pass.sent_per_conn.push_back(tally.sent);
    MergeAnswers(&pass.answers, tally.answers);
    for (std::string& line : tally.lines) {
      pass.request_lines.push_back(std::move(line));
    }
    if (tally.last_frame > last) last = tally.last_frame;
  }
  pass.missing = pass.attempted - pass.ok - pass.err_frames;
  pass.elapsed_s = Millis(t0, last) / 1e3;
  return pass;
}

InProcessPass RunInProcessPass(const WorkloadConfig& config,
                               const QueryPlan& plan,
                               const std::vector<uint64_t>& sent_per_conn,
                               maxrs::MaxRSServer& server, Tracer& tracer) {
  const size_t conns = config.connections;
  std::vector<InProcessPass> parts(conns);
  const Clock::time_point t0 = Clock::now() + kLeadIn;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      const bool open = config.load != LoadKind::kClosed;
      const uint64_t total = open ? plan.open()[c].size() : sent_per_conn[c];
      InProcessPass& part = parts[c];
      part.attempted = total;
      struct InFlight {
        std::future<Result<QueryResponse>> future;
        uint32_t rect;
        Clock::time_point from;
        uint64_t request;
        uint64_t submit_span;
      };
      std::deque<InFlight> in_flight;
      uint64_t next = 0;
      std::this_thread::sleep_until(t0);
      while (next < total || !in_flight.empty()) {
        bool progressed = false;
        while (next < total) {
          Clock::time_point from = Clock::now();
          uint32_t rect = 0;
          if (open) {
            const PlannedQuery& q = plan.open()[c][next];
            const Clock::time_point due =
                t0 + std::chrono::microseconds(q.due_us);
            if (due > from) break;
            from = due;
            rect = q.rect;
          } else {
            if (in_flight.size() >= config.window) break;
            plan.Pick(c, next, &rect);
          }
          maxrs::QuerySpec spec;
          spec.width = plan.rects()[rect].width;
          spec.height = plan.rects()[rect].height;
          const uint64_t request = RequestId(c, next);
          const Clock::time_point call = Clock::now();
          std::future<Result<QueryResponse>> future = server.SubmitAsync(spec);
          const uint64_t span = tracer.Record("serve.submit_async", request,
                                              call, Clock::now());
          in_flight.push_back({std::move(future), rect, from, request, span});
          ++next;
          progressed = true;
        }
        for (auto it = in_flight.begin(); it != in_flight.end();) {
          if (it->future.wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
            ++it;
            continue;
          }
          const Clock::time_point done = Clock::now();
          tracer.Record("serve.response", it->request, it->from, done,
                        it->submit_span);
          Result<QueryResponse> response = it->future.get();
          if (response.ok()) {
            const QueryResponse& r = response.value();
            const double latency = Millis(it->from, done);
            part.latency_ms.push_back(latency);
            NoteAnswer(&part.answers, it->rect, AnswerTokens(r.result));
            if (r.served_from == maxrs::ServedFrom::kExecuted) {
              const double exec = r.result.stats.wall_seconds * 1e3;
              ++part.executed;
              part.exec_ms.push_back(exec);
              part.queue_wait_ms.push_back(latency - exec);
              part.base_cases += r.result.stats.base_cases;
              part.merges += r.result.stats.merges;
              part.recursion_levels += r.result.stats.recursion_levels;
              part.spans += r.result.stats.total_spans;
            }
            if (part.sample.size() < kSampleResponses / conns) {
              part.sample.push_back(r);
            }
          } else {
            ++part.failed;
          }
          it = in_flight.erase(it);
          progressed = true;
        }
        if (!progressed) std::this_thread::sleep_for(kPollPeriod);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  InProcessPass pass;
  const auto append = [](std::vector<double>* to,
                         const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  for (InProcessPass& part : parts) {
    pass.attempted += part.attempted;
    pass.failed += part.failed;
    append(&pass.latency_ms, part.latency_ms);
    append(&pass.queue_wait_ms, part.queue_wait_ms);
    append(&pass.exec_ms, part.exec_ms);
    pass.executed += part.executed;
    pass.base_cases += part.base_cases;
    pass.merges += part.merges;
    pass.recursion_levels += part.recursion_levels;
    pass.spans += part.spans;
    MergeAnswers(&pass.answers, part.answers);
    for (QueryResponse& r : part.sample) pass.sample.push_back(std::move(r));
  }
  return pass;
}

}  // namespace perfbench
