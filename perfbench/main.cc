// maxrs_perfbench: the end-to-end benchmark of the MaxRS serving stack.
//
// One run builds the whole stack in this process — DatasetHandle::Ingest
// into a MemEnv, a MaxRSServer, and a NetServer on a loopback port — and
// drives one workload over real sockets for --seconds. Every answer is
// checked against the one-shot engine (RunExactMaxRS) on the same objects.
//
//   maxrs_perfbench --workload uniform_cold --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics of the untraced pass. --trace 1
// makes an untraced pass, a traced pass on a fresh server, and an in-process
// replay of the same plan, each a third of --seconds long, and prints the
// per-layer metrics (perfbench/README.md defines every metric). The last
// line of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Exit codes: 0 done; 1 the stack failed to start; 2 bad
// arguments; 3 the run is invalid (the load generator ran late, or the
// serving counters show the workload did not exercise what it claims).
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/exact_maxrs.h"
#include "datagen/dataset_io.h"
#include "io/env.h"
#include "load.h"
#include "measure.h"
#include "net/net_server.h"
#include "net/query_protocol.h"
#include "serve/dataset_handle.h"
#include "serve/maxrs_server.h"
#include "trace.h"
#include "util/crc32c.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using maxrs::Env;
using maxrs::IoStatsSnapshot;
using maxrs::ServerCounters;
using maxrs::Status;

constexpr size_t kBlockBytes = 4096;       // the paper's B
constexpr size_t kMemoryBytes = 1 << 20;   // the paper's M (Table 3)
constexpr size_t kServerWorkers = 2;
constexpr size_t kVerifyThreads = 4;
// An open-loop run whose sender ran later than this at p95 is invalid.
constexpr double kMaxSendLagMs = 20.0;
// Rectangles the traced run times one by one with the one-shot engine.
constexpr size_t kOneShotSample = 5;
// Rectangles the traced run sends one at a time to count block transfers.
constexpr size_t kIoProbeQueries = 8;
// Minimum wall time of each micro-timing loop (protocol, CRC).
constexpr double kMicroLoopMs = 30.0;
// CPU time of the reference loop (RefLoopCpuMillis) at the reference speed:
// its median on the 4-vCPU Xeon (Sapphire Rapids) VM this benchmark was
// built on. cpu_ms_per_query is scaled to this speed.
constexpr double kRefLoopMs = 6.5;
const char kObjectFile[] = "objects";

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (key == "--trace_out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

// One ingested dataset and the serving stack over it. Members are declared
// in dependency order, so destruction closes the client sockets first,
// then the listener, the server, the dataset and the Env.
struct Deployment {
  std::unique_ptr<Env> env;
  std::optional<maxrs::DatasetHandle> dataset;
  std::unique_ptr<maxrs::MaxRSServer> server;
  std::unique_ptr<maxrs::NetServer> net;
  std::vector<maxrs::Socket> conns;

  // Stops the current server (if any) and everything on top of it.
  void StopServing() {
    conns.clear();
    net.reset();
    server.reset();
  }

  // Starts a fresh server; with `wire`, also the listener and one client
  // connection per workload connection. Answers the warm set before
  // returning.
  Status StartServing(const WorkloadConfig& config, const QueryPlan& plan,
                      bool wire) {
    StopServing();
    maxrs::MaxRSServerOptions options;
    options.num_workers = kServerWorkers;
    options.memory_bytes = kMemoryBytes;
    options.batch_max = config.batch_max;
    server = std::make_unique<maxrs::MaxRSServer>(*env, *dataset, options);
    if (wire) {
      net = std::make_unique<maxrs::NetServer>(*server, *env,
                                               maxrs::NetServerOptions{});
      Status started = net->Start();
      if (!started.ok()) return started;
      for (size_t c = 0; c < config.connections; ++c) {
        maxrs::Result<maxrs::Socket> sock =
            maxrs::ConnectLoopback(net->port());
        if (!sock.ok()) return sock.status();
        conns.push_back(std::move(sock).value());
      }
    }
    std::vector<std::future<maxrs::Result<maxrs::QueryResponse>>> warming;
    for (const uint32_t r : plan.WarmSet()) {
      maxrs::QuerySpec spec;
      spec.width = plan.rects()[r].width;
      spec.height = plan.rects()[r].height;
      warming.push_back(server->SubmitAsync(spec));
    }
    for (auto& future : warming) {
      maxrs::Result<maxrs::QueryResponse> warmed = future.get();
      if (!warmed.ok()) return warmed.status();
    }
    return Status::OK();
  }
};

ServerCounters CounterDelta(const ServerCounters& after,
                            const ServerCounters& before) {
  ServerCounters d;
  d.submitted = after.submitted - before.submitted;
  d.cache_hits = after.cache_hits - before.cache_hits;
  d.dedup_hits = after.dedup_hits - before.dedup_hits;
  d.executed = after.executed - before.executed;
  d.failed = after.failed - before.failed;
  d.shed = after.shed - before.shed;
  d.degraded = after.degraded - before.degraded;
  d.deadlines = after.deadlines - before.deadlines;
  d.batches = after.batches - before.batches;
  d.batched_queries = after.batched_queries - before.batched_queries;
  return d;
}

// A wire pass plus what the server and its Env counted during it.
struct ObservedPass {
  WirePass wire;
  ServerCounters counters;
  IoStatsSnapshot io;
  size_t queue_depth_max = 0;
};

// Reads MaxRSServer::queue_depth() every millisecond on its own thread.
class DepthSampler {
 public:
  explicit DepthSampler(const maxrs::MaxRSServer& server)
      : thread_([this, &server] {
          while (!stop_.load(std::memory_order_acquire)) {
            max_ = std::max(max_, server.queue_depth());
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }) {}
  ~DepthSampler() { Stop(); }
  DepthSampler(const DepthSampler&) = delete;
  DepthSampler& operator=(const DepthSampler&) = delete;

  // Joins the sampler and returns the largest depth seen.
  size_t Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
    return max_;
  }

 private:
  std::atomic<bool> stop_{false};
  size_t max_ = 0;  // written by thread_ only, read after the join
  std::thread thread_;
};

ObservedPass ObservePass(Deployment& d, const WorkloadConfig& config,
                         const QueryPlan& plan, double seconds, Tracer& tracer,
                         bool sample_depth) {
  const ServerCounters counters_before = d.server->counters();
  const IoStatsSnapshot io_before = d.env->stats().Snapshot();
  std::optional<DepthSampler> sampler;
  if (sample_depth) sampler.emplace(*d.server);
  ObservedPass observed;
  observed.wire = RunWirePass(config, plan, seconds, d.conns, tracer,
                              /*keep_request_lines=*/tracer.enabled());
  if (sampler) observed.queue_depth_max = sampler->Stop();
  observed.counters = CounterDelta(d.server->counters(), counters_before);
  observed.io = d.env->stats().Snapshot() - io_before;
  return observed;
}

// Why the pass does not exercise what the workload claims; empty if it
// does. `base_cases_per_query` is negative when unknown (untraced runs).
std::vector<std::string> ValidityProblems(const WorkloadConfig& config,
                                          const ObservedPass& pass,
                                          size_t shards,
                                          double base_cases_per_query) {
  std::vector<std::string> problems;
  const auto expect = [&problems](bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  };
  const ServerCounters& c = pass.counters;
  if (config.load != LoadKind::kClosed) {
    const double lag = Quantile(pass.wire.send_lag_ms, 0.95);
    expect(lag <= kMaxSendLagMs,
           "open-loop sender ran " + std::to_string(lag) +
               " ms late at p95 (bound " + std::to_string(kMaxSendLagMs) +
               " ms)");
  }
  switch (config.exercise) {
    case Exercise::kColdPath:
      expect(c.cache_hits == 0, "cache hits on a cold workload");
      expect(c.dedup_hits == 0, "dedup on a cold workload");
      expect(c.batches == 0, "batches on a cold workload");
      expect(pass.io.shards_pruned == 0, "pruned shards on a cold workload");
      break;
    case Exercise::kCacheOnly:
      expect(c.executed == 0, "executions in a cache-only timed phase");
      break;
    case Exercise::kReuse:
      expect(c.cache_hits > 0, "no cache hits");
      expect(c.dedup_hits > 0, "no dedup");
      expect(c.batches > 0, "no shared-scan batches");
      expect(pass.io.shards_pruned > 0, "no pruned shards");
      break;
    case Exercise::kDivision:
      if (base_cases_per_query >= 0.0) {
        expect(base_cases_per_query > static_cast<double>(shards),
               "no division recursion: " +
                   std::to_string(base_cases_per_query) +
                   " base cases per query");
      }
      break;
  }
  return problems;
}

// Weight of an answer's "x y weight" tokens.
double TokenWeight(const std::string& tokens) {
  const std::string::size_type space = tokens.rfind(' ');
  return std::strtod(tokens.c_str() + space + 1, nullptr);
}

// The one-shot engine's answer for one rectangle, on a private MemEnv
// holding the same objects.
maxrs::Result<maxrs::MaxRSResult> OneShot(Env& env, const RectSize& rect) {
  maxrs::MaxRSOptions options;
  options.rect_width = rect.width;
  options.rect_height = rect.height;
  options.memory_bytes = kMemoryBytes;
  return maxrs::RunExactMaxRS(env, kObjectFile, options);
}

struct Verdict {
  uint64_t wrong = 0;         // answers whose weight differs from one-shot
  uint64_t inconsistent = 0;  // answers that differ from another answer
  uint64_t rects = 0;         // distinct rectangles checked
  std::vector<double> oneshot_ms;  // the timed sample (traced runs)
};

// Checks every answered rectangle against the one-shot engine. The first
// `timed` rectangles run alone, one after another, and are timed with a
// "core.run_exact_maxrs" span; the rest run on kVerifyThreads threads.
Verdict VerifyAnswers(const std::vector<maxrs::SpatialObject>& objects,
                      const QueryPlan& plan, const AnswerMap& answers,
                      size_t timed, Tracer& tracer) {
  Verdict verdict;
  std::vector<std::pair<uint32_t, const RectAnswers*>> todo;
  for (const auto& [rect, entry] : answers) {
    todo.emplace_back(rect, &entry);
    verdict.inconsistent += entry.inconsistent;
  }
  verdict.rects = todo.size();
  std::atomic<uint64_t> wrong{0};
  std::atomic<bool> engine_failed{false};
  const auto check = [&](Env& env, size_t i) {
    const maxrs::Result<maxrs::MaxRSResult> expected =
        OneShot(env, plan.rects()[todo[i].first]);
    if (!expected.ok()) {
      engine_failed.store(true);
      return;
    }
    if (TokenWeight(todo[i].second->tokens) != expected->total_weight) {
      wrong.fetch_add(todo[i].second->count);
    }
  };
  const auto make_env = [&objects]() {
    std::unique_ptr<Env> env = maxrs::NewMemEnv(kBlockBytes);
    const Status written = maxrs::WriteDataset(*env, kObjectFile, objects);
    return written.ok() ? std::move(env) : nullptr;
  };

  timed = std::min(timed, todo.size());
  if (timed > 0) {
    std::unique_ptr<Env> env = make_env();
    if (env == nullptr) engine_failed.store(true);
    for (size_t i = 0; env != nullptr && i < timed; ++i) {
      const Clock::time_point start = Clock::now();
      check(*env, i);
      const Clock::time_point end = Clock::now();
      tracer.Record("core.run_exact_maxrs", todo[i].first, start, end);
      verdict.oneshot_ms.push_back(Millis(start, end));
    }
  }
  std::atomic<size_t> next{timed};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kVerifyThreads; ++t) {
    threads.emplace_back([&] {
      std::unique_ptr<Env> env;
      for (size_t i = next.fetch_add(1); i < todo.size();
           i = next.fetch_add(1)) {
        if (env == nullptr) env = make_env();
        if (env == nullptr) {
          engine_failed.store(true);
          return;
        }
        check(*env, i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  verdict.wrong = wrong.load();
  // An answer the engine could not check counts as wrong, never as right.
  if (engine_failed.load()) verdict.wrong += 1;
  return verdict;
}

// Block transfers per query, counted one query at a time.
struct IoProbe {
  uint64_t queries = 0;
  uint64_t failed = 0;
  uint64_t blocks_read = 0;
  uint64_t blocks_written = 0;
  AnswerMap answers;
};

// Sends the first `count` answered rectangles to `server` one after
// another. Under concurrent load a query's block count depends on what ran
// beside it; alone, it repeats exactly for one seed.
IoProbe ProbeBlocks(maxrs::MaxRSServer& server, const QueryPlan& plan,
                    const AnswerMap& answered, size_t count) {
  IoProbe probe;
  for (const auto& entry : answered) {
    if (probe.queries + probe.failed == count) break;
    const uint32_t rect = entry.first;
    maxrs::QuerySpec spec;
    spec.width = plan.rects()[rect].width;
    spec.height = plan.rects()[rect].height;
    const maxrs::Result<maxrs::QueryResponse> response =
        server.SubmitAsync(spec).get();
    if (!response.ok()) {
      ++probe.failed;
      continue;
    }
    ++probe.queries;
    probe.blocks_read += response->io.blocks_read;
    probe.blocks_written += response->io.blocks_written;
    NoteAnswer(&probe.answers, rect, AnswerTokens(response->result));
  }
  return probe;
}

// Mean time of ParseCommand on the run's request lines plus FormatResponse
// on its responses, in microseconds per query.
double ProtocolMicrosPerQuery(const std::vector<std::string>& lines,
                              const std::vector<maxrs::QueryResponse>& sample,
                              Tracer& tracer) {
  if (lines.empty() || sample.empty()) return 0.0;
  std::vector<std::string> bare;
  for (const std::string& line : lines) bare.push_back(line.substr(0, line.size() - 1));
  size_t sink = 0;
  double parse_ms = 0.0, format_ms = 0.0;
  uint64_t parses = 0, formats = 0;
  while (parse_ms < kMicroLoopMs || format_ms < kMicroLoopMs) {
    Clock::time_point start = Clock::now();
    for (const std::string& line : bare) {
      sink += maxrs::ParseCommand(line).ok() ? 1 : 0;
    }
    Clock::time_point end = Clock::now();
    tracer.Record("net.parse_command", 0, start, end);
    parse_ms += Millis(start, end);
    parses += bare.size();
    start = Clock::now();
    for (const maxrs::QueryResponse& response : sample) {
      sink += maxrs::FormatResponse(response).size();
    }
    end = Clock::now();
    tracer.Record("net.format_response", 0, start, end);
    format_ms += Millis(start, end);
    formats += sample.size();
  }
  if (sink == 0) std::fprintf(stderr, "protocol loop produced nothing\n");
  return 1e3 * (parse_ms / static_cast<double>(parses) +
                format_ms / static_cast<double>(formats));
}

// Crc32c over 4 KiB buffers, in microseconds per block.
double Crc32cMicrosPerBlock(uint64_t seed, Tracer& tracer) {
  std::vector<unsigned char> blocks(64 * kBlockBytes);
  maxrs::Rng rng(seed);
  for (unsigned char& byte : blocks) byte = static_cast<unsigned char>(rng.NextU64());
  uint32_t crc = 0;
  uint64_t count = 0;
  double total_ms = 0.0;
  while (total_ms < kMicroLoopMs) {
    const Clock::time_point start = Clock::now();
    for (size_t off = 0; off < blocks.size(); off += kBlockBytes) {
      crc ^= maxrs::Crc32c(blocks.data() + off, kBlockBytes);
    }
    const Clock::time_point end = Clock::now();
    tracer.Record("util.crc32c", 0, start, end);
    total_ms += Millis(start, end);
    count += blocks.size() / kBlockBytes;
  }
  if (crc == 0x12345678u) std::fprintf(stderr, "crc sink\n");
  return 1e3 * total_ms / static_cast<double>(count);
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The pass's CPU per OK frame at the reference speed: the median over its
// windows, scaled by kRefLoopMs over the reference loop's median time in
// the same pass. A shared host runs one run's CPU faster or slower than
// the next by up to a fifth; the reference loop slows with it, so the
// scaled cost tracks the program rather than the host.
double ScaledCpuMsPerQuery(const WirePass& w) {
  return Median(w.window_cpu_ms_per_query) *
         Ratio(kRefLoopMs, Median(w.ref_loop_ms));
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Run(const Args& args) {
  const WorkloadConfig* config = FindWorkload(args.workload);
  if (config == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (known: %s)\n",
                 args.workload.c_str(), WorkloadNames().c_str());
    return 2;
  }
  Tracer off(false);
  Tracer tracer(args.trace);
  const std::vector<maxrs::SpatialObject> objects =
      MakeObjects(*config, args.seed);
  // A traced run makes three passes in the time an untraced run makes one.
  const double pass_seconds = args.trace ? args.seconds / 3.0 : args.seconds;
  const QueryPlan plan(*config, args.seed, pass_seconds);

  // Set-up, made setup_reps times on fresh Envs; the last one serves the
  // run. Staging the generated objects into the Env is not set-up.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> deployment;
  for (size_t rep = 0; rep < config->setup_reps; ++rep) {
    deployment.reset();
    auto d = std::make_unique<Deployment>();
    d->env = maxrs::NewMemEnv(kBlockBytes);
    if (!maxrs::WriteDataset(*d->env, kObjectFile, objects).ok()) return 1;
    maxrs::DatasetHandleOptions ingest;
    ingest.shard_count = config->shards;
    ingest.memory_bytes = kMemoryBytes;
    const Clock::time_point start = Clock::now();
    maxrs::Result<maxrs::DatasetHandle> handle =
        maxrs::DatasetHandle::Ingest(*d->env, kObjectFile, ingest);
    tracer.Record("serve.ingest", rep, start, Clock::now());
    if (!handle.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n",
                   handle.status().ToString().c_str());
      return 1;
    }
    d->dataset.emplace(std::move(handle).value());
    const Status serving = d->StartServing(*config, plan, /*wire=*/true);
    if (!serving.ok()) {
      std::fprintf(stderr, "serving failed: %s\n", serving.ToString().c_str());
      return 1;
    }
    setup_s.push_back(Millis(start, Clock::now()) / 1e3);
    deployment = std::move(d);
  }
  Deployment& d = *deployment;
  const size_t shards = d.dataset->shards().size();

  // The untraced pass: the end-to-end numbers.
  const ObservedPass plain = ObservePass(d, *config, plan, pass_seconds, off,
                                         /*sample_depth=*/false);
  const double peak_rss_mb = PeakRssMb();

  std::vector<const ObservedPass*> wire_passes = {&plain};
  ObservedPass traced;
  InProcessPass replay;
  IoProbe io_probe;
  double protocol_us = 0.0, crc_us = 0.0;
  if (args.trace) {
    const auto restart = [&](bool wire) {
      const Status serving = d.StartServing(*config, plan, wire);
      if (!serving.ok()) {
        std::fprintf(stderr, "serving failed: %s\n",
                     serving.ToString().c_str());
      }
      return serving.ok();
    };
    if (!restart(/*wire=*/true)) return 1;
    traced = ObservePass(d, *config, plan, pass_seconds, tracer,
                         /*sample_depth=*/true);
    wire_passes.push_back(&traced);
    if (!restart(/*wire=*/false)) return 1;
    replay = RunInProcessPass(*config, plan, traced.wire.sent_per_conn,
                              *d.server, tracer);
    protocol_us = ProtocolMicrosPerQuery(traced.wire.request_lines,
                                         replay.sample, tracer);
    if (!restart(/*wire=*/false)) return 1;
    io_probe = ProbeBlocks(*d.server, plan, replay.answers, kIoProbeQueries);
    crc_us = Crc32cMicrosPerBlock(args.seed, tracer);
  }
  d.StopServing();

  AnswerMap answers;
  uint64_t attempted = replay.attempted + io_probe.queries + io_probe.failed;
  uint64_t failed = replay.failed + io_probe.failed;
  uint64_t err_frames = 0;
  for (const ObservedPass* pass : wire_passes) {
    MergeAnswers(&answers, pass->wire.answers);
    attempted += pass->wire.attempted;
    failed += pass->wire.err_frames + pass->wire.missing;
    err_frames += pass->wire.err_frames;
  }
  MergeAnswers(&answers, replay.answers);
  MergeAnswers(&answers, io_probe.answers);
  const Verdict verdict = VerifyAnswers(
      objects, plan, answers, args.trace ? kOneShotSample : 0, tracer);
  failed += verdict.wrong + verdict.inconsistent;
  const bool correct = verdict.wrong == 0 && verdict.inconsistent == 0;
  std::fprintf(stderr,
               "%s seed=%" PRIu64 ": %" PRIu64 " queries, %" PRIu64
               " distinct rects verified against RunExactMaxRS, %" PRIu64
               " wrong, %" PRIu64 " inconsistent, %" PRIu64 " failed\n",
               config->name, args.seed, attempted, verdict.rects,
               verdict.wrong, verdict.inconsistent, failed);

  const double base_cases_per_query =
      args.trace ? Ratio(static_cast<double>(replay.base_cases),
                         static_cast<double>(replay.executed))
                 : -1.0;
  std::vector<std::string> problems;
  for (const ObservedPass* pass : wire_passes) {
    for (std::string& p :
         ValidityProblems(*config, *pass, shards, base_cases_per_query)) {
      problems.push_back(std::move(p));
    }
  }
  if (!problems.empty()) {
    std::fprintf(stderr, "INVALID RUN of %s (seed %" PRIu64 "):\n",
                 config->name, args.seed);
    for (const std::string& p : problems) {
      std::fprintf(stderr, "  %s\n", p.c_str());
    }
    return 3;
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    const WirePass& w = plain.wire;
    metrics = {
        {"qps", Ratio(static_cast<double>(w.ok), w.elapsed_s), "1/s"},
        {"latency_p50_ms", Quantile(w.latency_ms, 0.5), "ms"},
        {"latency_p95_ms", Quantile(w.latency_ms, 0.95), "ms"},
        {"cpu_ms_per_query", ScaledCpuMsPerQuery(w), "ms"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
        {"setup_s", Median(setup_s), "s"}};
  } else {
    const WirePass& w = traced.wire;
    const ServerCounters& c = traced.counters;
    const double answered = static_cast<double>(w.ok);
    const double probed = static_cast<double>(io_probe.queries);
    const double wire_p50 = Quantile(w.latency_ms, 0.5);
    const double blocks_per_query =
        Ratio(static_cast<double>(io_probe.blocks_read +
                                  io_probe.blocks_written),
              probed);
    const double executed = static_cast<double>(replay.executed);
    const maxrs::IngestStats& ingest = d.dataset->ingest_stats();
    metrics = {
        {"net.hold_ms_p50", wire_p50 - Quantile(replay.latency_ms, 0.5), "ms"},
        {"net.protocol_us_per_query", protocol_us, "us"},
        {"net.err_frames", static_cast<double>(err_frames), "count"},
        {"serve.queue_wait_ms_p50", Quantile(replay.queue_wait_ms, 0.5), "ms"},
        {"serve.queue_depth_max", static_cast<double>(traced.queue_depth_max),
         "count"},
        {"serve.cache_hit_frac",
         Ratio(static_cast<double>(c.cache_hits),
               static_cast<double>(c.submitted)),
         "fraction"},
        {"serve.dedup_frac",
         Ratio(static_cast<double>(c.dedup_hits),
               static_cast<double>(c.submitted)),
         "fraction"},
        {"serve.batch_fill",
         Ratio(static_cast<double>(c.batched_queries),
               static_cast<double>(c.batches)),
         "queries"},
        {"serve.scans_shared_per_query",
         Ratio(static_cast<double>(traced.io.scans_shared), answered),
         "count"},
        {"serve.exec_ms_p50", Quantile(replay.exec_ms, 0.5), "ms"},
        {"serve.shed", static_cast<double>(c.shed), "count"},
        {"serve.failed", static_cast<double>(c.failed), "count"},
        {"serve.degraded", static_cast<double>(c.degraded), "count"},
        {"serve.deadlines", static_cast<double>(c.deadlines), "count"},
        {"core.oneshot_ms_p50", Median(verdict.oneshot_ms), "ms"},
        {"core.base_cases", base_cases_per_query, "count"},
        {"core.merges", Ratio(static_cast<double>(replay.merges), executed),
         "count"},
        {"core.recursion_levels",
         Ratio(static_cast<double>(replay.recursion_levels), executed),
         "count"},
        {"core.spans", Ratio(static_cast<double>(replay.spans), executed),
         "count"},
        {"io.blocks_per_query", blocks_per_query, "blocks"},
        {"io.blocks_read_per_query",
         Ratio(static_cast<double>(io_probe.blocks_read), probed), "blocks"},
        {"io.blocks_written_per_query",
         Ratio(static_cast<double>(io_probe.blocks_written), probed),
         "blocks"},
        {"io.retries",
         static_cast<double>(traced.io.reads_retried +
                             traced.io.writes_retried),
         "count"},
        {"util.crc32c_us_per_block", crc_us, "us"},
        {"io.crc_ms_per_query", blocks_per_query * crc_us / 1e3, "ms"},
        {"index.shards_pruned_per_query",
         Ratio(static_cast<double>(traced.io.shards_pruned), answered),
         "count"},
        {"index.bound_skips_per_query",
         Ratio(static_cast<double>(traced.io.bound_skips), answered), "count"},
        {"ingest.s", ingest.wall_seconds, "s"},
        {"ingest.blocks", static_cast<double>(ingest.io.total()), "blocks"},
        {"driver.send_lag_ms_p95", Quantile(w.send_lag_ms, 0.95), "ms"},
        {"host.ref_loop_ms", Median(plain.wire.ref_loop_ms), "ms"},
        {"host.cpu_ms_per_query_unscaled",
         Median(plain.wire.window_cpu_ms_per_query), "ms"},
        {"trace.overhead_frac",
         Ratio(wire_p50, Quantile(plain.wire.latency_ms, 0.5)) - 1.0,
         "fraction"},
        {"failed_frac",
         Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
         "fraction"},
    };
    if (!args.trace_out.empty() && !tracer.WriteJsonLines(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "%zu spans recorded%s%s\n", tracer.size(),
                 args.trace_out.empty() ? "" : ", written to ",
                 args.trace_out.c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace_out FILE]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
