// Network front-end tests: the wire grammar (parse/format round-trips),
// protocol errors (malformed commands answer ERR invalid without touching
// the Env; oversized/binary frames close the connection cleanly), STATS
// round-tripping the server's counters, bit-identical answers over TCP vs
// in-process Submit under concurrent clients, and graceful drain on
// Shutdown with connections still open.
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/dataset_io.h"
#include "gtest/gtest.h"
#include "io/env.h"
#include "net/net_server.h"
#include "net/query_protocol.h"
#include "net/socket.h"
#include "serve/dataset_handle.h"
#include "serve/maxrs_server.h"
#include "test_util.h"

namespace maxrs {
namespace {

constexpr char kDatasetFile[] = "objects";

// Shared setup mirroring serve_test: a fixed-seed dataset in a MemEnv,
// small enough that every suite in this file runs in well under a second.
std::unique_ptr<Env> MakeEnvWithDataset(size_t n = 800) {
  auto env = NewMemEnv(4096);
  std::vector<SpatialObject> objects =
      testing::RandomIntObjects(n, /*extent=*/1000, /*seed=*/7,
                                /*random_weights=*/true);
  EXPECT_TRUE(WriteDataset(*env, kDatasetFile, objects).ok());
  return env;
}

DatasetHandleOptions IngestOptions(size_t shards) {
  DatasetHandleOptions options;
  options.shard_count = shards;
  options.memory_bytes = 64 * 1024;
  return options;
}

MaxRSServerOptions ServerOptions(size_t workers) {
  MaxRSServerOptions options;
  options.num_workers = workers;
  options.memory_bytes = 64 * 1024;
  return options;
}

// A blocking line-protocol client: sends commands, reads '\n'-framed
// responses (carrying partial reads across calls).
class LineClient {
 public:
  explicit LineClient(uint16_t port) {
    auto sock = ConnectLoopback(port);
    EXPECT_TRUE(sock.ok()) << sock.status().ToString();
    if (sock.ok()) sock_ = std::move(sock).value();
  }

  bool Send(const std::string& data) { return SendAll(sock_, data).ok(); }

  // One response frame without its newline; empty string = EOF/error.
  std::string ReadFrame() {
    while (true) {
      const std::string::size_type nl = carry_.find('\n');
      if (nl != std::string::npos) {
        std::string line = carry_.substr(0, nl);
        carry_.erase(0, nl + 1);
        return line;
      }
      char chunk[512];
      auto n = RecvSome(sock_, chunk, sizeof(chunk));
      if (!n.ok() || n.value() == 0) return std::string();
      carry_.append(chunk, n.value());
    }
  }

  // True iff the server closed the connection (EOF with nothing buffered).
  bool AtEof() {
    if (!carry_.empty()) return false;
    char chunk[64];
    auto n = RecvSome(sock_, chunk, sizeof(chunk));
    return n.ok() && n.value() == 0;
  }

  Socket& socket() { return sock_; }

 private:
  Socket sock_;
  std::string carry_;
};

// --- Wire grammar (pure parse/format; no server involved) ---

TEST(QueryProtocolTest, ParsesMaxRSWithOverrides) {
  auto cmd = ParseCommand(
      "MAXRS 120.5 80 deadline_ms=250 pruning=off");
  ASSERT_TRUE(cmd.ok()) << cmd.status().ToString();
  EXPECT_EQ(cmd->type, CommandType::kMaxRS);
  EXPECT_EQ(cmd->spec.width, 120.5);
  EXPECT_EQ(cmd->spec.height, 80.0);
  ASSERT_TRUE(cmd->spec.deadline_ms.has_value());
  EXPECT_EQ(*cmd->spec.deadline_ms, 250);
  ASSERT_TRUE(cmd->spec.pruning.has_value());
  EXPECT_EQ(*cmd->spec.pruning, ServePruningMode::kOff);
}

TEST(QueryProtocolTest, BareMaxRSLeavesOverridesUnset) {
  auto cmd = ParseCommand("MAXRS 10 20");
  ASSERT_TRUE(cmd.ok());
  EXPECT_FALSE(cmd->spec.deadline_ms.has_value());
  EXPECT_FALSE(cmd->spec.pruning.has_value());
}

TEST(QueryProtocolTest, ToleratesTrailingCarriageReturn) {
  EXPECT_TRUE(ParseCommand("PING\r").ok());
  EXPECT_TRUE(ParseCommand("MAXRS 10 20\r").ok());
}

TEST(QueryProtocolTest, RejectsMalformedCommands) {
  const char* bad[] = {
      "",                             // empty line
      "FOO 1 2",                      // unknown verb
      "MAXRS",                        // missing dimensions
      "MAXRS 10",                     // missing height
      "MAXRS ten 20",                 // non-numeric width
      "MAXRS 10 20x",                 // trailing garbage in a number
      "MAXRS 10 20 30",               // stray positional argument
      "MAXRS 10 20 deadline_ms=-5",   // negative deadline
      "MAXRS 10 20 deadline_ms=abc",  // non-integer deadline
      "MAXRS 10 20 pruning=maybe",    // unknown enum value
      "MAXRS 10 20 routing=magic",    // unknown option key
      "MAXRS 10 20 routing=materialized",  // removed option key
      "MAXRS 10 20 color=red",        // unknown option key
      "PING now",                     // arity violation
      "STATS please",                 // arity violation
  };
  for (const char* line : bad) {
    auto cmd = ParseCommand(line);
    EXPECT_FALSE(cmd.ok()) << "accepted: '" << line << "'";
    EXPECT_EQ(cmd.status().code(), Status::Code::kInvalidArgument);
  }
}

TEST(QueryProtocolTest, ResponseDoublesRoundTripExactly) {
  QueryResponse response;
  response.result.location = {1.0 / 3.0, 123456.789012345678};
  response.result.total_weight = 0.1 + 0.2;  // famously inexact
  response.served_from = ServedFrom::kExecuted;
  response.batch_size = 3;
  const std::string frame = FormatResponse(response);
  ASSERT_EQ(frame.rfind("OK ", 0), 0u);
  double x = 0, y = 0, w = 0;
  char served[16];
  unsigned long long batch = 0;
  ASSERT_EQ(std::sscanf(frame.c_str(), "OK %lf %lf %lf %15s %llu", &x, &y, &w,
                        served, &batch),
            5);
  EXPECT_EQ(x, response.result.location.x);  // bit-identical, not approximate
  EXPECT_EQ(y, response.result.location.y);
  EXPECT_EQ(w, response.result.total_weight);
  EXPECT_STREQ(served, "executed");
  EXPECT_EQ(batch, 3u);
}

TEST(QueryProtocolTest, ErrorFramesAreOneLine) {
  const std::string frame =
      FormatError(Status::InvalidArgument("first\nsecond"));
  EXPECT_EQ(frame.rfind("ERR invalid ", 0), 0u);
  EXPECT_EQ(frame.find('\n'), frame.size() - 1);  // only the terminator
  EXPECT_EQ(FormatError(Status::Unavailable("q full")).rfind("ERR unavailable", 0),
            0u);
  EXPECT_EQ(FormatError(Status::DeadlineExceeded("late")).rfind("ERR deadline", 0),
            0u);
  EXPECT_EQ(FormatError(Status::NotSupported("down")).rfind("ERR shutdown", 0),
            0u);
}

TEST(QueryProtocolTest, StatsRoundTripIgnoringUnknownKeys) {
  ServerCounters counters;
  counters.submitted = 42;
  counters.cache_hits = 7;
  counters.dedup_hits = 3;
  counters.executed = 32;
  counters.shed = 5;
  counters.batches = 4;
  counters.batched_queries = 9;
  IoStatsSnapshot io{};
  io.blocks_read = 1234;
  io.blocks_written = 567;
  io.scans_shared = 8;
  std::string frame = FormatStats(counters, io);
  frame.insert(frame.size() - 1, " future_key=99");  // forward compat
  ServerCounters parsed_counters;
  IoStatsSnapshot parsed_io{};
  ASSERT_TRUE(ParseStats(frame, &parsed_counters, &parsed_io).ok());
  EXPECT_EQ(parsed_counters.submitted, counters.submitted);
  EXPECT_EQ(parsed_counters.cache_hits, counters.cache_hits);
  EXPECT_EQ(parsed_counters.dedup_hits, counters.dedup_hits);
  EXPECT_EQ(parsed_counters.executed, counters.executed);
  EXPECT_EQ(parsed_counters.shed, counters.shed);
  EXPECT_EQ(parsed_counters.batches, counters.batches);
  EXPECT_EQ(parsed_counters.batched_queries, counters.batched_queries);
  EXPECT_EQ(parsed_io.blocks_read, io.blocks_read);
  EXPECT_EQ(parsed_io.blocks_written, io.blocks_written);
  EXPECT_EQ(parsed_io.scans_shared, io.scans_shared);
  ServerCounters ignored;
  IoStatsSnapshot ignored_io{};
  EXPECT_FALSE(ParseStats("PONG", &ignored, &ignored_io).ok());
}

// --- The server over real sockets ---

TEST(NetServerTest, PingStatsQuitLifecycle) {
  auto env = MakeEnvWithDataset();
  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(2));
  ASSERT_TRUE(handle.ok());
  MaxRSServer server(*env, *handle, ServerOptions(2));
  NetServer net(server, *env, NetServerOptions{});
  ASSERT_TRUE(net.Start().ok());

  LineClient client(net.port());
  ASSERT_TRUE(client.Send("PING\n"));
  EXPECT_EQ(client.ReadFrame(), "PONG");
  ASSERT_TRUE(client.Send("STATS\n"));
  ServerCounters counters;
  IoStatsSnapshot io{};
  EXPECT_TRUE(ParseStats(client.ReadFrame(), &counters, &io).ok());
  EXPECT_EQ(counters.submitted, 0u);
  ASSERT_TRUE(client.Send("QUIT\n"));
  EXPECT_EQ(client.ReadFrame(), "BYE");
  EXPECT_TRUE(client.AtEof());
  EXPECT_EQ(net.accepted(), 1u);
}

TEST(NetServerTest, ParseErrorsAnswerInvalidWithoutTouchingTheEnv) {
  auto env = MakeEnvWithDataset();
  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(2));
  ASSERT_TRUE(handle.ok());
  MaxRSServer server(*env, *handle, ServerOptions(2));
  NetServer net(server, *env, NetServerOptions{});
  ASSERT_TRUE(net.Start().ok());

  const IoStatsSnapshot before = env->stats().Snapshot();
  LineClient client(net.port());
  const char* bad[] = {"FOO\n", "MAXRS\n", "MAXRS ten 20\n",
                       "MAXRS 10 20 color=red\n"};
  for (const char* line : bad) {
    ASSERT_TRUE(client.Send(line));
    EXPECT_EQ(client.ReadFrame().rfind("ERR invalid", 0), 0u) << line;
  }
  // Spec-level rejection (negative width) also stays off the I/O path: the
  // ERR comes from ValidateSpec, not from an execution attempt.
  ASSERT_TRUE(client.Send("MAXRS -5 10\n"));
  EXPECT_EQ(client.ReadFrame().rfind("ERR invalid", 0), 0u);
  // The connection survived every rejection.
  ASSERT_TRUE(client.Send("PING\n"));
  EXPECT_EQ(client.ReadFrame(), "PONG");

  const IoStatsSnapshot after = env->stats().Snapshot();
  EXPECT_EQ(after.total() - before.total(), 0u);
  EXPECT_EQ(server.counters().submitted, 0u);
}

TEST(NetServerTest, OversizedLineClosesConnectionCleanly) {
  auto env = MakeEnvWithDataset();
  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(2));
  ASSERT_TRUE(handle.ok());
  MaxRSServer server(*env, *handle, ServerOptions(2));
  NetServerOptions options;
  options.max_line_bytes = 128;
  NetServer net(server, *env, options);
  ASSERT_TRUE(net.Start().ok());

  LineClient client(net.port());
  ASSERT_TRUE(client.Send(std::string(512, 'A')));  // no newline in sight
  EXPECT_EQ(client.ReadFrame().rfind("ERR invalid", 0), 0u);
  EXPECT_TRUE(client.AtEof());

  // Same for a completed line over the cap.
  LineClient second(net.port());
  ASSERT_TRUE(second.Send(std::string(256, 'B') + "\n"));
  EXPECT_EQ(second.ReadFrame().rfind("ERR invalid", 0), 0u);
  EXPECT_TRUE(second.AtEof());
}

TEST(NetServerTest, BinaryGarbageClosesConnectionCleanly) {
  auto env = MakeEnvWithDataset();
  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(2));
  ASSERT_TRUE(handle.ok());
  MaxRSServer server(*env, *handle, ServerOptions(2));
  NetServer net(server, *env, NetServerOptions{});
  ASSERT_TRUE(net.Start().ok());

  LineClient client(net.port());
  const std::string frame("MAXRS 10\0 20\n", 13);  // embedded NUL
  ASSERT_TRUE(client.Send(frame));
  EXPECT_EQ(client.ReadFrame().rfind("ERR invalid", 0), 0u);
  EXPECT_TRUE(client.AtEof());
  EXPECT_EQ(server.counters().submitted, 0u);
}

TEST(NetServerTest, StatsReflectsServedTraffic) {
  auto env = MakeEnvWithDataset();
  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(2));
  ASSERT_TRUE(handle.ok());
  MaxRSServer server(*env, *handle, ServerOptions(2));
  NetServer net(server, *env, NetServerOptions{});
  ASSERT_TRUE(net.Start().ok());

  LineClient client(net.port());
  ASSERT_TRUE(client.Send("MAXRS 100 100\nMAXRS 100 100\nMAXRS 80 60\n"));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(client.ReadFrame().rfind("OK ", 0), 0u);
  }
  ASSERT_TRUE(client.Send("STATS\n"));
  ServerCounters wire;
  IoStatsSnapshot wire_io{};
  ASSERT_TRUE(ParseStats(client.ReadFrame(), &wire, &wire_io).ok());

  const ServerCounters direct = server.counters();
  EXPECT_EQ(wire.submitted, direct.submitted);
  EXPECT_EQ(wire.executed, direct.executed);
  EXPECT_EQ(wire.cache_hits, direct.cache_hits);
  EXPECT_EQ(wire.dedup_hits, direct.dedup_hits);
  EXPECT_EQ(wire.submitted, 3u);
  // The repeat of (100,100) was a cache or dedup hit, never a third run.
  EXPECT_EQ(wire.executed, 2u);
  EXPECT_EQ(wire.cache_hits + wire.dedup_hits, 1u);
  EXPECT_EQ(wire_io.blocks_read, env->stats().Snapshot().blocks_read);
}

TEST(NetServerTest, ConcurrentClientsMatchInProcessSubmitBitExactly) {
  auto env = MakeEnvWithDataset();
  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(2));
  ASSERT_TRUE(handle.ok());
  MaxRSServer server(*env, *handle, ServerOptions(4));
  NetServer net(server, *env, NetServerOptions{});
  ASSERT_TRUE(net.Start().ok());

  const std::vector<std::pair<double, double>> rects = {
      {100, 100}, {60, 340}, {250, 40}, {85, 85}, {140, 220}};

  // The oracle: in-process answers through the canonical structured API.
  std::vector<MaxRSResult> expected;
  for (const auto& rect : rects) {
    QuerySpec spec;
    spec.width = rect.first;
    spec.height = rect.second;
    auto response = server.Submit(spec);
    ASSERT_TRUE(response.ok());
    expected.push_back(response->result);
  }

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  // char, not bool: vector<bool> packs the clients' flags into one word,
  // so concurrent writes to distinct flags would race.
  std::vector<char> passed(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      LineClient client(net.port());
      bool all_ok = true;
      for (size_t i = 0; i < rects.size(); ++i) {
        char command[96];
        std::snprintf(command, sizeof(command), "MAXRS %.17g %.17g\n",
                      rects[i].first, rects[i].second);
        all_ok = all_ok && client.Send(command);
        const std::string frame = client.ReadFrame();
        double x = 0, y = 0, w = 0;
        all_ok = all_ok &&
                 std::sscanf(frame.c_str(), "OK %lf %lf %lf", &x, &y, &w) == 3;
        // %.17g on the wire: equality here is bit-equality, the same
        // contract every in-process equivalence suite pins.
        all_ok = all_ok && x == expected[i].location.x &&
                 y == expected[i].location.y && w == expected[i].total_weight;
      }
      passed[static_cast<size_t>(c)] = all_ok;
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(passed[static_cast<size_t>(c)]) << "client " << c;
  }
}

TEST(NetServerTest, PipeliningPreservesResponseOrder) {
  auto env = MakeEnvWithDataset();
  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(2));
  ASSERT_TRUE(handle.ok());
  MaxRSServer server(*env, *handle, ServerOptions(4));
  NetServer net(server, *env, NetServerOptions{});
  ASSERT_TRUE(net.Start().ok());

  // Distinct rects pipelined in one write; responses must come back in
  // command order even though the queries execute concurrently.
  const std::vector<std::pair<double, double>> rects = {
      {30, 470}, {470, 30}, {111, 111}, {222, 55}};
  std::vector<double> expected_weight;
  for (const auto& rect : rects) {
    QuerySpec spec;
    spec.width = rect.first;
    spec.height = rect.second;
    auto response = server.Submit(spec);
    ASSERT_TRUE(response.ok());
    expected_weight.push_back(response->result.total_weight);
  }

  LineClient client(net.port());
  std::string burst;
  for (const auto& rect : rects) {
    char command[96];
    std::snprintf(command, sizeof(command), "MAXRS %.17g %.17g\n", rect.first,
                  rect.second);
    burst += command;
  }
  burst += "PING\n";
  ASSERT_TRUE(client.Send(burst));
  for (size_t i = 0; i < rects.size(); ++i) {
    double x = 0, y = 0, w = 0;
    const std::string frame = client.ReadFrame();
    ASSERT_EQ(std::sscanf(frame.c_str(), "OK %lf %lf %lf", &x, &y, &w), 3);
    EXPECT_EQ(w, expected_weight[i]) << "response " << i << " out of order";
  }
  EXPECT_EQ(client.ReadFrame(), "PONG");  // and the trailer stayed last
}

TEST(NetServerTest, ShutdownWithOpenConnectionsDrainsWithoutHanging) {
  auto env = MakeEnvWithDataset();
  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(2));
  ASSERT_TRUE(handle.ok());
  MaxRSServer server(*env, *handle, ServerOptions(2));
  NetServer net(server, *env, NetServerOptions{});
  ASSERT_TRUE(net.Start().ok());

  // Three connections left open on purpose — no QUIT, no EOF.
  LineClient a(net.port());
  LineClient b(net.port());
  LineClient c(net.port());
  ASSERT_TRUE(a.Send("MAXRS 90 90\n"));
  ASSERT_TRUE(b.Send("MAXRS 45 180\n"));
  EXPECT_EQ(a.ReadFrame().rfind("OK ", 0), 0u);
  EXPECT_EQ(b.ReadFrame().rfind("OK ", 0), 0u);

  net.Shutdown();  // the test would time out if this wedged
  EXPECT_EQ(net.active_connections(), 0u);
  EXPECT_TRUE(a.AtEof());
  EXPECT_TRUE(b.AtEof());
  EXPECT_TRUE(c.AtEof());
  // Shutdown is idempotent.
  net.Shutdown();
}

}  // namespace
}  // namespace maxrs
