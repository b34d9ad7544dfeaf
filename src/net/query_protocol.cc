#include "net/query_protocol.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <vector>

namespace maxrs {
namespace {

// Splits on single spaces; empty tokens (doubled spaces, leading space)
// are parse errors surfaced by the callers' arity checks.
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string::size_type start = 0;
  while (start <= line.size()) {
    const std::string::size_type space = line.find(' ', start);
    if (space == std::string::npos) {
      tokens.push_back(line.substr(start));
      break;
    }
    tokens.push_back(line.substr(start, space - start));
    start = space + 1;
  }
  return tokens;
}

bool ParseDouble(const std::string& token, double* out) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || errno == ERANGE) return false;
  *out = v;
  return true;
}

bool ParseInt64(const std::string& token, int64_t* out) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size() || errno == ERANGE) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* ServedFromName(ServedFrom served) {
  switch (served) {
    case ServedFrom::kCache:
      return "cache";
    case ServedFrom::kDedup:
      return "dedup";
    case ServedFrom::kExecuted:
      return "executed";
  }
  return "executed";
}

// The wire class of a Status code: the coarse grouping a client acts on.
const char* ErrorClass(Status::Code code) {
  switch (code) {
    case Status::Code::kInvalidArgument:
      return "invalid";
    case Status::Code::kUnavailable:
      return "unavailable";
    case Status::Code::kDeadlineExceeded:
      return "deadline";
    case Status::Code::kNotSupported:
      return "shutdown";
    case Status::Code::kCorruption:
      return "corruption";
    default:
      return "internal";
  }
}

Status Invalid(const std::string& what) {
  return Status::InvalidArgument("bad command: " + what);
}

}  // namespace

Result<Command> ParseCommand(const std::string& line) {
  std::string trimmed = line;
  if (!trimmed.empty() && trimmed.back() == '\r') trimmed.pop_back();
  const std::vector<std::string> tokens = Tokenize(trimmed);
  if (tokens.empty() || tokens[0].empty()) return Invalid("empty line");

  Command command;
  if (tokens[0] == "STATS" || tokens[0] == "PING" || tokens[0] == "QUIT") {
    if (tokens.size() != 1) return Invalid(tokens[0] + " takes no arguments");
    command.type = tokens[0] == "STATS"  ? CommandType::kStats
                   : tokens[0] == "PING" ? CommandType::kPing
                                         : CommandType::kQuit;
    return {command};
  }
  if (tokens[0] != "MAXRS") return Invalid("unknown verb '" + tokens[0] + "'");
  if (tokens.size() < 3) return Invalid("MAXRS needs width and height");

  command.type = CommandType::kMaxRS;
  if (!ParseDouble(tokens[1], &command.spec.width)) {
    return Invalid("width '" + tokens[1] + "' is not a number");
  }
  if (!ParseDouble(tokens[2], &command.spec.height)) {
    return Invalid("height '" + tokens[2] + "' is not a number");
  }
  for (size_t i = 3; i < tokens.size(); ++i) {
    const std::string& option = tokens[i];
    const std::string::size_type eq = option.find('=');
    if (eq == std::string::npos) {
      return Invalid("option '" + option + "' is not key=value");
    }
    const std::string key = option.substr(0, eq);
    const std::string value = option.substr(eq + 1);
    if (key == "deadline_ms") {
      int64_t deadline = 0;
      if (!ParseInt64(value, &deadline) || deadline < 0) {
        return Invalid("deadline_ms '" + value +
                       "' is not a non-negative integer");
      }
      command.spec.deadline_ms = deadline;
    } else if (key == "pruning") {
      if (value == "auto") {
        command.spec.pruning = ServePruningMode::kAuto;
      } else if (value == "off") {
        command.spec.pruning = ServePruningMode::kOff;
      } else {
        return Invalid("pruning must be auto|off, got '" + value + "'");
      }
    } else {
      return Invalid("unknown option '" + key + "'");
    }
  }
  return {command};
}

std::string FormatResponse(const QueryResponse& response) {
  std::string out = "OK ";
  out += FormatDouble(response.result.location.x);
  out += ' ';
  out += FormatDouble(response.result.location.y);
  out += ' ';
  out += FormatDouble(response.result.total_weight);
  out += ' ';
  out += ServedFromName(response.served_from);
  out += ' ';
  out += std::to_string(response.batch_size);
  out += '\n';
  return out;
}

std::string FormatError(const Status& status) {
  std::string message = status.message();
  for (char& c : message) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return std::string("ERR ") + ErrorClass(status.code()) + " " + message +
         "\n";
}

std::string FormatStats(const ServerCounters& counters,
                        const IoStatsSnapshot& io) {
  std::ostringstream out;
  out << "STATS"
      << " submitted=" << counters.submitted
      << " cache_hits=" << counters.cache_hits
      << " dedup_hits=" << counters.dedup_hits
      << " executed=" << counters.executed << " failed=" << counters.failed
      << " cache_rejects=" << counters.cache_rejects
      << " shed=" << counters.shed << " degraded=" << counters.degraded
      << " deadlines=" << counters.deadlines
      << " corruptions=" << counters.corruptions
      << " batches=" << counters.batches
      << " batched_queries=" << counters.batched_queries
      << " unpruned=" << counters.unpruned
      << " blocks_read=" << io.blocks_read
      << " blocks_written=" << io.blocks_written
      << " reads_retried=" << io.reads_retried
      << " writes_retried=" << io.writes_retried
      << " shards_pruned=" << io.shards_pruned
      << " bound_skips=" << io.bound_skips
      << " scans_shared=" << io.scans_shared << "\n";
  return out.str();
}

Status ParseStats(const std::string& line, ServerCounters* counters,
                  IoStatsSnapshot* io) {
  std::string trimmed = line;
  while (!trimmed.empty() &&
         (trimmed.back() == '\n' || trimmed.back() == '\r')) {
    trimmed.pop_back();
  }
  const std::vector<std::string> tokens = Tokenize(trimmed);
  if (tokens.empty() || tokens[0] != "STATS") {
    return Status::InvalidArgument("not a STATS frame");
  }
  for (size_t i = 1; i < tokens.size(); ++i) {
    const std::string::size_type eq = tokens[i].find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("STATS field '" + tokens[i] +
                                     "' is not key=value");
    }
    const std::string key = tokens[i].substr(0, eq);
    int64_t value = 0;
    if (!ParseInt64(tokens[i].substr(eq + 1), &value) || value < 0) {
      return Status::InvalidArgument("STATS field '" + tokens[i] +
                                     "' has a bad value");
    }
    const uint64_t v = static_cast<uint64_t>(value);
    if (key == "submitted") counters->submitted = v;
    else if (key == "cache_hits") counters->cache_hits = v;
    else if (key == "dedup_hits") counters->dedup_hits = v;
    else if (key == "executed") counters->executed = v;
    else if (key == "failed") counters->failed = v;
    else if (key == "cache_rejects") counters->cache_rejects = v;
    else if (key == "shed") counters->shed = v;
    else if (key == "degraded") counters->degraded = v;
    else if (key == "deadlines") counters->deadlines = v;
    else if (key == "corruptions") counters->corruptions = v;
    else if (key == "batches") counters->batches = v;
    else if (key == "batched_queries") counters->batched_queries = v;
    else if (key == "unpruned") counters->unpruned = v;
    else if (key == "blocks_read") io->blocks_read = v;
    else if (key == "blocks_written") io->blocks_written = v;
    else if (key == "reads_retried") io->reads_retried = v;
    else if (key == "writes_retried") io->writes_retried = v;
    else if (key == "shards_pruned") io->shards_pruned = v;
    else if (key == "bound_skips") io->bound_skips = v;
    else if (key == "scans_shared") io->scans_shared = v;
    // Unknown keys: ignored on purpose (forward compatibility).
  }
  return Status::OK();
}

std::string FormatPong() { return "PONG\n"; }

std::string FormatBye() { return "BYE\n"; }

}  // namespace maxrs
