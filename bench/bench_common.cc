#include "bench_common.h"

#include <cinttypes>
#include <cstdlib>

#include "datagen/dataset_io.h"
#include "util/check.h"

namespace maxrs {
namespace bench {

RunOutcome RunAlgorithm(Algorithm algo, const std::vector<SpatialObject>& objects,
                        double range, size_t memory_bytes,
                        size_t num_threads) {
  auto env = NewMemEnv(kBlockSize);
  MAXRS_CHECK_OK(WriteDataset(*env, "dataset", objects));
  env->stats().Reset();

  RunOutcome outcome;
  switch (algo) {
    case Algorithm::kExactMaxRS: {
      MaxRSOptions options;
      options.rect_width = range;
      options.rect_height = range;
      options.memory_bytes = memory_bytes;
      options.num_threads = num_threads;
      auto result = RunExactMaxRS(*env, "dataset", options);
      MAXRS_CHECK_OK(result.status());
      outcome.io = result->stats.io.total();
      outcome.seconds = result->stats.wall_seconds;
      outcome.total_weight = result->total_weight;
      break;
    }
    case Algorithm::kNaive:
    case Algorithm::kASBTree: {
      BaselineOptions options;
      options.rect_width = range;
      options.rect_height = range;
      options.memory_bytes = memory_bytes;
      auto result = algo == Algorithm::kNaive
                        ? RunNaivePlaneSweep(*env, "dataset", options)
                        : RunASBTreeSweep(*env, "dataset", options);
      MAXRS_CHECK_OK(result.status());
      outcome.io = result->io.total();
      outcome.seconds = result->wall_seconds;
      outcome.total_weight = result->total_weight;
      break;
    }
  }
  return outcome;
}

TablePrinter::TablePrinter(std::string title, std::string x_label,
                           std::vector<std::string> columns,
                           std::string csv_path)
    : columns_(std::move(columns)) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-22s", x_label.c_str());
  for (const std::string& c : columns_) std::printf("%16s", c.c_str());
  std::printf("\n");
  for (size_t i = 0; i < 22 + 16 * columns_.size(); ++i) std::printf("-");
  std::printf("\n");
  if (!csv_path.empty()) {
    csv_ = std::fopen(csv_path.c_str(), "a");
    if (csv_ != nullptr) {
      std::fprintf(csv_, "# %s\n%s", title.c_str(), x_label.c_str());
      for (const std::string& c : columns_) std::fprintf(csv_, ",%s", c.c_str());
      std::fprintf(csv_, "\n");
    }
  }
}

TablePrinter::~TablePrinter() {
  if (csv_ != nullptr) std::fclose(csv_);
}

void TablePrinter::AddRow(const std::string& x, const std::vector<double>& values) {
  std::printf("%-22s", x.c_str());
  for (double v : values) {
    if (v == static_cast<uint64_t>(v) && v < 1e15) {
      std::printf("%16" PRIu64, static_cast<uint64_t>(v));
    } else {
      std::printf("%16.4f", v);
    }
  }
  std::printf("\n");
  std::fflush(stdout);
  if (csv_ != nullptr) {
    std::fprintf(csv_, "%s", x.c_str());
    for (double v : values) std::fprintf(csv_, ",%.6g", v);
    std::fprintf(csv_, "\n");
  }
}

BenchArgs BenchArgs::Parse(int argc, char** argv) {
  Flags flags;
  flags.Parse(argc, argv);
  BenchArgs args;
  args.quick = flags.GetBool("quick", false);
  args.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  args.csv_path = flags.GetString("csv", "");
  return args;
}

bool WriteBenchJson(const std::string& path,
                    const std::vector<BenchRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  // Field values are plain identifiers and numbers; no JSON escaping needed.
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::fprintf(f,
                 "  {\"bench\": \"%s\", \"algo\": \"%s\", \"dataset\": \"%s\","
                 " \"n\": %" PRIu64 ", \"threads\": %zu,"
                 " \"memory_bytes\": %zu, \"wall_seconds\": %.6f,"
                 " \"io_blocks\": %" PRIu64 ", \"total_weight\": %.6f",
                 r.bench.c_str(), r.algo.c_str(), r.dataset.c_str(), r.n,
                 r.threads, r.memory_bytes, r.wall_seconds, r.io_blocks,
                 r.total_weight);
    if (r.p99_ms > 0.0) {
      // Latency records (bench_workload): tail percentiles + throughput.
      std::fprintf(f,
                   ", \"qps\": %.2f, \"p50_ms\": %.3f, \"p95_ms\": %.3f,"
                   " \"p99_ms\": %.3f",
                   r.qps, r.p50_ms, r.p95_ms, r.p99_ms);
    }
    std::fprintf(f, "}%s\n", i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  // A truncated artifact (disk full mid-write) must not report success:
  // downstream perf tooling consumes this file.
  const bool write_failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || write_failed) {
    std::fprintf(stderr, "write to %s failed\n", path.c_str());
    return false;
  }
  return true;
}

std::vector<uint64_t> ParseU64List(const std::string& csv) {
  std::vector<uint64_t> out;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    const std::string item = csv.substr(pos, comma - pos);
    if (!item.empty()) out.push_back(std::strtoull(item.c_str(), nullptr, 10));
    pos = comma + 1;
  }
  return out;
}

std::vector<SpatialObject> MakeDistribution(const std::string& name, uint64_t n,
                                            uint64_t seed) {
  if (name == "ux") return MakeUxLike(seed);
  if (name == "ne") return MakeNeLike(seed);
  SyntheticOptions options;
  options.cardinality = n;
  options.domain_size = 1e6;  // Table 3 default space
  options.seed = seed;
  if (name == "gaussian") return MakeGaussian(options);
  return MakeUniform(options);
}

}  // namespace bench
}  // namespace maxrs
