#include "trace.h"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

uint64_t Tracer::Record(const char* name, uint64_t request,
                        Clock::time_point start, Clock::time_point end,
                        uint64_t parent) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{name, id, parent, request, start, end});
  return id;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const auto micros = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                 ",\"request\":%" PRIu64 ",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 s.name, s.id, s.parent, s.request, micros(s.start),
                 micros(s.end));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
