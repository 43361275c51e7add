#include "trace.h"

#include <cstdio>
#include <fstream>

namespace coknn_bench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  id_ = static_cast<uint32_t>(tracer_->spans_.size() + 1);
  tracer_->spans_.push_back(
      {name, tracer_->op_, id_, tracer_->open_, tracer_->Now(), 0});
  saved_parent_ = tracer_->open_;
  tracer_->open_ = id_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[id_ - 1].end_ns = tracer_->Now();
  tracer_->open_ = saved_parent_;
}

double Tracer::TotalSeconds(const std::string& name) const {
  int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                  "\"span\":%u,\"parent\":%u}}",
                  i == 0 ? "" : ",", s.name, s.start_ns * 1e-3,
                  (s.end_ns - s.start_ns) * 1e-3,
                  static_cast<unsigned long long>(s.op), s.id, s.parent);
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace coknn_bench
