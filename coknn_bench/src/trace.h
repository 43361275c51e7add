// In-memory span recorder for the traced run.
//
// The benchmark opens a span around each of its own calls into a layer
// (exec Tick/Subscribe/Unsubscribe, core CoknnQuery, and the rtree/vis
// replay of a route query).  Spans of one operation share its id; a span's
// parent is the span open when it started.  Nothing is written until the
// run ends, when Write() emits Chrome trace-event JSON.

#ifndef COKNN_BENCH_TRACE_H_
#define COKNN_BENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace coknn_bench {

class Tracer {
 public:
  struct Span {
    const char* name;
    uint64_t op;      ///< id of the operation the span belongs to
    uint32_t id;      ///< index + 1 in spans()
    uint32_t parent;  ///< id of the enclosing span, 0 for an operation root
    int64_t start_ns;
    int64_t end_ns;
  };

  /// Records one span for its lifetime; a null tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    uint32_t id_ = 0;
    uint32_t saved_parent_ = 0;
  };

  Tracer();

  /// Starts operation \p op: spans opened from now on carry its id.
  void BeginOp(uint64_t op) { op_ = op; }

  /// Sum of the durations of every span named \p name, in seconds.
  double TotalSeconds(const std::string& name) const;

  /// Writes the spans as Chrome trace-event JSON; false on I/O failure.
  bool Write(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  int64_t Now() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  uint64_t op_ = 0;
  uint32_t open_ = 0;  // id of the innermost open span
};

}  // namespace coknn_bench

#endif  // COKNN_BENCH_TRACE_H_
