// The benchmark's three workloads.  Each runs on a fixed instance: the
// scene and the queries or the fleet are drawn from constant seeds, so an
// input that fails the check fails in every run, and `failed` is the same
// share of `attempted` whatever the seed.  The run's seed draws the order
// in which the operations are issued.  Rounds repeat the same operations:
// BeginRound() restores the state the first round started from (empty
// buffers, a fresh subscription service), so every round does the same
// work and yields the same counters and failures.
//
//   route_cl    one client issuing the paper's default COkNN queries
//               (clustered points, street obstacles, ql 4.5 %, k 5) against
//               a 2Q buffer far smaller than the pages a query touches.
//   fleet_ticks the subscription service's tick loop over a clustered
//               depot fleet with warm starts, differential repair and
//               membership churn; the buffer holds the whole index.
//   graze       a small scene with segments that enter street edges at
//               shallow angles, next to steep crossings and corner passes.

#ifndef COKNN_BENCH_WORKLOADS_H_
#define COKNN_BENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checker.h"
#include "common/stats.h"
#include "core/coknn.h"
#include "trace.h"

namespace coknn_bench {

/// What one operation did, measured from outside the engine.
struct OpSample {
  double seconds = 0.0;        ///< the operation's own call
  double churn_seconds = 0.0;  ///< Subscribe/Unsubscribe calls before it
  size_t answers = 0;
  size_t errors = 0;  ///< answers the engine did not deliver (quarantine)

  // Pager counter deltas around the call, summed over the trees.
  uint64_t faults = 0;
  uint64_t hits = 0;
  uint64_t device_reads = 0;
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_hits = 0;

  conn::QueryStats work;     ///< Σ per-answer QueryStats (algorithmic work)
  size_t exhaustive = 0;     ///< answers that evaluated every point of P
  size_t memo_hits = 0;      ///< answers re-reported by the stationary memo
  double engine_seconds = 0;  ///< Σ per-answer engine wall time

  // exec (fleet_ticks only).
  size_t shards = 0;
  uint64_t reuse_hits = 0;
  uint64_t store_hits = 0;
  size_t adopted = 0;
  size_t workers = 0;

  // rtree/vis replay (traced route workloads only).
  uint64_t streamed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual size_t OpsPerRound() const = 0;

  /// Restores the state every round starts from.
  virtual void BeginRound() = 0;

  /// Runs operation \p i of the round, appending its answers to \p answers.
  virtual OpSample RunOp(size_t i, Tracer* tracer,
                         std::vector<conn::core::CoknnResult>* answers) = 0;

  /// P and O as the checker sees them.
  virtual const Scene& scene() const = 0;

  /// Seeded positions checked per answer on top of every tuple midpoint.
  virtual size_t SampledPositions() const = 0;

  /// One line: the make-up of the inputs.
  virtual std::string Describe() const = 0;
};

/// Names accepted by MakeWorkload.
const std::vector<std::string>& WorkloadNames();

/// Builds workload \p name, its operations ordered by \p seed (everything
/// setup_s measures).  \p trace additionally builds the unbuffered tree
/// copies the rtree/vis replay streams from.  Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool trace);

}  // namespace coknn_bench

#endif  // COKNN_BENCH_WORKLOADS_H_
