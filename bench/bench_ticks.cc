// Moving-query subscription service: wave-over-wave tick-loop COkNN.
//
// A clustered fleet of clients subscribes with routes; every tick advances
// each client one step and re-evaluates its COkNN.  Two variants:
//
//   BM_TicksWarm   — incremental loop: carried per-shard workspaces, the
//                    cross-shard obstacle store, and the stationary-segment
//                    memo all engaged (use_tick_warm_start on).
//   BM_TicksFresh  — the reference: same service and sharding machinery,
//                    but every tick evaluated from scratch (gate off).
//
// The equivalence suite proves the two produce bit-identical answers, so
// the counters here are a pure performance statement.  Counters: qps
// (client updates/sec across all ticks), p50_ms/p99_ms (per-query CPU
// latency over the last iteration's updates), and the reuse counters
// tick_warm / tick_frontier / store_hits.
//
// Setting $CONN_TICK_ARRIVAL_QPS additionally registers the open-loop
// variants (BM_TicksOpenLoop*): issuer threads driving independent
// services on a fixed arrival timetable, reporting sojourn latency under
// saturation.  The baselines are captured without the env var, so the
// committed JSON stays closed-loop.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "datagen/fleet.h"
#include "exec/subscription.h"

namespace conn {
namespace bench {
namespace {

size_t FleetClients() { return std::max<size_t>(16, BenchQueries() * 4); }

constexpr uint64_t kTicks = 8;

std::vector<exec::RouteSpec> TickFleet(size_t n, uint64_t seed) {
  datagen::FleetOptions fopts;  // clustered depots, dyadic speeds
  fopts.depots = std::max<size_t>(2, n / 8);
  std::vector<exec::RouteSpec> routes;
  for (datagen::FleetRoute& r :
       datagen::MakeFleetRoutes(n, datagen::Workspace(), fopts, seed)) {
    routes.push_back(exec::RouteSpec{std::move(r.waypoints), r.speed});
  }
  return routes;
}

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const size_t idx =
      static_cast<size_t>(p * static_cast<double>(v->size() - 1) + 0.5);
  return (*v)[idx];
}

exec::SubscriptionOptions TickOptions(bool warm) {
  exec::SubscriptionOptions opts;
  opts.batch.target_shard_size = 8;
  // Force sharing: this harness measures cross-tick reuse, not the
  // adaptive locality guard (bench_batch covers the guard).  The default
  // guard would decline depot-spanning shards at small bench scales and
  // silently benchmark the per-query fallback instead.
  opts.batch.share_locality_factor = 0.0;
  opts.batch.query.use_tick_warm_start = warm;
  opts.batch.query.use_differential_repair = warm;
  opts.reshard_period = 4;
  return opts;
}

void RunTickBench(benchmark::State& state, bool warm) {
  const Dataset& ds = GetDataset(datagen::PointDistribution::kUniform,
                                 ScaledCa(), ScaledLa());
  ApplyBenchStageHints(ds);
  const std::vector<exec::RouteSpec> routes = TickFleet(FleetClients(), 4242);
  const exec::SubscriptionOptions opts = TickOptions(warm);

  QueryStats totals;
  std::vector<double> lat;
  size_t updates = 0;
  size_t adopted = 0;
  double elapsed = 0.0;
  for (auto _ : state) {
    exec::SubscriptionService service(*ds.tp, *ds.to, opts);
    for (const exec::RouteSpec& r : routes) {
      service.Subscribe(r, 5).value();
    }
    // Per-iteration totals (see bench_batch.cc): work counters must not
    // scale with however many iterations the harness chooses.
    totals = QueryStats{};
    lat.clear();
    updates = 0;
    adopted = 0;
    for (uint64_t tick = 0; tick < kTicks; ++tick) {
      const exec::TickResult result = service.Tick();
      benchmark::DoNotOptimize(result.updates.data());
      elapsed += result.stats.wall_seconds;
      totals += result.stats.per_query_totals;
      adopted += result.stats.workspaces_adopted;
      updates += result.updates.size();
      for (const exec::ClientUpdate& u : result.updates) {
        if (u.result.has_value()) lat.push_back(u.result->stats.cpu_seconds);
      }
    }
  }
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(updates) * state.iterations() / elapsed);
  state.counters["p50_ms"] = Percentile(&lat, 0.50) * 1e3;
  state.counters["p99_ms"] = Percentile(&lat, 0.99) * 1e3;
  state.counters["tick_warm"] = static_cast<double>(totals.tick_warm_starts);
  state.counters["tick_frontier"] =
      static_cast<double>(totals.tick_frontier_reuse);
  state.counters["store_hits"] =
      static_cast<double>(totals.cross_shard_store_hits);
  // Differential repair (use_differential_repair) — zero in the fresh run.
  state.counters["repairs"] = static_cast<double>(totals.repairs_applied);
  state.counters["carried"] = static_cast<double>(totals.tuples_carried);
  state.counters["rescored"] = static_cast<double>(totals.tuples_rescored);
  state.counters["frontier_shares"] =
      static_cast<double>(totals.frontier_shares);
  state.counters["adopted"] = static_cast<double>(adopted);
  // Hint staging ($CONN_STAGE_HINTS) — zero when it's off.
  state.counters["prefetch_issued"] =
      static_cast<double>(totals.prefetch_issued);
  state.counters["prefetch_hits"] = static_cast<double>(totals.prefetch_hits);
  state.SetLabel(StageHintsLabel());
}

void BM_TicksWarm(benchmark::State& state) {
  RunTickBench(state, /*warm=*/true);
}
BENCHMARK(BM_TicksWarm)->Unit(benchmark::kMillisecond);

void BM_TicksFresh(benchmark::State& state) {
  RunTickBench(state, /*warm=*/false);
}
BENCHMARK(BM_TicksFresh)->Unit(benchmark::kMillisecond);

// --- open-loop driver ($CONN_TICK_ARRIVAL_QPS) ----------------------------
//
// The closed-loop benchmarks above measure capacity: the next tick starts
// the moment the previous one finishes.  The open-loop driver instead
// fixes an arrival timetable (YCSB-style): each issuer thread owns an
// independent service over a round-robin slice of the fleet and issues
// tick j at start + j*interval, never delaying the schedule because a
// tick ran long.  Sojourn latency — completion minus *scheduled* arrival
// — therefore includes queueing delay, and its p99 diverges once the
// offered rate (client updates/sec across all threads) crosses the
// service capacity the closed-loop qps counter reports.

/// Offered rate in client updates/sec across all issuer threads; 0 (unset)
/// disables the open-loop benchmarks entirely.
double TickArrivalQps() {
  static const double qps = [] {
    const char* env = std::getenv("CONN_TICK_ARRIVAL_QPS");
    return env != nullptr ? std::atof(env) : 0.0;
  }();
  return qps;
}

constexpr size_t kOpenLoopThreads = 4;
constexpr uint64_t kOpenLoopTicks = 32;

void RunOpenLoopBench(benchmark::State& state, bool warm) {
  const Dataset& ds = GetDataset(datagen::PointDistribution::kUniform,
                                 ScaledCa(), ScaledLa());
  ApplyBenchStageHints(ds);
  const std::vector<exec::RouteSpec> routes = TickFleet(FleetClients(), 4242);
  const exec::SubscriptionOptions opts = TickOptions(warm);

  std::vector<double> sojourn;
  QueryStats totals;
  size_t updates = 0;
  double span = 0.0;
  for (auto _ : state) {
    sojourn.clear();
    totals = QueryStats{};
    updates = 0;
    span = 0.0;
    std::vector<std::vector<double>> thread_sojourn(kOpenLoopThreads);
    std::vector<QueryStats> thread_totals(kOpenLoopThreads);
    std::vector<size_t> thread_updates(kOpenLoopThreads, 0);
    std::vector<double> thread_span(kOpenLoopThreads, 0.0);
    std::atomic<size_t> ready{0};

    auto issuer = [&](size_t t) {
      // Each issuer owns its slice end to end: SubscriptionService is
      // single-driver by contract, so saturation comes from several
      // services contending for CPU, not from sharing one.
      exec::SubscriptionService service(*ds.tp, *ds.to, opts);
      size_t clients = 0;
      for (size_t i = t; i < routes.size(); i += kOpenLoopThreads) {
        service.Subscribe(routes[i], 5).value();
        ++clients;
      }
      // This thread carries 1/kOpenLoopThreads of the offered rate; one
      // tick delivers `clients` updates.
      const double interval = static_cast<double>(clients) *
                              static_cast<double>(kOpenLoopThreads) /
                              TickArrivalQps();
      ready.fetch_add(1);
      while (ready.load() < kOpenLoopThreads) {
      }
      const auto start = std::chrono::steady_clock::now();
      for (uint64_t tick = 0; tick < kOpenLoopTicks; ++tick) {
        const auto scheduled =
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(
                            interval * static_cast<double>(tick)));
        // A thread that has fallen behind schedule issues immediately —
        // the timetable never stretches (open loop).
        std::this_thread::sleep_until(scheduled);
        const exec::TickResult result = service.Tick();
        benchmark::DoNotOptimize(result.updates.data());
        const auto done = std::chrono::steady_clock::now();
        thread_sojourn[t].push_back(
            std::chrono::duration<double>(done - scheduled).count());
        thread_totals[t] += result.stats.per_query_totals;
        thread_updates[t] += result.updates.size();
        thread_span[t] = std::chrono::duration<double>(done - start).count();
      }
    };
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kOpenLoopThreads; ++t) {
      threads.emplace_back(issuer, t);
    }
    for (std::thread& th : threads) th.join();
    for (size_t t = 0; t < kOpenLoopThreads; ++t) {
      sojourn.insert(sojourn.end(), thread_sojourn[t].begin(),
                     thread_sojourn[t].end());
      totals += thread_totals[t];
      updates += thread_updates[t];
      span = std::max(span, thread_span[t]);
    }
  }
  state.counters["offered_qps"] = TickArrivalQps();
  state.counters["qps"] =
      benchmark::Counter(static_cast<double>(updates) / span);
  state.counters["sojourn_p50_ms"] = Percentile(&sojourn, 0.50) * 1e3;
  state.counters["sojourn_p99_ms"] = Percentile(&sojourn, 0.99) * 1e3;
  state.counters["repairs"] = static_cast<double>(totals.repairs_applied);
  state.counters["carried"] = static_cast<double>(totals.tuples_carried);
  state.counters["rescored"] = static_cast<double>(totals.tuples_rescored);
  state.counters["frontier_shares"] =
      static_cast<double>(totals.frontier_shares);
  state.SetLabel(StageHintsLabel());
}

void BM_TicksOpenLoopWarm(benchmark::State& state) {
  RunOpenLoopBench(state, /*warm=*/true);
}

void BM_TicksOpenLoopFresh(benchmark::State& state) {
  RunOpenLoopBench(state, /*warm=*/false);
}

// Registered only when the env var is set: the committed baseline JSON is
// captured without it, so the closed-loop suite stays the comparison set.
const bool kOpenLoopRegistered = [] {
  if (TickArrivalQps() <= 0.0) return false;
  benchmark::RegisterBenchmark("BM_TicksOpenLoopWarm", BM_TicksOpenLoopWarm)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime()
      ->Iterations(1);
  benchmark::RegisterBenchmark("BM_TicksOpenLoopFresh", BM_TicksOpenLoopFresh)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime()
      ->Iterations(1);
  return true;
}();

}  // namespace
}  // namespace bench
}  // namespace conn

BENCHMARK_MAIN();
