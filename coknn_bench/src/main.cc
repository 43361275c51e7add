// COkNN benchmark program.
//
//   coknn_bench --workload <route_cl|fleet_ticks|graze> --seed <n>
//               --seconds <s> --trace <0|1> [--trace-file <path>]
//
// One run: a checker self-test, the workload's set-up (timed in blocks
// spread over the run, fastest reported), an untimed reference round whose
// answers are checked against the brute force, then whole timed rounds of
// the same operations until --seconds of operation time have passed (and
// at least kMinRounds);
// every timed round must reproduce the reference answers bit for bit.
// Latencies are each operation's fastest time over the rounds.  With
// --trace 1 the timed rounds alternate between untraced (the overhead
// reference) and traced ones, which record spans and give the per-layer
// metrics, printed instead of the end-to-end ones.  The last line of stdout
// is the JSON result.

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checker.h"
#include "trace.h"
#include "workloads.h"

namespace coknn_bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kSetupBlockSeconds = 0.2;  // per block of set-ups
constexpr size_t kMinRounds = 3;  // timed rounds per run, at least
constexpr size_t kCheckThreads = 4;

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// This process's resident-set high-water mark (VmHWM).  getrusage's
/// ru_maxrss would do, except that Linux carries it across execve, so it
/// also reports the peak of whatever process (python, a shell) ran us.
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// Sums of OpSample fields over a set of operations.
struct Totals {
  size_t ops = 0;
  double op_seconds = 0.0;
  double wall_seconds = 0.0;
  OpSample sum;

  void Add(const OpSample& s) {
    ++ops;
    op_seconds += s.seconds;
    wall_seconds += s.seconds + s.churn_seconds;
    OpSample& t = sum;
    t.answers += s.answers;
    t.errors += s.errors;
    t.faults += s.faults;
    t.hits += s.hits;
    t.device_reads += s.device_reads;
    t.prefetch_issued += s.prefetch_issued;
    t.prefetch_hits += s.prefetch_hits;
    t.work += s.work;
    t.exhaustive += s.exhaustive;
    t.memo_hits += s.memo_hits;
    t.engine_seconds += s.engine_seconds;
    t.shards += s.shards;
    t.reuse_hits += s.reuse_hits;
    t.store_hits += s.store_hits;
    t.adopted += s.adopted;
    t.workers = std::max(t.workers, s.workers);
    t.streamed += s.streamed;
  }
};

class JsonMetrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    body_ << (first_ ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
          << ", \"unit\": \"" << unit << "\"}";
    first_ = false;
    std::printf("  %-40s %14.6g %s\n", name.c_str(), value, unit.c_str());
  }
  std::string str() const {
    std::string out = "{";
    out += body_.str();
    out += "}";
    return out;
  }

 private:
  std::ostringstream body_;
  bool first_ = true;
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_file;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return false;
    kv[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1) return false;
  try {
    a->workload = kv.at("workload");
    a->seed = std::stoull(kv.at("seed"));
    a->seconds = std::stod(kv.at("seconds"));
    a->trace = std::stoi(kv.at("trace"));
  } catch (const std::exception&) {
    return false;
  }
  if (kv.count("trace-file") != 0) a->trace_file = kv["trace-file"];
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), a->workload) == names.end()) {
    return false;
  }
  return a->seconds > 0.0 && (a->trace == 0 || a->trace == 1);
}

/// Sets workload \p args.workload up (MakeWorkload and a first BeginRound)
/// and tears it down again until kSetupBlockSeconds have passed; returns
/// the mean time of one set-up.  A set-up well under a millisecond
/// (route_cl, graze) is thus averaged over hundreds of repeats.
double SetupBlock(const Args& args) {
  double block_s = 0.0;
  size_t n = 0;
  do {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Workload> wl =
        MakeWorkload(args.workload, args.seed, args.trace == 1);
    wl->BeginRound();
    block_s += std::chrono::duration<double>(Clock::now() - t0).count();
    ++n;
  } while (block_s < kSetupBlockSeconds);
  return block_s / static_cast<double>(n);
}

/// Seed of the positions the checker samples on an answer: a hash of its
/// query segment, so an input is checked alike whatever the run's seed and
/// operation order.
uint64_t SegmentKey(const Segment& q) {
  uint64_t h = 0x243F6A8885A308D3ULL;
  for (double x : {q.a.x, q.a.y, q.b.x, q.b.y}) {
    h = (h ^ std::bit_cast<uint64_t>(x)) * 0x100000001B3ULL;
    h ^= h >> 29;
  }
  return h;
}

/// One failed answer of the reference round.
struct Failure {
  size_t op = 0;
  size_t answer = 0;
  std::string why;
};

/// Checks every operation's answers on kCheckThreads threads (one brute
/// force each: its dedupe marks are per thread).
std::vector<Failure> CheckOps(
    const Workload& wl,
    const std::vector<std::vector<conn::core::CoknnResult>>& answers,
    size_t* positions) {
  struct Job {
    size_t op, answer;
  };
  std::vector<Job> jobs;
  for (size_t op = 0; op < answers.size(); ++op) {
    for (size_t j = 0; j < answers[op].size(); ++j) jobs.push_back({op, j});
  }
  std::vector<Failure> failures;
  std::atomic<size_t> next{0};
  std::atomic<size_t> checked{0};
  std::mutex mu;
  auto worker = [&]() {
    const BruteForce oracle(wl.scene());
    for (size_t i = next++; i < jobs.size(); i = next++) {
      const Job& job = jobs[i];
      const conn::core::CoknnResult& answer = answers[job.op][job.answer];
      const Verdict v = CheckAnswer(answer, oracle, wl.SampledPositions(),
                                    SegmentKey(answer.query));
      checked += v.positions;
      if (!v.ok) {
        std::lock_guard<std::mutex> lock(mu);
        failures.push_back({job.op, job.answer, v.why});
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kCheckThreads; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  std::sort(failures.begin(), failures.end(),
            [](const Failure& a, const Failure& b) {
              return a.op != b.op ? a.op < b.op : a.answer < b.answer;
            });
  *positions += checked;
  return failures;
}

/// CheckOps in a child process, so that the brute force's memory never
/// counts in this process's peak RSS.  The child reports one line per
/// failure and a final count of checked positions through a pipe.  False
/// when the child could not run or died.
bool CheckInChild(
    const Workload& wl,
    const std::vector<std::vector<conn::core::CoknnResult>>& answers,
    size_t* positions, std::vector<Failure>* failures) {
  std::fflush(stdout);
  int fds[2];
  if (pipe(fds) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    size_t checked = 0;
    std::string out;
    for (Failure& f : CheckOps(wl, answers, &checked)) {
      std::replace(f.why.begin(), f.why.end(), '\n', ' ');
      out += std::to_string(f.op) + " " + std::to_string(f.answer) + " " +
             f.why + "\n";
    }
    out += "positions " + std::to_string(checked) + "\n";
    size_t done = 0;
    while (done < out.size()) {
      const ssize_t n = write(fds[1], out.data() + done, out.size() - done);
      if (n <= 0) _exit(1);
      done += static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string in;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) != 0;) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    in.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return false;
  std::istringstream lines(in);
  std::string line;
  bool complete = false;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string first;
    fields >> first;
    if (first == "positions") {
      size_t n = 0;
      fields >> n;
      *positions += n;
      complete = true;
      continue;
    }
    Failure f;
    f.op = std::stoull(first);
    fields >> f.answer;
    std::getline(fields >> std::ws, f.why);
    failures->push_back(std::move(f));
  }
  return complete;
}

int Run(const Args& args) {
  const bool trace = args.trace == 1;
  std::printf("coknn_bench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);

  const std::string selftest = SelfTest();
  std::printf("checker self-test: %s\n",
              selftest.empty() ? "ok (good answer accepted; swapped "
                                 "neighbour, 1 % distance, dropped tuple "
                                 "rejected)"
                               : selftest.c_str());

  // Set-up: one block of timed set-ups here and one before every timed
  // round, so that like the latencies it is sampled across the whole run;
  // setup_s is the fastest block.  The workload the run uses is built once
  // more, untimed.
  std::vector<double> setup_s = {SetupBlock(args)};
  const std::unique_ptr<Workload> wl =
      MakeWorkload(args.workload, args.seed, trace);
  std::printf("inputs: %s\n", wl->Describe().c_str());

  // Reference round, untimed (it is also the warm-up).  Its answers are
  // checked; an operation whose answer fails counts as failed in every
  // round, since every round repeats the same operations.
  const size_t ops = wl->OpsPerRound();
  std::vector<std::vector<conn::core::CoknnResult>> reference(ops);
  std::vector<std::string> why(ops);
  size_t positions = 0;
  const Clock::time_point c0 = Clock::now();
  wl->BeginRound();
  for (size_t i = 0; i < ops; ++i) {
    const OpSample s = wl->RunOp(i, nullptr, &reference[i]);
    if (s.errors > 0) why[i] = "engine delivered no answer for a client";
  }
  std::vector<Failure> failures;
  const bool checker_ok = CheckInChild(*wl, reference, &positions, &failures);
  if (!checker_ok) std::printf("checker process failed\n");
  for (const Failure& f : failures) {
    if (why[f.op].empty()) why[f.op] = f.why;
  }
  size_t failed_per_round = 0;
  for (size_t i = 0; i < ops; ++i) {
    if (why[i].empty()) continue;
    ++failed_per_round;
    std::printf("failed op %zu: %s\n", i, why[i].c_str());
  }
  std::printf("checked %zu positions in %.1f s; %zu of %zu ops fail\n",
              positions,
              std::chrono::duration<double>(Clock::now() - c0).count(),
              failed_per_round, ops);

  // Timed rounds.  Every round must reproduce the reference answers.
  Tracer tracer;
  // Each operation's fastest time over the run's rounds: rounds repeat
  // identical work, and interference from other processes only adds time.
  std::vector<double> best_s(ops, std::numeric_limits<double>::infinity());
  Totals all;     // every timed round
  Totals traced;  // rounds run with the tracer (trace mode)
  // Wall time of each round's RunOp calls, span bookkeeping and (traced)
  // replay included: the base of the tracing overhead.
  std::vector<double> round_seconds;
  double loop_seconds = 0.0;
  double traced_seconds = 0.0;
  size_t rounds = 0;
  size_t mismatches = 0;
  uint64_t op_id = 0;
  for (;;) {
    // After BeginRound, so that the block reuses the memory the last
    // round's service freed instead of raising peak RSS.
    wl->BeginRound();
    setup_s.push_back(SetupBlock(args));
    Tracer* t = (trace && rounds % 2 == 1) ? &tracer : nullptr;
    double round_s = 0.0;
    for (size_t i = 0; i < ops; ++i) {
      std::vector<conn::core::CoknnResult> answers;
      OpSample s;
      const Clock::time_point t0 = Clock::now();
      {
        tracer.BeginOp(++op_id);
        Tracer::Scope root(t, "op");
        s = wl->RunOp(i, t, &answers);
      }
      round_s += std::chrono::duration<double>(Clock::now() - t0).count();
      best_s[i] = std::min(best_s[i], s.seconds);
      all.Add(s);
      if (t != nullptr) traced.Add(s);
      if (answers.size() != reference[i].size()) {
        ++mismatches;
        continue;
      }
      for (size_t j = 0; j < answers.size(); ++j) {
        if (!SameAnswer(answers[j], reference[i][j])) ++mismatches;
      }
    }
    round_seconds.push_back(round_s);
    loop_seconds += round_s;
    if (t != nullptr) traced_seconds += round_s;
    ++rounds;
    if (loop_seconds >= args.seconds && rounds >= kMinRounds) break;
  }
  const double peak_rss = PeakRssMiB();
  const bool correct = selftest.empty() && checker_ok && mismatches == 0;
  std::printf("rounds=%zu ops/round=%zu answers=%zu failed/round=%zu "
              "answers differing from the reference=%zu\nround seconds:",
              rounds, ops, all.sum.answers, failed_per_round, mismatches);
  for (double s : round_seconds) std::printf(" %.3f", s);
  std::printf("\n");
  if (ops < 100) {
    std::printf("warning: %zu operations per round, fewer than the 100 "
                "op_ms_p90 needs\n", ops);
  }

  JsonMetrics m;
  if (!trace) {
    const double answers = static_cast<double>(all.sum.answers);
    std::vector<double> best_ms;
    for (double b : best_s) best_ms.push_back(b * 1e3);
    m.Add("setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s");
    m.Add("op_ms_p50", Quantile(best_ms, 0.50), "ms");
    m.Add("op_ms_p90", Quantile(best_ms, 0.90), "ms");
    m.Add("answers_per_s", answers / all.wall_seconds, "1/s");
    m.Add("faults_per_answer", static_cast<double>(all.sum.faults) / answers,
          "pages");
    m.Add("peak_rss_mb", peak_rss, "MiB");
  } else {
    const OpSample& s = traced.sum;
    const conn::QueryStats& w = s.work;
    const double a = static_cast<double>(std::max<size_t>(s.answers, 1));
    const double traced_rounds = static_cast<double>(rounds / 2);
    const double ticks = static_cast<double>(traced.ops);
    const bool tick_loop = args.workload == "fleet_ticks";
    auto per_answer = [a](double v) { return v / a; };
    auto per_tick = [&](double v) { return tick_loop ? v / ticks : 0.0; };
    auto ms_per_answer = [&](const char* span) {
      return tracer.TotalSeconds(span) * 1e3 / a;
    };
    const double accesses = static_cast<double>(s.hits + s.faults);
    std::printf("bases: %llu hits / %.0f page accesses; %.0f answers over "
                "%.0f traced rounds; engine %.3f s over %zu workers x %.3f s "
                "of ticks\n",
                static_cast<unsigned long long>(s.hits), accesses,
                static_cast<double>(s.answers), traced_rounds,
                s.engine_seconds, s.workers, traced.op_seconds);
    // Storage is counted from pager deltas around each call.  The answers'
    // own page-read counters are deltas of the same shared pagers, so under
    // concurrent shards each also holds its siblings' faults.
    std::printf("faults: %llu from pager deltas, %llu summed over the "
                "answers' own QueryStats\n",
                static_cast<unsigned long long>(s.faults),
                static_cast<unsigned long long>(w.TotalPageReads()));
    m.Add("storage.hits_per_answer", per_answer(s.hits), "count");
    m.Add("storage.hit_ratio", accesses > 0 ? s.hits / accesses : 0.0,
          "ratio");
    m.Add("storage.device_reads_per_answer", per_answer(s.device_reads),
          "count");
    m.Add("storage.prefetch_issued", per_answer(s.prefetch_issued), "count");
    m.Add("storage.prefetch_hits", per_answer(s.prefetch_hits), "count");
    m.Add("rtree.node_accesses_per_answer", per_answer(accesses), "count");
    m.Add("rtree.objects_streamed_per_answer", per_answer(s.streamed),
          "count");
    m.Add("rtree.stream_ms", ms_per_answer("rtree.stream"), "ms");
    m.Add("vis.obstacles_inserted_per_answer",
          per_answer(w.obstacles_evaluated), "count");
    m.Add("vis.graph_vertices", per_answer(w.vis_graph_vertices), "count");
    m.Add("vis.visibility_tests_per_answer", per_answer(w.visibility_tests),
          "count");
    m.Add("vis.seed_tests_per_answer", per_answer(w.seed_tests), "count");
    m.Add("vis.insert_ms", ms_per_answer("vis.AddObstacle"), "ms");
    m.Add("vis.settled_per_answer", per_answer(w.dijkstra_settled), "count");
    m.Add("vis.scans_per_answer", per_answer(w.dijkstra_runs), "count");
    m.Add("vis.warm_restarts_per_answer", per_answer(w.scan_warm_restarts),
          "count");
    m.Add("vis.scan_ms", ms_per_answer("vis.DijkstraScan"), "ms");
    m.Add("core.points_evaluated_per_answer", per_answer(w.points_evaluated),
          "count");
    m.Add("core.split_evaluations_per_answer",
          per_answer(w.split_evaluations), "count");
    m.Add("core.lemma7_terminations_per_answer",
          per_answer(w.lemma7_terminations), "count");
    m.Add("core.query_ms",
          tick_loop ? s.engine_seconds * 1e3 / a
                    : ms_per_answer("core.CoknnQuery"),
          "ms");
    m.Add("core.exhaustive_answers", s.exhaustive / traced_rounds, "count");
    m.Add("exec.shards_per_tick", per_tick(s.shards), "count");
    m.Add("exec.obstacle_reuse_hits_per_tick", per_tick(s.reuse_hits),
          "count");
    m.Add("exec.store_hits_per_tick", per_tick(s.store_hits), "count");
    m.Add("exec.carried_per_tick", per_tick(w.tuples_carried), "count");
    m.Add("exec.rescored_per_tick", per_tick(w.tuples_rescored), "count");
    m.Add("exec.frontier_shares_per_tick", per_tick(w.frontier_shares),
          "count");
    m.Add("exec.memo_hits_per_tick", per_tick(s.memo_hits), "count");
    m.Add("exec.workspaces_adopted", s.adopted / traced_rounds, "count");
    m.Add("exec.worker_busy_ratio",
          tick_loop ? s.engine_seconds /
                          (static_cast<double>(s.workers) * traced.op_seconds)
                    : 0.0,
          "ratio");
    const double traced_round_s = traced_seconds / traced_rounds;
    const double untraced_round_s = (loop_seconds - traced_seconds) /
                                    static_cast<double>(rounds - rounds / 2);
    m.Add("trace.overhead_pct",
          (traced_round_s / untraced_round_s - 1.0) * 100.0, "%");

    const std::string path =
        !args.trace_file.empty()
            ? args.trace_file
            : ".bench_out/" + args.workload + "-seed" +
                  std::to_string(args.seed) + ".trace.json";
    std::error_code ec;
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent, ec);
    if (!tracer.Write(path)) {
      std::fprintf(stderr, "cannot write trace file %s\n", path.c_str());
      return 1;
    }
    std::printf("trace: %zu spans in %s; mean untraced round %.3f s, traced "
                "round %.3f s\n",
                tracer.size(), path.c_str(), untraced_round_s,
                traced_round_s);
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", rounds * ops,
              rounds * failed_per_round, m.str().c_str());
  return 0;
}

}  // namespace
}  // namespace coknn_bench

int main(int argc, char** argv) {
  coknn_bench::Args args;
  if (!coknn_bench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: coknn_bench --workload <route_cl|fleet_ticks|graze> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-file <path>]\n");
    return 2;
  }
  return coknn_bench::Run(args);
}
