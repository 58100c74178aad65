// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//
// Runs one workload (workloads.h) in this process. The timed region runs
// the workload untraced on each seed of its panel (derived from --seed),
// cycling through the panel again until S seconds have passed and at
// least 100 aggregations were timed; it gives the end-to-end metrics. One
// traced run of the panel's first seed follows outside the timed region
// and gives the per-layer metrics; socket-fedtrip also runs that seed
// in-process as its bit-identity reference. --trace selects which set is
// printed; both runs happen either way, so every invocation checks
// traced == untraced.
//
// Output: a human-readable report, then as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. attempted counts
// dispatches trained plus correctness checks; failed counts failed checks
// (a failed dispatch aborts the run with an error instead). Exit code 0
// only when every check passed; 3 when the workload would keep more
// threads busy than this process may run on.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/tracer.h"
#include "spans.h"
#include "workloads.h"

namespace {

using perfbench::RunOptions;
using perfbench::RunOutcome;
using perfbench::Workload;

constexpr std::size_t kMinAggregations = 100;
// setup_s is the median of at least this many set-ups taking at least
// this long in total (the fleet's set-up takes milliseconds).
constexpr std::size_t kSetupSamples = 11;
constexpr double kSetupSeconds = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_dir;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::atoi(v);
    } else if (k == "--trace-dir") {
      a.trace_dir = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.seconds <= 0.0) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

/// Linear-interpolated quantile of `v` (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Checks {
  std::size_t run = 0;
  std::size_t failed = 0;
  void expect(bool ok, const std::string& what) {
    ++run;
    if (!ok) ++failed;
    std::printf("check %-52s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  }
};

bool same_run(const RunOutcome& a, const RunOutcome& b) {
  return a.result.final_params == b.result.final_params &&
         a.result.comm_stats.bytes_down == b.result.comm_stats.bytes_down &&
         a.result.comm_stats.bytes_up == b.result.comm_stats.bytes_up;
}

double timer_s(const fedtrip::obs::TraceData& d, const char* key) {
  const auto it = d.timers_ns.find(key);
  return it == d.timers_ns.end() ? 0.0 : static_cast<double>(it->second) / 1e9;
}

double histogram_sum(const fedtrip::obs::TraceData& d, const char* key) {
  const auto it = d.histograms.find(key);
  return it == d.histograms.end() ? 0.0 : it->second.sum;
}

/// End-to-end metrics over the untraced runs. Timings resist a slow spell
/// of the machine: run_s and updates_per_s are medians over runs, and the
/// round_s percentiles are taken in blocks of whole runs holding at least
/// kMinAggregations aggregations and reported as the median over blocks
/// (runs after the last full block are left out of them). Accuracy takes
/// the first pass over the seed panel. Time and rounds to the target
/// accuracy are reported, not returned: they vary from seed to seed by
/// more than any bound a regression gate could hold.
std::vector<Metric> end_to_end(const Workload& w,
                               const std::vector<RunOutcome>& reps,
                               const std::vector<double>& setup_s) {
  std::vector<double> run_s, rate, p50, p90, block, ttt, rtt, acc;
  std::size_t samples = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const RunOutcome& r = reps[i];
    run_s.push_back(r.run_s);
    rate.push_back(static_cast<double>(r.updates) / r.run_s);
    block.insert(block.end(), r.round_s.begin(), r.round_s.end());
    if (block.size() >= kMinAggregations) {
      p50.push_back(quantile(block, 0.5));
      p90.push_back(quantile(block, 0.9));
      samples += block.size();
      block.clear();
    }
    if (i >= w.panel) continue;
    acc.push_back(r.result.history.back().test_accuracy);
    if (r.rounds_to_target) {
      ttt.push_back(*r.time_to_target_s);
      rtt.push_back(static_cast<double>(*r.rounds_to_target));
    }
  }
  std::printf("round_s: %zu aggregations in %zu blocks over %zu runs\n",
              samples, p50.size(), reps.size());
  std::printf("target %.2f: reached by %zu of %zu seeds; median over those "
              "time_to_target_s %.4f s, rounds_to_target %.1f\n",
              w.target, rtt.size(), w.panel, median(ttt), median(rtt));
  return {
      {"setup_s", median(setup_s), "s"},
      {"run_s", median(run_s), "s"},
      {"round_s.p50", median(p50), "s"},
      {"round_s.p90", median(p90), "s"},
      {"updates_per_s", median(rate), "1/s"},
      {"final_accuracy", median(acc), "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

std::vector<Metric> per_layer(const Workload& w, const RunOutcome& traced,
                              const perfbench::SpanRecorder& rec,
                              const fedtrip::obs::TraceData& obs,
                              double untraced_run_s, double in_process_run_s,
                              std::size_t pool_threads) {
  using perfbench::layer_time;
  const auto spans = rec.spans();
  const auto train_client = perfbench::durations(spans, "algo.train_client");
  const double train_client_s = sum(train_client);
  const auto host_train = layer_time(spans, "host.train");
  const auto host_agg = layer_time(spans, "host.aggregate");
  const auto run = layer_time(spans, "sched.run");
  const double algo_agg_s = layer_time(spans, "algo.aggregate").busy_s;
  const double gflop = traced.flops / 1e9;

  const auto& cs = traced.result.comm_stats;
  const double dim = static_cast<double>(traced.result.final_params.size());
  const double wire_bytes = static_cast<double>(cs.bytes_down + cs.bytes_up);
  const double raw_bytes =
      4.0 * dim * static_cast<double>(cs.messages_down + cs.messages_up);

  const bool socket = w.sessions > 0;
  double worker_train_s = 0.0;
  for (const auto& ws : traced.worker_stats) {
    worker_train_s =
        std::max(worker_train_s, histogram_sum(ws, "wall.execute_batch_s"));
  }
  const auto& tr = traced.traffic;
  const double encoded = static_cast<double>(tr.down.encoded_vecs +
                                             tr.up.encoded_vecs);
  const double raw_vecs =
      static_cast<double>(tr.down.raw_vecs + tr.up.raw_vecs);

  return {
      {"nn.gflop", gflop, "GFLOP"},
      {"nn.gflops_per_s", train_client_s > 0 ? gflop / train_client_s : 0.0,
       "GFLOP/s"},
      {"algorithms.train_client_s", train_client_s, "s"},
      {"algorithms.train_client_s.p50", quantile(train_client, 0.5), "s"},
      {"algorithms.train_client_s.p90", quantile(train_client, 0.9), "s"},
      {"algorithms.train_client_s.calls",
       static_cast<double>(train_client.size()), "count"},
      {"algorithms.aggregate_s", algo_agg_s, "s"},
      {"algorithms.pre_round_s", layer_time(spans, "algo.pre_round").busy_s,
       "s"},
      {"fl.select_s", layer_time(spans, "host.select").busy_s, "s"},
      {"fl.train_s", host_train.busy_s, "s"},
      {"fl.train_self_s", host_train.self_s, "s"},
      {"fl.train_parallel_eff",
       host_train.busy_s > 0
           ? train_client_s /
                 (host_train.busy_s * static_cast<double>(pool_threads))
           : 0.0,
       "ratio"},
      {"fl.aggregate_s", host_agg.busy_s, "s"},
      {"fl.eval_s", host_agg.self_s, "s"},
      {"comm.broadcast_s", layer_time(spans, "host.broadcast").busy_s, "s"},
      {"comm.uplink_s", layer_time(spans, "host.uplink").busy_s, "s"},
      {"comm.down_mb", cs.mb_down(), "MB"},
      {"comm.up_mb", cs.mb_up(), "MB"},
      {"comm.compress_ratio", wire_bytes > 0 ? raw_bytes / wire_bytes : 0.0,
       "ratio"},
      {"sched.run_s", run.busy_s, "s"},
      {"sched.self_s", run.self_s, "s"},
      {"net.rpc_s", socket ? host_train.busy_s : 0.0, "s"},
      {"net.worker_train_s", worker_train_s, "s"},
      {"net.overhead_s", socket ? untraced_run_s - in_process_run_s : 0.0,
       "s"},
      {"net.frames", 2.0 * static_cast<double>(tr.dispatch_frames), "count"},
      {"net.down_wire_mb", static_cast<double>(tr.down.wire_bytes) / 1e6,
       "MB"},
      {"net.up_wire_mb", static_cast<double>(tr.up.wire_bytes) / 1e6, "MB"},
      {"wire.serialize_s", timer_s(obs, "wire.serialize"), "s"},
      {"wire.deserialize_s", timer_s(obs, "wire.deserialize"), "s"},
      {"wire.codec_hit_ratio",
       encoded + raw_vecs > 0 ? encoded / (encoded + raw_vecs) : 0.0,
       "ratio"},
      {"obs.trace_overhead_s", traced.run_s - untraced_run_s, "s"},
  };
}

int run(const Args& args) {
  std::vector<Workload> panel;
  for (std::size_t i = 0; i == 0 || i < panel[0].panel; ++i) {
    panel.push_back(perfbench::make_workload(
        args.workload, perfbench::panel_seed(args.seed, i)));
  }
  const Workload& w = panel[0];
  const bool socket = w.sessions > 0;
  const std::size_t busy = perfbench::busy_threads(w);
  const std::size_t pool_threads = perfbench::pool_threads(w);
  const std::size_t cpus = nproc();
  if (socket) {
    std::printf("workload %s seed %llu: %zu busy threads (%zu sessions x %zu "
                "+ coordinator), nproc %zu\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                busy, w.sessions, pool_threads, cpus);
  } else {
    std::printf("workload %s seed %llu: %zu busy threads (pool), nproc %zu\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                busy, cpus);
  }
  if (busy > cpus) {
    std::fprintf(stderr,
                 "perfbench: %s would keep %zu threads busy on %zu CPUs; "
                 "refusing to run\n",
                 w.name.c_str(), busy, cpus);
    return 3;
  }

  Checks checks;
  std::size_t dispatches = 0;

  // Timed region: untraced runs of the seed panel, cycling through it
  // again until the time is up and enough aggregations were timed for
  // round_s.p90. A repeated seed must reproduce its first run bit for bit.
  std::vector<RunOutcome> reps;
  std::vector<double> setup_s;
  std::size_t aggregations = 0;
  bool repeatable = true;
  const double t_begin = perfbench::steady_seconds();
  while (reps.size() < panel.size() || aggregations < kMinAggregations ||
         perfbench::steady_seconds() - t_begin < args.seconds) {
    const std::size_t i = reps.size() % panel.size();
    RunOptions opt;
    opt.socket = socket;
    reps.push_back(perfbench::run_workload(panel[i], opt));
    const RunOutcome& r = reps.back();
    aggregations += r.round_s.size();
    dispatches += r.dispatches;
    setup_s.push_back(r.setup_s);
    if (reps.size() > panel.size()) {
      repeatable = repeatable && same_run(r, reps[i]);
    }
    std::printf("run %zu (seed %llu): setup %.4f s, run %.4f s, %zu "
                "aggregations, final accuracy %.4f\n",
                reps.size(),
                static_cast<unsigned long long>(panel[i].config.seed),
                r.setup_s, r.run_s, r.round_s.size(),
                r.result.history.back().test_accuracy);
  }
  while (setup_s.size() < kSetupSamples || sum(setup_s) < kSetupSeconds) {
    RunOptions opt;
    opt.socket = socket;
    opt.setup_only = true;
    setup_s.push_back(
        perfbench::run_workload(panel[setup_s.size() % panel.size()], opt)
            .setup_s);
  }
  // The traced and in-process runs below train the panel's first seed;
  // their overheads are taken against that seed's untraced runs.
  std::vector<double> first_seed_run_s;
  for (std::size_t i = 0; i < reps.size(); i += panel.size()) {
    first_seed_run_s.push_back(reps[i].run_s);
  }
  const double untraced_run_s = median(first_seed_run_s);

  // Traced run of the panel's first seed, outside the timed region:
  // per-layer spans plus the library's own counters and timers (its spans
  // stay off: the recorder has them).
  perfbench::SpanRecorder rec;
  fedtrip::obs::ObsConfig obs_cfg;
  obs_cfg.enabled = true;
  obs_cfg.spans = false;
  fedtrip::obs::Tracer tracer(obs_cfg);
  RunOptions traced_opt;
  traced_opt.socket = socket;
  traced_opt.rec = &rec;
  traced_opt.tracer = &tracer;
  traced_opt.run_id = 1;
  const RunOutcome traced = perfbench::run_workload(panel[0], traced_opt);
  dispatches += traced.dispatches;
  std::printf("traced run: run %.4f s, %zu spans\n", traced.run_s,
              rec.spans().size());

  if (reps.size() > panel.size()) {
    checks.expect(repeatable, "repeated seeds are bit-identical");
  }
  checks.expect(same_run(traced, reps[0]),
                "traced run is bit-identical to untraced");
  std::size_t reached = 0;
  for (std::size_t i = 0; i < panel.size(); ++i) {
    if (reps[i].rounds_to_target) ++reached;
  }
  checks.expect(reached > 0, "some seed reaches accuracy " +
                                 std::to_string(w.target).substr(0, 4));

  double in_process_run_s = 0.0;
  if (socket) {
    RunOptions ref_opt;  // same config, in-process engine
    const RunOutcome ref = perfbench::run_workload(panel[0], ref_opt);
    dispatches += ref.dispatches;
    in_process_run_s = ref.run_s;
    checks.expect(same_run(ref, reps[0]),
                  "socket run is bit-identical to in-process");
  }

  if (!args.trace_dir.empty()) {
    const std::string path = args.trace_dir + "/" + w.name + "-seed" +
                             std::to_string(args.seed) + ".json";
    if (rec.write_chrome_trace(path)) {
      std::printf("trace: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }

  const std::vector<Metric> metrics =
      args.trace == 0
          ? end_to_end(w, reps, setup_s)
          : per_layer(w, traced, rec, tracer.snapshot(), untraced_run_s,
                      in_process_run_s, pool_threads);
  const std::size_t attempted = dispatches + checks.run;
  std::printf("failed_ratio %.6f (%zu failed of %zu attempted)\n",
              static_cast<double>(checks.failed) /
                  static_cast<double>(attempted),
              checks.failed, attempted);
  for (const auto& m : metrics) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              checks.failed == 0 ? "true" : "false", attempted,
              checks.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
