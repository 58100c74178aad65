// The benchmark's workloads and the engine that runs one of them.
//
// A workload is an ExperimentConfig plus FedTrip's hyperparameters, a
// target accuracy and an engine: in-process, or NetHost over loopback TCP
// to in-process WorkerServer sessions. The seed reaches the program only
// as ExperimentConfig::seed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "algorithms/params.h"
#include "fl/config.h"
#include "fl/simulation.h"
#include "net/net_host.h"
#include "obs/tracer.h"
#include "spans.h"

namespace perfbench {

struct Workload {
  std::string name;
  fedtrip::fl::ExperimentConfig config;
  fedtrip::algorithms::AlgoParams algo;
  /// Test accuracy whose first crossing stops the time_to_target clock.
  double target = 0.0;
  /// WorkerServer sessions the run fans out to (0 = in-process engine).
  std::size_t sessions = 0;
  /// Seeds one benchmark run trains (panel_seed(seed, 0..panel-1)): the
  /// accuracy metrics take their median, so a seed that trains slowly
  /// moves them less.
  std::size_t panel = 1;
};

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// The i-th seed of the panel a benchmark run with `seed` trains.
inline std::uint64_t panel_seed(std::uint64_t seed, std::size_t i) {
  return seed * 1000 + i;
}

/// Training threads of one engine: ExperimentConfig::workers, or the
/// default pool's size.
std::size_t pool_threads(const Workload& w);

/// Threads the workload keeps busy at once: the in-process pool, or every
/// session's pool plus the coordinator thread, which (de)serializes while
/// the sessions train.
std::size_t busy_threads(const Workload& w);

struct RunOptions {
  /// Run through NetHost to w.sessions workers; false runs the same
  /// config in-process (the socket run's bit-identity reference).
  bool socket = false;
  /// Install the decorators. Off = the plain engine, which the
  /// transparency tests compare against.
  bool decorate = true;
  /// Build the workload (and its worker sessions), then tear it down
  /// without running: one more setup_s sample.
  bool setup_only = false;
  /// Traced run: one span per decorated call, plus the library's own
  /// counters and timers (wire.*) on `tracer`.
  SpanRecorder* rec = nullptr;
  fedtrip::obs::Tracer* tracer = nullptr;
  std::uint32_t run_id = 0;
};

struct RunOutcome {
  double setup_s = 0.0;
  double run_s = 0.0;
  /// Wall time between consecutive aggregations (the first one measured
  /// from the start of the run).
  std::vector<double> round_s;
  std::optional<double> time_to_target_s;
  std::optional<std::size_t> rounds_to_target;
  fedtrip::fl::RunResult result;  // history kept
  std::size_t dispatches = 0;
  std::size_t updates = 0;
  double flops = 0.0;
  /// Socket runs: traffic and every worker's stats (traced runs only).
  fedtrip::net::NetHost::Traffic traffic;
  std::vector<fedtrip::obs::TraceData> worker_stats;
};

/// Builds the workload (timed as setup_s) and runs it (timed as run_s).
RunOutcome run_workload(const Workload& w, const RunOptions& opt);

}  // namespace perfbench
