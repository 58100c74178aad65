// run_experiment: a full command-line driver over the library — any method,
// model, dataset, heterogeneity, schedule and client profile — with CSV +
// checkpoint export. This is the binary a downstream user scripts their own
// sweeps with.
//
// Flags are registered once in fl::experiment_flags() (src/fl/flags.h): the
// --help text is generated from that table and this file's handler map is
// checked against it at startup, so the accepted flags and the documented
// flags cannot drift apart.
//
// Usage (one shell line; wrapped here without continuations so the
// comment stays -Wcomment-clean):
//   ./run_experiment --method FedTrip --model cnn --dataset mnist
//       --het Dir-0.5 --rounds 50 --clients 10 --per-round 4
//       --schedule deadline --deadline 20 --compute-profile bimodal
//       --availability markov --network straggler --out history.csv
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "algorithms/registry.h"
#include "comm/registry.h"
#include "data/idx_loader.h"
#include "fl/aggregator.h"
#include "fl/checkpoint.h"
#include "fl/flags.h"
#include "fl/metrics.h"
#include "fl/round_host.h"
#include "fl/simulation.h"
#include "net/net_host.h"
#include "net/pool.h"
#include "obs/export.h"
#include "obs/flight.h"
#include "obs/stream.h"
#include "obs/tracer.h"
#include "tensor/ops.h"

namespace {

/// Directory of this process's executable + "/fl_worker" — the default
/// --worker-bin (the two binaries are built side by side).
std::string default_worker_bin(const char* argv0) {
  std::string path = argv0;
  const auto slash = path.rfind('/');
  if (slash == std::string::npos) return "./fl_worker";
  return path.substr(0, slash + 1) + "fl_worker";
}

std::vector<fedtrip::net::Endpoint> parse_endpoint_list(
    const std::string& list) {
  std::vector<fedtrip::net::Endpoint> endpoints;
  std::size_t start = 0;
  while (start <= list.size()) {
    const auto comma = list.find(',', start);
    const std::string spec =
        list.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (!spec.empty()) {
      endpoints.push_back(fedtrip::net::parse_endpoint(spec));
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return endpoints;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fedtrip;

  fl::ExperimentConfig cfg;
  cfg.model.arch = nn::Arch::kCNN;
  cfg.dataset = "mnist";
  cfg.data_scale = 0.1;
  cfg.rounds = 30;
  cfg.batch_size = 32;
  std::string method = "FedTrip";
  std::string out_csv, save_model, load_model, idx_dir;
  std::size_t workers_remote = 0;
  std::string connect_list;
  std::string worker_bin = default_worker_bin(argv[0]);
  bool elastic = false;
  double heartbeat_interval_s = 0.25;
  net::ElasticConfig elastic_cfg;
  algorithms::AlgoParams params;
  params.mu = 0.4f;

  const std::string usage = fl::experiment_usage();

  // One handler per registered flag; boolean flags receive nullptr.
  using Handler = std::function<void(const char*)>;
  const std::map<std::string, Handler> handlers = {
      {"--method", [&](const char* v) { method = v; }},
      {"--model",
       [&](const char* v) { cfg.model.arch = nn::arch_from_name(v); }},
      {"--dataset", [&](const char* v) { cfg.dataset = v; }},
      {"--het",
       [&](const char* v) {
         cfg.heterogeneity = data::heterogeneity_from_name(v);
       }},
      {"--rounds",
       [&](const char* v) {
         cfg.rounds = static_cast<std::size_t>(std::atoi(v));
       }},
      {"--clients",
       [&](const char* v) {
         cfg.num_clients = static_cast<std::size_t>(std::atoi(v));
       }},
      {"--per-round",
       [&](const char* v) {
         cfg.clients_per_round = static_cast<std::size_t>(std::atoi(v));
       }},
      {"--batch",
       [&](const char* v) {
         cfg.batch_size = static_cast<std::size_t>(std::atoi(v));
       }},
      {"--epochs",
       [&](const char* v) {
         cfg.local_epochs = static_cast<std::size_t>(std::atoi(v));
       }},
      {"--mu",
       [&](const char* v) { params.mu = static_cast<float>(std::atof(v)); }},
      {"--xi-scale",
       [&](const char* v) {
         params.xi_scale = static_cast<float>(std::atof(v));
       }},
      {"--lr",
       [&](const char* v) {
         cfg.lr = static_cast<float>(std::atof(v));
         params.lr = cfg.lr;
       }},
      {"--scale", [&](const char* v) { cfg.data_scale = std::atof(v); }},
      {"--seed",
       [&](const char* v) {
         cfg.seed = static_cast<std::uint64_t>(std::atoll(v));
       }},
      {"--width-mult",
       [&](const char* v) { cfg.model.width_mult = std::atof(v); }},
      {"--client-data", [&](const char* v) { cfg.client_data = v; }},
      {"--shard-samples",
       [&](const char* v) {
         cfg.shard_samples = static_cast<std::size_t>(std::atoll(v));
       }},
      {"--virtual-chunk",
       [&](const char* v) {
         cfg.virtual_chunk = static_cast<std::size_t>(std::atoll(v));
       }},
      {"--no-participation",
       [&](const char*) { cfg.track_participation = false; }},
      {"--no-partition-stats",
       [&](const char*) { cfg.partition_stats = false; }},
      {"--out", [&](const char* v) { out_csv = v; }},
      {"--save-model", [&](const char* v) { save_model = v; }},
      {"--load-model", [&](const char* v) { load_model = v; }},
      {"--idx-dir", [&](const char* v) { idx_dir = v; }},
      {"--compressor", [&](const char* v) { cfg.comm.uplink = v; }},
      {"--down-compressor", [&](const char* v) { cfg.comm.downlink = v; }},
      {"--topk-frac",
       [&](const char* v) {
         cfg.comm.params.topk_fraction = static_cast<float>(std::atof(v));
       }},
      {"--qsgd-bits",
       [&](const char* v) { cfg.comm.params.qsgd_bits = std::atoi(v); }},
      {"--mask-keep",
       [&](const char* v) {
         cfg.comm.params.mask_keep = static_cast<float>(std::atof(v));
       }},
      {"--delta", [&](const char*) { cfg.comm.delta_uplink = true; }},
      {"--byte-exact", [&](const char*) { cfg.comm.byte_exact = true; }},
      {"--network",
       [&](const char* v) {
         cfg.comm.network.profile = comm::net_profile_from_name(v);
       }},
      {"--bandwidth",
       [&](const char* v) { cfg.comm.network.bandwidth_mbps = std::atof(v); }},
      {"--latency",
       [&](const char* v) { cfg.comm.network.latency_ms = std::atof(v); }},
      {"--schedule", [&](const char* v) { cfg.sched.policy = v; }},
      {"--overselect",
       [&](const char* v) {
         cfg.sched.overselect = static_cast<std::size_t>(std::atoi(v));
       }},
      {"--buffer",
       [&](const char* v) {
         cfg.sched.buffer_size = static_cast<std::size_t>(std::atoi(v));
       }},
      {"--staleness-alpha",
       [&](const char* v) { cfg.sched.staleness_alpha = std::atof(v); }},
      {"--deadline",
       [&](const char* v) { cfg.sched.deadline_s = std::atof(v); }},
      {"--compute-profile",
       [&](const char* v) { cfg.clients.compute_profile = v; }},
      {"--seconds-per-sample",
       [&](const char* v) { cfg.clients.seconds_per_sample = std::atof(v); }},
      {"--availability",
       [&](const char* v) {
         // "always" and "markov" are kinds; anything else is a CSV trace.
         const std::string a = v;
         if (a == "always" || a == "markov") {
           cfg.clients.availability = a;
         } else {
           cfg.clients.availability = "trace";
           cfg.clients.availability_trace = a;
         }
       }},
      {"--avail-on",
       [&](const char* v) { cfg.clients.markov_mean_on_s = std::atof(v); }},
      {"--avail-off",
       [&](const char* v) { cfg.clients.markov_mean_off_s = std::atof(v); }},
      {"--workers-remote",
       [&](const char* v) {
         workers_remote = static_cast<std::size_t>(std::atoi(v));
       }},
      {"--connect", [&](const char* v) { connect_list = v; }},
      {"--worker-bin", [&](const char* v) { worker_bin = v; }},
      {"--elastic", [&](const char*) { elastic = true; }},
      {"--heartbeat-interval",
       [&](const char* v) { heartbeat_interval_s = std::atof(v); }},
      {"--worker-deadline",
       [&](const char* v) { elastic_cfg.worker_deadline_s = std::atof(v); }},
      {"--wire-codec",
       [&](const char* v) {
         // Fail at parse time, not at the first worker handshake.
         try {
           (void)comm::make_compressor(v, cfg.comm.params);
         } catch (const std::invalid_argument& e) {
           std::fprintf(stderr, "--wire-codec: %s\n", e.what());
           std::exit(2);
         }
         cfg.net.wire_codec = v;
       }},
      {"--aggregator",
       [&](const char* v) {
         try {
           fl::set_default_aggregator(v);
         } catch (const std::invalid_argument& e) {
           std::fprintf(stderr, "--aggregator: %s\n", e.what());
           std::exit(2);
         }
       }},
      {"--obs", [&](const char*) { cfg.obs.enabled = true; }},
      {"--trace-out",
       [&](const char* v) {
         cfg.obs.enabled = true;
         cfg.obs.trace_out = v;
       }},
      {"--metrics-out",
       [&](const char* v) {
         cfg.obs.enabled = true;
         cfg.obs.metrics_out = v;
       }},
      {"--metrics-interval",
       [&](const char* v) {
         cfg.obs.enabled = true;
         cfg.obs.metrics_interval_s = std::max(0.0, std::atof(v));
       }},
      {"--metrics-ndjson",
       [&](const char* v) {
         cfg.obs.enabled = true;
         cfg.obs.metrics_stream = v;
       }},
      {"--flight-recorder",
       [&](const char* v) {
         cfg.obs.enabled = true;
         cfg.obs.flight_dir = v;
       }},
      {"--help",
       [&](const char*) {
         std::printf("%s", usage.c_str());
         std::exit(0);
       }},
  };

  // Drift guard: the handler map and the registered flag table must agree
  // (this runs on every invocation, including the CI smoke runs).
  const auto& specs = fl::experiment_flags();
  for (const auto& s : specs) {
    if (handlers.find(s.name) == handlers.end()) {
      std::fprintf(stderr, "BUG: registered flag %s has no handler\n",
                   s.name);
      return 2;
    }
  }
  if (handlers.size() != specs.size()) {
    for (const auto& [name, fn] : handlers) {
      (void)fn;
      bool found = false;
      for (const auto& s : specs) found |= name == s.name;
      if (!found) {
        std::fprintf(stderr,
                     "BUG: handler for %s missing from experiment_flags()\n",
                     name.c_str());
      }
    }
    return 2;
  }

  for (int i = 1; i < argc; ++i) {
    const auto it = handlers.find(argv[i]);
    if (it == handlers.end()) {
      std::fprintf(stderr, "unknown option %s\n%s", argv[i], usage.c_str());
      return 2;
    }
    const fl::FlagSpec* spec = nullptr;
    for (const auto& s : specs) {
      if (it->first == s.name) spec = &s;
    }
    const char* value = nullptr;
    if (spec->value_name != nullptr) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n%s", argv[i],
                     usage.c_str());
        return 2;
      }
      value = argv[++i];
    }
    it->second(value);
  }

  if (cfg.dataset == "emnist") cfg.model.classes = 47;
  if (cfg.dataset == "cifar10") {
    cfg.model.channels = 3;
    cfg.model.height = 32;
    cfg.model.width = 32;
  }
  // Real data on disk takes precedence over the synthetic generator.
  std::optional<data::TrainTest> real_data;
  if (!idx_dir.empty()) {
    auto real = data::try_load_mnist_dir(idx_dir, cfg.model.classes);
    if (!real.has_value()) {
      std::fprintf(stderr,
                   "IDX files not found under %s; falling back to the "
                   "synthetic analogue\n",
                   idx_dir.c_str());
    } else {
      std::printf("loaded %zu train / %zu test samples from %s\n",
                  real->train.size(), real->test.size(), idx_dir.c_str());
      real_data = data::TrainTest{std::move(real->train),
                                  std::move(real->test)};
    }
  }

  std::printf("method=%s model=%s dataset=%s het=%s rounds=%zu "
              "clients=%zu/%zu batch=%zu epochs=%zu mu=%.2f seed=%llu "
              "schedule=%s compute=%s availability=%s kernels=%s\n",
              method.c_str(), nn::arch_name(cfg.model.arch),
              cfg.dataset.c_str(),
              data::heterogeneity_name(cfg.heterogeneity), cfg.rounds,
              cfg.clients_per_round, cfg.num_clients, cfg.batch_size,
              cfg.local_epochs, params.mu,
              static_cast<unsigned long long>(cfg.seed),
              cfg.sched.policy.c_str(), cfg.clients.compute_profile.c_str(),
              cfg.clients.availability.c_str(), ops::active_isa());

  const bool distributed = workers_remote > 0 || !connect_list.empty();
  if (elastic && !distributed) {
    std::fprintf(stderr,
                 "--elastic needs a worker pool (--workers-remote or "
                 "--connect)\n");
    return 2;
  }
  auto algorithm = algorithms::make_algorithm(method, params);
  if (distributed && !algorithm->remote_trainable()) {
    std::fprintf(stderr,
                 "method %s is not remote-trainable (mutable algorithm "
                 "state on the train path; see docs/TRANSPORT.md) — run "
                 "it in-process\n",
                 method.c_str());
    return 2;
  }
  auto sim = real_data.has_value()
                 ? fl::Simulation(cfg, std::move(algorithm),
                                  std::move(*real_data))
                 : fl::Simulation(cfg, std::move(algorithm));
  if (!load_model.empty()) {
    auto initial = fl::load_parameters_file(load_model);
    sim.set_initial_params(initial);
    std::printf("resumed from %s (%zu parameters, accuracy %.2f%%)\n",
                load_model.c_str(), initial.size(),
                100.0 * sim.evaluate(initial));
  }

  // Observability: the runner owns the Tracer (the Simulation holds only a
  // pointer). Off by default; when off nothing below ever touches it and
  // results are bit-identical to a build without tracing.
  std::optional<obs::Tracer> tracer;
  if (cfg.obs.enabled) {
    tracer.emplace(cfg.obs);
    sim.set_tracer(&*tracer);
  }
  // Crash flight recorder: the tracer feeds the event ring; a distributed
  // failure or a fatal signal dumps <dir>/flight-<pid>.json with the last
  // spans this process touched.
  obs::FlightRecorder flight;
  if (!cfg.obs.flight_dir.empty()) {
    tracer->set_flight_recorder(&flight);
    obs::FlightRecorder::arm_process(&flight, cfg.obs.flight_dir, &*tracer);
    std::printf("flight recorder armed (%s/flight-<pid>.json)\n",
                cfg.obs.flight_dir.c_str());
  }
  // In-flight metrics stream: one NDJSON record per due interval, merged
  // across the coordinator and (distributed) every live worker lane.
  const bool streaming =
      cfg.obs.metrics_interval_s >= 0.0 || !cfg.obs.metrics_stream.empty();
  std::optional<obs::MetricsStreamer> streamer;
  if (streaming) {
    const std::string stream_path = cfg.obs.metrics_stream.empty()
                                        ? std::string("metrics.ndjson")
                                        : cfg.obs.metrics_stream;
    // --metrics-ndjson alone defaults to 1 s; an explicit 0 means "every
    // poll point" (MetricsStreamer's own contract).
    const double interval_s = cfg.obs.metrics_interval_s >= 0.0
                                  ? cfg.obs.metrics_interval_s
                                  : 1.0;
    try {
      streamer.emplace(stream_path, interval_s);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--metrics-interval: %s\n", e.what());
      return 1;
    }
    std::printf("streaming live metrics to %s every %.3g s "
                "(tail with fl_top)\n",
                stream_path.c_str(), interval_s);
  }
  // Lanes of the merged export: coordinator first, then one per worker
  // (filled from the StatsReports collected before shutdown).
  std::vector<obs::TraceLane> lanes;

  fl::RunResult result;
  if (distributed) {
    net::SetupMsg setup;
    setup.method = method;
    setup.algo = params;
    setup.config = cfg;
    setup.idx_dir = real_data.has_value() ? idx_dir : std::string();
    setup.heartbeat_interval_s = heartbeat_interval_s;
    setup.elastic = elastic;
    try {
      net::WorkerPool pool =
          !connect_list.empty()
              ? net::WorkerPool::connect(parse_endpoint_list(connect_list),
                                         setup, sim.param_dim())
              : net::WorkerPool::spawn_local(workers_remote, worker_bin,
                                             setup, sim.param_dim());
      std::printf("distributed%s: training across %zu worker process(es)",
                  elastic ? " (elastic)" : "", pool.size());
      if (elastic) std::printf(", rejoin port %u", pool.rejoin_port());
      std::printf("\n");
      std::optional<net::NetHost> host;
      result = sim.run_with_host([&](fl::RoundHost& inner) -> sched::Host& {
        host.emplace(inner, pool, elastic_cfg);
        if (streamer) host->set_metrics(&*streamer);
        return *host;
      });
      if (elastic) {
        const auto& st = host->stats();
        std::printf("elastic: %llu sub-batches, %llu replayed, %llu "
                    "stolen, %llu evicted, %llu rejoined\n",
                    static_cast<unsigned long long>(st.sub_batches),
                    static_cast<unsigned long long>(st.replayed),
                    static_cast<unsigned long long>(st.stolen),
                    static_cast<unsigned long long>(st.evicted_workers),
                    static_cast<unsigned long long>(st.rejoined_workers));
      }
      if (cfg.obs.enabled) {
        // One report per slot, so lane i is pool.label(i) — evicted and
        // rejoined workers keep their own names.
        auto reports = pool.collect_stats();
        for (std::size_t i = 0; i < reports.size(); ++i) {
          lanes.push_back({pool.label(i), std::move(reports[i])});
        }
      }
      pool.shutdown();
    } catch (const std::exception& e) {
      // NetError for transport failures; wire::WireError can still
      // surface from a hostile peer's payload — both end the run with
      // the diagnostic, not a terminate.
      std::fprintf(stderr, "distributed run failed: %s\n", e.what());
      if (!cfg.obs.flight_dir.empty()) {
        const std::string path = flight.dump(cfg.obs.flight_dir, e.what(),
                                             tracer ? &*tracer : nullptr);
        if (!path.empty()) {
          std::fprintf(stderr, "flight dump: %s\n", path.c_str());
        }
      }
      return 1;
    }
  } else if (streamer) {
    // Live streaming without a worker pool: a round sink emits the
    // coordinator lane between rounds, stamped with the engine's virtual
    // clock (reached through the host-wrapper hook).
    fl::RoundHost* engine = nullptr;
    std::uint64_t rounds_done = 0;
    sim.set_round_sink(
        [&](const fl::RoundRecord& r) {
          ++rounds_done;
          if (!streamer->due()) return;
          std::vector<obs::TraceLane> live;
          live.push_back({"coordinator",
                          tracer ? tracer->snapshot() : obs::TraceData{}});
          streamer->emit(engine != nullptr ? engine->clock_seconds() : 0.0,
                         r.round, rounds_done, live);
        },
        /*keep_in_result=*/true);
    result = sim.run_with_host([&](fl::RoundHost& h) -> sched::Host& {
      engine = &h;
      return h;
    });
  } else {
    result = sim.run();
  }

  for (const auto& r : result.history) {
    std::printf("round %3zu  acc %6.2f%%  loss %7.4f  gflops %9.2f\n",
                r.round, 100.0 * r.test_accuracy, r.train_loss,
                r.cum_gflops);
  }
  std::printf("best accuracy: %.2f%%\n",
              100.0 * fl::best_accuracy(result.history));
  std::printf("comm: channel %s  down %.3f MB  up %.3f MB",
              result.channel_name.c_str(), result.comm_stats.mb_down(),
              result.comm_stats.mb_up());
  if (cfg.comm.network.profile != comm::NetProfile::kNone) {
    std::printf("  simulated %.2f s over %s network", result.comm_seconds,
                comm::net_profile_name(cfg.comm.network.profile));
  } else if (cfg.clients.compute_profile != "none") {
    std::printf("  simulated %.2f s (compute only)", result.comm_seconds);
  }
  std::printf("\n");
  if (cfg.sched.policy != "sync" && !result.history.empty()) {
    const auto& last = result.history.back();
    std::printf("schedule %s: last-round staleness mean %.2f max %zu, "
                "dropped %zu, deferred %zu\n",
                result.sched_policy.c_str(), last.mean_staleness,
                last.max_staleness, last.dropped, last.deadline_deferred);
  }
  if (cfg.clients.availability != "always" && !result.history.empty()) {
    std::size_t unavailable = 0;
    for (const auto& r : result.history) unavailable += r.unavailable;
    std::printf("availability %s: %zu dispatches lost to offline clients\n",
                cfg.clients.availability.c_str(), unavailable);
  }

  if (!out_csv.empty()) {
    fl::save_history_csv(out_csv, result.history);
    std::printf("history written to %s\n", out_csv.c_str());
  }
  if (!save_model.empty()) {
    fl::save_parameters(save_model, result.final_params);
    std::printf("final model written to %s\n", save_model.c_str());
  }

  if (cfg.obs.enabled) {
    lanes.insert(lanes.begin(), {"coordinator", tracer->snapshot()});
    try {
      if (!cfg.obs.trace_out.empty()) {
        obs::write_chrome_trace(cfg.obs.trace_out, lanes);
        std::printf("trace written to %s (%zu lane(s); load in Perfetto or "
                    "chrome://tracing)\n",
                    cfg.obs.trace_out.c_str(), lanes.size());
      }
      if (!cfg.obs.metrics_out.empty()) {
        obs::write_metrics_json(cfg.obs.metrics_out, lanes);
        std::printf("metrics written to %s\n", cfg.obs.metrics_out.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "observability export failed: %s\n", e.what());
      return 1;
    }
  }
  return 0;
}
