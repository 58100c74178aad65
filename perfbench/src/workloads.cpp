#include "workloads.h"

#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "algorithms/registry.h"
#include "comm/config.h"
#include "decorators.h"
#include "fl/round_host.h"
#include "net/pool.h"
#include "net/socket.h"
#include "net/worker.h"
#include "tensor/thread_pool.h"

namespace perfbench {

namespace fl = fedtrip::fl;
namespace net = fedtrip::net;

namespace {

// Table IV's CNN/MNIST-90% case (bench/cases.h, quick scale): FedTrip
// mu 0.4, Dir-0.5, 4 of 10 clients per round, batch 15, one local epoch,
// sync policy, identity channel, evaluation every round. Compute-bound:
// the tensor/nn kernels train, single-threaded eval takes a large share of
// each round, and comm, wire, net and shard synthesis do no work. Thirty
// rounds on each of four seeds: some seeds stay far below 0.90 for 20
// rounds or more (a few for 50+), which after 20 rounds pulled the
// median of a five-seed panel down to 0.66 for one --seed in ten; after
// 30 rounds about one panel seed in twelve still lags, and the median of
// four rarely sees two of them. 4 x 30 aggregations make one round_s block.
Workload paper_cnn() {
  Workload w;
  w.name = "paper-cnn";
  fl::ExperimentConfig& c = w.config;
  c.model.arch = fedtrip::nn::Arch::kCNN;
  c.dataset = "mnist";
  c.data_scale = 0.10;
  c.heterogeneity = fedtrip::data::Heterogeneity::kDir05;
  c.num_clients = 10;
  c.clients_per_round = 4;
  c.rounds = 30;
  c.local_epochs = 1;
  c.batch_size = 15;
  c.eval_every = 1;
  w.algo.mu = 0.4f;
  w.algo.lr = c.lr;
  w.target = 0.90;
  w.panel = 4;
  return w;
}

// 64 virtual clients with 20-sample shards, one batch each, under
// buffered async (buffer 8, 32 in flight) over a straggler network with
// lognormal compute; ef+topk delta uplink, qsgd8 downlink, sparse eval.
// Each dispatch trains one small batch, so codecs, per-dispatch shard
// synthesis, the async event loop and the history store do most of the
// work: the opposite mix to paper-cnn. Sized so every round_s sample
// comes from one population: a client's first dispatch allocates its
// history entry and error-feedback residual and runs ~35% slower, and
// with 1000 clients those dispatches filled the first 40% of a 200-
// aggregation run, which put round_s.p50 on the edge between the two
// populations (it swung 30% between seeds). With 64 clients first visits
// are 4% of the dispatches and evaluations (every 50th aggregation) 2% of
// the rounds, both clear of p90. Two seeds per run.
Workload fleet_async() {
  Workload w;
  w.name = "fleet-async";
  fl::ExperimentConfig& c = w.config;
  c.model.arch = fedtrip::nn::Arch::kMLP;
  c.dataset = "mnist";
  c.data_scale = 0.05;  // sizes the test split only: shards are virtual
  c.client_data = "virtual";
  c.shard_samples = 20;
  c.num_clients = 64;
  c.clients_per_round = 32;
  c.rounds = 200;
  c.batch_size = 20;
  c.eval_every = 50;
  c.sched.policy = "async";
  c.sched.buffer_size = 8;
  c.comm.uplink = "ef+topk";
  c.comm.delta_uplink = true;
  c.comm.downlink = "qsgd8";
  c.comm.network.profile = fedtrip::comm::NetProfile::kStraggler;
  c.clients.compute_profile = "lognormal";
  w.algo.mu = 1.0f;  // the paper's MLP setting
  w.algo.lr = c.lr;
  w.target = 0.70;
  w.panel = 2;
  return w;
}

// Sixteen clients, all selected every round, on equal IID shards of ~375
// samples, trained by two WorkerServer sessions behind NetHost over
// loopback TCP; topk 5% downlink and the topk wire codec, eval every 25th
// round. One training thread per session: the coordinator thread
// (de)serializes while the sessions train, so two threads each made five
// busy threads on four CPUs, and the run doubled in length whenever the
// host took CPU time away. Each round waits for the slower session, so
// shards are IID: under Dir-0.5 the split between sessions, and with it
// the round time, changed from seed to seed by up to 20%. data_scale 0.10
// rather than 0.05 doubles the shards, which makes a round mostly training
// rather than hand-offs between threads, the part a short stall of the
// host stretches most: on a 4-vCPU VM the spread of round_s.p90 across
// five seeds fell from 0.12 to 0.04.
// Four evaluations keep eval rounds above p90.
// The only workload where net and wire run. FedTrip ships each client's
// dense history vector with its dispatch, so the codec's
// verify-and-fallback hits only partly. Three seeds per run: each run is
// one round_s block, and the median of three blocks ignores one that a
// burst of host CPU steal hit, where the mean of two does not.
Workload socket_fedtrip() {
  Workload w;
  w.name = "socket-fedtrip";
  fl::ExperimentConfig& c = w.config;
  c.model.arch = fedtrip::nn::Arch::kMLP;
  c.dataset = "mnist";
  c.data_scale = 0.10;
  c.heterogeneity = fedtrip::data::Heterogeneity::kIID;
  c.num_clients = 16;
  c.clients_per_round = 16;
  c.rounds = 100;
  c.batch_size = 32;
  c.eval_every = 25;
  c.workers = 1;
  c.comm.downlink = "topk";
  c.comm.params.topk_fraction = 0.05f;
  c.net.wire_codec = "topk";
  w.algo.mu = 1.0f;
  w.algo.lr = c.lr;
  w.target = 0.90;
  w.sessions = 2;
  w.panel = 3;
  return w;
}

/// WorkerServer sessions in threads of this process, connected over
/// loopback TCP and handshaken into a WorkerPool — the transport path a
/// separate fl_worker process runs.
class LoopbackWorkers {
 public:
  LoopbackWorkers(const Workload& w, std::size_t param_dim) {
    net::Listener listener(0);
    const std::uint16_t port = listener.port();
    errors_.resize(w.sessions);
    for (std::size_t i = 0; i < w.sessions; ++i) {
      threads_.t.emplace_back([this, port, i]() {
        try {
          net::WorkerServer server;
          server.serve(net::connect_to("127.0.0.1", port));
        } catch (const std::exception& e) {
          errors_[i] = e.what();
        }
      });
    }
    std::vector<net::Socket> conns;
    for (std::size_t i = 0; i < w.sessions; ++i) {
      conns.push_back(listener.accept());
    }
    net::SetupMsg setup;
    setup.method = "FedTrip";
    setup.algo = w.algo;
    setup.config = w.config;
    pool_.emplace(
        net::WorkerPool::handshake(std::move(conns), setup, param_dim));
  }

  net::WorkerPool& pool() { return *pool_; }

  /// Orderly shutdown; throws the first error a session reported.
  void finish() {
    pool_->shutdown();
    threads_.join();
    for (const auto& e : errors_) {
      if (!e.empty()) throw std::runtime_error("worker session: " + e);
    }
  }

 private:
  struct Joiner {
    std::vector<std::thread> t;
    void join() {
      for (auto& th : t) {
        if (th.joinable()) th.join();
      }
    }
    ~Joiner() { join(); }
  };
  std::vector<std::string> errors_;  // one slot per session thread
  Joiner threads_;                   // joined after pool_ closes the sockets
  std::optional<net::WorkerPool> pool_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper-cnn", "fleet-async",
                                                 "socket-fedtrip"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "paper-cnn") {
    w = paper_cnn();
  } else if (name == "fleet-async") {
    w = fleet_async();
  } else if (name == "socket-fedtrip") {
    w = socket_fedtrip();
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  w.config.seed = seed;
  return w;
}

std::size_t pool_threads(const Workload& w) {
  return w.config.workers > 0 ? w.config.workers
                              : fedtrip::ThreadPool::global().size();
}

std::size_t busy_threads(const Workload& w) {
  return w.sessions == 0 ? pool_threads(w)
                         : pool_threads(w) * w.sessions + 1;
}

RunOutcome run_workload(const Workload& w, const RunOptions& opt) {
  RunOutcome out;
  const double setup_start = steady_seconds();
  fl::AlgorithmPtr algo =
      fedtrip::algorithms::make_algorithm("FedTrip", w.algo);
  if (opt.decorate && opt.rec != nullptr) {
    algo = std::make_unique<TimedAlgorithm>(std::move(algo), opt.rec,
                                            opt.run_id);
  }
  fl::Simulation sim(w.config, std::move(algo));
  if (opt.tracer != nullptr) sim.set_tracer(opt.tracer);
  std::optional<LoopbackWorkers> workers;
  if (opt.socket) workers.emplace(w, sim.param_dim());
  out.setup_s = steady_seconds() - setup_start;
  if (opt.setup_only) {
    if (workers) workers->finish();
    return out;
  }

  double run_start = 0.0;
  if (opt.decorate) {
    sim.set_round_sink(
        [&](const fl::RoundRecord& r) {
          if (!out.rounds_to_target && r.test_accuracy >= w.target) {
            out.time_to_target_s = steady_seconds() - run_start;
            out.rounds_to_target = r.round;
          }
        },
        /*keep_in_result=*/true);
  }

  std::vector<double> stamps;
  std::optional<net::NetHost> net_host;
  std::optional<TimedHost> timed;
  {
    ScopedSpan run_span(opt.rec, "sched.run", 0, opt.run_id);
    if (opt.rec != nullptr) opt.rec->set_context(run_span.id());
    const auto wrap = [&](fl::RoundHost& inner) -> fedtrip::sched::Host& {
      fedtrip::sched::Host* host = &inner;
      if (workers) host = &net_host.emplace(inner, workers->pool());
      if (!opt.decorate) return *host;
      return timed.emplace(*host, &stamps, opt.rec, run_span.id(),
                           opt.run_id);
    };
    run_start = steady_seconds();
    out.result = sim.run_with_host(wrap);
    out.run_s = steady_seconds() - run_start;
  }

  double prev = run_start;
  for (double t : stamps) {
    out.round_s.push_back(t - prev);
    prev = t;
  }
  if (timed) {
    out.dispatches = timed->dispatches();
    out.updates = timed->updates();
    out.flops = timed->flops();
  }
  if (workers) {
    out.traffic = net_host->traffic();
    if (opt.tracer != nullptr) {
      out.worker_stats = workers->pool().collect_stats();
    }
    workers->finish();
  }
  return out;
}

}  // namespace perfbench
